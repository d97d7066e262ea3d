"""Finite Kripke structures for intuitionistic set theory experiments."""

from types import ModuleType as _ModuleType

from .frame import (
    Frame,
    FrameKind,
    build_frame,
    chain,
    dump_frame,
    fan,
    forest,
    leaves,
    leq,
    parse_frame_spec,
    tree,
    up_set,
)
from .formula import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Member,
    Not,
    Or,
    Param,
    ParseError,
    Term,
    Var,
    classify,
    enumerate_delta0,
    enumerate_pi,
    enumerate_sigma,
    formula_stream,
    free_vars,
    is_delta0,
    is_positive_in,
    params_of,
    parse,
    relativize,
    render,
    substitute,
)
from .semantics import (
    EvalError,
    KripkeSet,
    Structure,
    delta0_absolute,
    forced_equal,
    forced_member,
    forces,
    forcing_mask,
    is_end_extension,
    is_ordinal,
    universe_at,
)
from .construct import (
    alpha_forest,
    branch_formula,
    branch_from_bits,
    empty_set,
    externalize,
    internal_nat,
    is_branch,
    make_xi,
    monotone_t_families,
    one_sigma,
    p_hat,
    p_hat_sub,
    phi_xy,
    subset_of_t,
    t_classes_at,
    t_family,
    tree_depth,
    with_zero,
)
from .hierarchy import (
    DefConfig,
    constructible,
    def_along,
    def_step,
    definable_branches,
    define_subset,
    empty_structure,
    gamma_apply,
    gfp,
    hereditary_closure,
    iterate_def,
    lfp,
    powerset,
    structure_from_sets,
)
from .schema import (
    AXIOM_IDS,
    EQUIVALENT_TRIO,
    CheckBounds,
    CheckReport,
    DesignatedInstance,
    LemmaResult,
    Prop1Report,
    Prop1Row,
    SchemaId,
    build_template,
    check_schema,
    lemma_suite,
    proposition1_crosscheck,
)
from .specfile import (
    SpecError,
    StructSpec,
    build_structure,
    canonical_structure,
    dump_structure_spec,
    load_structure,
    parse_structure_spec,
    uniformity_gap,
)

__version__ = "0.1.0"

# every public name bound above, the submodules aside
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
