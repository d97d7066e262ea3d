"""Finite Kripke structures for intuitionistic set theory experiments.

The package namespace is flat, but nothing below is imported until it is
read: the first access to a public name imports the submodule that owns it
(PEP 562), so a process loads only the modules it uses.
"""

import importlib as _importlib

# the public names, by the submodule that defines them
_EXPORTS = {
    "frame": (
        "Frame",
        "FrameKind",
        "build_frame",
        "chain",
        "dump_frame",
        "fan",
        "forest",
        "leaves",
        "leq",
        "parse_frame_spec",
        "tree",
        "up_set",
    ),
    "formula": (
        "And",
        "Eq",
        "Exists",
        "Forall",
        "Formula",
        "Implies",
        "Member",
        "Not",
        "Or",
        "Param",
        "ParseError",
        "Term",
        "Var",
        "classify",
        "enumerate_delta0",
        "enumerate_pi",
        "enumerate_sigma",
        "formula_stream",
        "free_vars",
        "is_delta0",
        "is_positive_in",
        "params_of",
        "parse",
        "relativize",
        "render",
        "substitute",
    ),
    "semantics": (
        "EvalError",
        "KripkeSet",
        "Structure",
        "delta0_absolute",
        "empty_structure",
        "forced_equal",
        "forced_member",
        "forces",
        "forcing_mask",
        "hereditary_closure",
        "is_end_extension",
        "is_ordinal",
        "structure_from_sets",
        "universe_at",
    ),
    "construct": (
        "alpha_forest",
        "branch_formula",
        "branch_from_bits",
        "empty_set",
        "externalize",
        "internal_nat",
        "is_branch",
        "make_xi",
        "monotone_t_families",
        "one_sigma",
        "p_hat",
        "p_hat_sub",
        "phi_xy",
        "subset_of_t",
        "t_classes_at",
        "t_family",
        "tree_depth",
        "with_zero",
    ),
    "hierarchy": (
        "DefConfig",
        "constructible",
        "def_along",
        "def_step",
        "definable_branches",
        "define_subset",
        "gamma_apply",
        "gfp",
        "iterate_def",
        "lfp",
        "powerset",
    ),
    "schema": (
        "AXIOM_IDS",
        "EQUIVALENT_TRIO",
        "CheckBounds",
        "CheckReport",
        "DesignatedInstance",
        "LemmaResult",
        "Prop1Report",
        "Prop1Row",
        "SchemaId",
        "build_template",
        "check_schema",
        "lemma_suite",
        "proposition1_crosscheck",
    ),
    "specfile": (
        "SpecError",
        "StructSpec",
        "build_structure",
        "canonical_structure",
        "dump_structure_spec",
        "load_structure",
        "parse_structure_spec",
        "uniformity_gap",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
