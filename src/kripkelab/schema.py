"""Axiom-schema checks over forcing structures.

Every check is one question: does a node force a closed template formula?
One catalogue entry per schema holds all of it: the noun its messages use,
the slot its instance formula fills (the classes and free variables
allowed, and what a sweep reads there) and its template, a function of
that formula; an axiom has no slot, and its text is parsed on first use.
A sweep reads its formulas from a lazy `formula_stream`, so one that fails
early never builds the rest of the last layer.  It forces each template
once, over every assignment of its parameters at every node (a
`semantics.Sweep` mask with one node block per assignment), and reads one
bit per (node, assignment) in scope.  Structures may carry designated
instances in their notes; those are checked before the generic sweep, each
through `forces`, so a designed failure is the one reported.
"""

from __future__ import annotations

import functools
import itertools
import random
from enum import Enum
from typing import Callable, Iterator, Sequence

from .construct import (
    alpha_forest,
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
    t_family,
    with_zero,
)
from .formula import (
    And,
    Exists,
    Forall,
    Formula,
    Implies,
    Member,
    Not,
    Or,
    Param,
    Var,
    classify,
    enumerate_delta0,
    formula_stream,
    free_vars,
    params_of,
    parse,
    relativize,
    render,
)
from .frame import Frame, _Record, chain, forest, leaves, leq, tree, up_set
from .hierarchy import (
    DefConfig,
    constructible,
    def_along,
    def_step,
    definable_branches,
    define_subset,
    gamma_apply,
    gfp,
    lfp,
)
from .semantics import (
    KripkeSet,
    Structure,
    Sweep,
    class_at,
    delta0_absolute,
    empty_structure,
    forced_equal,
    forced_member,
    forces,
    is_end_extension,
    structure_from_sets,
    universe_at,
)


class SchemaId(Enum):
    EXTENSIONALITY = "Extensionality"
    PAIRING = "Pairing"
    UNION = "Union"
    EMPTY_SET = "EmptySet"
    DELTA0_COMPREHENSION = "Delta0Comprehension"
    DELTA0_BOUNDING = "Delta0Bounding"
    DELTA0_UNIFORMITY = "Delta0Uniformity"
    SIGMA_REFLECTION = "SigmaReflection"
    PI_PERSISTENCE = "PiPersistence"
    PI_UNIFORMITY = "PiUniformity"
    EPSILON_INDUCTION = "EpsilonInduction"
    PI2_REFLECTION = "Pi2Reflection"


class CheckBounds(_Record):
    __slots__ = ("formula_depth", "max_params", "node_scope")

    def __init__(self, formula_depth: int = 1, max_params: int = 1, node_scope: str = "all"):
        if formula_depth < 0 or max_params < 0:
            raise ValueError("formula_depth and max_params must be >= 0")
        if node_scope not in ("all", "bottom"):
            raise ValueError("node_scope must be 'all' or 'bottom'")
        self._fill(formula_depth, max_params, node_scope)


class DesignatedInstance(_Record):
    """A handpicked schema instance carried in a structure's notes.

    `params` maps template parameter names to names-table entries; `node`
    pins the evaluation node, defaulting to the scope of the enclosing
    check."""

    __slots__ = ("schema", "phi", "params", "node", "label")

    def __init__(
        self,
        schema: SchemaId,
        phi: str | None = None,
        params: tuple[tuple[str, str], ...] = (),
        node: str | None = None,
        label: str = "",
    ):
        self._fill(schema, phi, params, node, label)


class _Entry(_Record):
    """One schema: the noun its error messages use, its template as a
    function of the instance formula, and that formula's slot: the
    `classify` classes allowed (() allows any), the free variables allowed
    and swept, the parts of the swept `formula_stream`, and the max_params
    at which #p joins them.  An axiom has no slot: `classes` is None."""

    __slots__ = ("noun", "template", "classes", "variables", "kinds", "p_from")

    def __init__(
        self,
        noun: str,
        template: Callable[[Formula | None], Formula],
        classes: tuple[str, ...] | None = None,
        variables: tuple[str, ...] = (),
        kinds: tuple[type | None, ...] = (None,),
        p_from: int = 2,
    ):
        self._fill(noun, template, classes, variables, kinds, p_from)


def _sentence(text: str) -> Callable[[None], Formula]:
    """An axiom's template: its text, parsed on first use rather than at
    import, which every cold `check` would pay for."""
    return functools.cache(lambda phi: parse(text))


def _uniformity(phi: Formula) -> Formula:
    return Implies(
        Forall("B", None, Exists("x", Param("A"), Forall("y", Var("B"), phi))),
        Exists("x", Param("A"), Forall("y", None, phi)),
    )


# a template binds its slot's variables and names never among them, so a
# formula that passes the variables check cannot be captured
_CATALOGUE = {
    SchemaId.EXTENSIONALITY: _Entry("Extensionality", _sentence(
        "forall a . forall b . "
        "((((forall z in a . z in b)) /\\ ((forall z in b . z in a))) -> a = b)"
    )),
    SchemaId.PAIRING: _Entry(
        "Pairing", _sentence("forall a . forall b . exists c . (a in c /\\ b in c)")
    ),
    SchemaId.UNION: _Entry(
        "Union", _sentence("forall a . exists c . forall z in a . forall w in z . w in c")
    ),
    SchemaId.EMPTY_SET: _Entry("EmptySet", _sentence("exists c . forall z in c . ~(z = z)")),
    SchemaId.DELTA0_COMPREHENSION: _Entry(
        "comprehension",
        lambda phi: Exists("c", None, And(
            Forall("x", Var("c"), And(Member(Var("x"), Param("A")), phi)),
            Forall("x", Param("A"), Implies(phi, Member(Var("x"), Var("c")))),
        )),
        ("Delta0",), ("x",),
    ),
    SchemaId.DELTA0_BOUNDING: _Entry(
        "Delta0Bounding",
        lambda phi: Implies(
            Forall("x", Param("A"), Exists("y", None, phi)),
            Exists("B", None, Forall("x", Param("A"), Exists("y", Var("B"), phi))),
        ),
        ("Delta0",), ("x", "y"),
    ),
    SchemaId.DELTA0_UNIFORMITY: _Entry("Delta0Uniformity", _uniformity, ("Delta0",), ("x", "y")),
    # strictly Pi: the bounded formulas are Delta0 uniformity's
    SchemaId.PI_UNIFORMITY: _Entry(
        "PiUniformity", _uniformity, ("Delta0", "Pi"), ("x", "y"), (Forall,)
    ),
    SchemaId.SIGMA_REFLECTION: _Entry(
        "reflection",
        lambda phi: Implies(phi, Exists("A", None, relativize(phi, Var("A")))),
        ("Delta0", "Sigma"), (), (None, Exists), 1,
    ),
    SchemaId.PI_PERSISTENCE: _Entry(
        "persistence",
        lambda phi: Implies(Forall("A", None, relativize(phi, Var("A"))), phi),
        ("Delta0", "Pi"), (), (None, Forall), 1,
    ),
    SchemaId.EPSILON_INDUCTION: _Entry(
        "induction",
        lambda phi: Implies(
            # the bound is read before `a` is rebound, so phi needs no renamed copy
            Forall("a", None, Implies(Forall("a", Var("a"), phi), phi)),
            Forall("a", None, phi),
        ),
        (), ("a",),
    ),
    SchemaId.PI2_REFLECTION: _Entry(
        "Pi2Reflection",
        lambda phi: Implies(
            Forall("x", None, Exists("y", None, phi)),
            Forall("A", None, Exists("B", None, And(
                Forall("z", Var("A"), Member(Var("z"), Var("B"))),
                Forall("x", Var("B"), Exists("y", Var("B"), phi)),
            ))),
        ),
        ("Delta0",), ("x", "y"),
    ),
}

AXIOM_IDS = frozenset(sc for sc, entry in _CATALOGUE.items() if entry.classes is None)

_FRAGMENTS = {
    ("Delta0",): "be bounded formulas",
    ("Delta0", "Pi"): "sit in the universal fragment",
    ("Delta0", "Sigma"): "sit in the existential fragment",
}


def build_template(schema: SchemaId, phi: Formula | None) -> Formula:
    """The closed formula whose forcing decides one schema instance, once
    phi is checked against the schema's slot."""
    entry = _CATALOGUE.get(schema)
    if entry is None:
        raise ValueError(f"unknown schema {schema}")
    if entry.classes is None:
        if phi is not None:
            raise ValueError(f"{entry.noun} takes no instance formula")
    elif phi is None:
        raise ValueError(f"{schema.value} needs an instance formula")
    elif entry.classes and classify(phi) not in entry.classes:
        raise ValueError(f"{entry.noun} instances must {_FRAGMENTS[entry.classes]}")
    elif not free_vars(phi) <= set(entry.variables):
        if not entry.variables:
            raise ValueError(f"{entry.noun} instances must be sentences")
        allowed = " and ".join(entry.variables)
        raise ValueError(f"{entry.noun} instances may mention {allowed} only")
    return entry.template(phi)


def _counterexample(
    schema: SchemaId, phi: Formula | None, assignment: dict | None, sigma: str
) -> tuple:
    """The report of an instance whose template sigma does not force."""
    values = sorted((assignment or {}).items())
    desc = tuple(f"{k}={v.label or f'uid{v.uid}'}" for k, v in values)
    return schema.value, render(phi) if phi is not None else "", desc, sigma


class CheckReport(_Record):
    __slots__ = ("schema", "holds", "counterexample", "note", "stats")

    def __init__(
        self,
        schema: SchemaId,
        holds: bool,
        counterexample: tuple | None = None,
        note: str = "",
        stats: dict | None = None,
    ):
        self._fill(schema, holds, counterexample, note, {} if stats is None else stats)


def _stream(schema: SchemaId, bounds: CheckBounds) -> tuple[int, Iterator[Formula | None]]:
    """The swept formulas, their number and a lazy stream of them; an axiom
    sweeps one instance with no formula."""
    entry = _CATALOGUE[schema]
    if entry.classes is None:
        return 1, iter((None,))
    params = ("p",) if bounds.max_params >= entry.p_from else ()
    return formula_stream(bounds.formula_depth, entry.variables, params, entry.kinds)


def _scope(s: Structure, bounds: CheckBounds) -> tuple[str, ...]:
    if bounds.node_scope == "bottom":
        return (s.frame.bottom,)
    return s.frame.nodes


def check_schema(
    s: Structure, schema: SchemaId, bounds: CheckBounds = CheckBounds()
) -> CheckReport:
    """Sweep a schema over enumerated instances plus any designated ones.

    Designated instances run first, so a structure built around a known gap
    reports that gap.  The first failing instance is the counterexample:
    formulas in stream order, then nodes in scope, then assignments from
    the node's universe.  Each template is forced once, over all
    assignments at all nodes, and each instance reads one bit of that mask:
    a node whose assignments all hold is read in one step, and only a
    failing node is walked in assignment order.  The sweeps, and the masks
    they keep, are dropped on return."""
    nodes = _scope(s, bounds)
    instances = 0
    designated = 0
    failure: tuple | None = None
    note = ""

    for inst in s.notes:
        if not isinstance(inst, DesignatedInstance) or inst.schema is not schema:
            continue
        designated += 1
        phi = parse(inst.phi) if inst.phi is not None else None
        assignment = {k: s.names[v] for k, v in inst.params} or None
        template = build_template(schema, phi)
        for sigma in (inst.node,) if inst.node is not None else nodes:
            instances += 1
            held = forces(s, sigma, template, extra_names=assignment)
            if not held and failure is None:
                failure = _counterexample(schema, phi, assignment, sigma)
                note = inst.label or "designated instance"

    count, formulas = _stream(schema, bounds)
    sweeps: dict[tuple[str, ...], Sweep] = {}
    for phi in formulas:
        if failure is not None:
            break
        template = build_template(schema, phi)
        names = tuple(sorted(params_of(template)))  # assignments try #A, then #p
        sweep = sweeps.get(names)
        if sweep is None:
            sweep = sweeps[names] = Sweep(s, names)
        held = None
        for sigma in nodes:
            here, listed = sweep.scope(sigma)
            if not here:
                continue
            if held is None:
                held = sweep.forcing_mask(template)
            if held & listed == listed:
                instances += here
                continue
            for values in itertools.product(s.universe[sigma], repeat=len(names)):
                instances += 1
                if not held >> sweep.position(values, sigma) & 1:
                    failure = _counterexample(schema, phi, dict(zip(names, values)), sigma)
                    break
            break
    return CheckReport(
        schema=schema,
        holds=failure is None,
        counterexample=failure,
        note=note if failure is not None else "",
        stats={
            "formulas": count,
            "nodes": len(nodes),
            "instances": instances,
            "designated": designated,
        },
    )


# ------------------------------------------------- three-way verdict table

# The three schemas whose equivalence over the base theory is under study.
# No finite structure meets that base theory.  At a maximal node forcing is
# classical over a finite, membership-closed, well-founded universe: if it
# has elements, one of greatest rank belongs to no set there, so Pairing
# fails; if it is empty, Empty Set fails.  Either failure persists to every
# node below, so prop1 lists the trio alone.
EQUIVALENT_TRIO = (
    SchemaId.PI_PERSISTENCE,
    SchemaId.PI_UNIFORMITY,
    SchemaId.DELTA0_UNIFORMITY,
)


class Prop1Row(_Record):
    __slots__ = ("label", "trio", "agreement")

    def __init__(self, label: str, trio: tuple[tuple[str, bool], ...], agreement: bool):
        self._fill(label, trio, agreement)


class Prop1Report(_Record):
    __slots__ = ("rows", "agreements", "disagreements")

    def __init__(self, rows: tuple[Prop1Row, ...], agreements: int, disagreements: int):
        self._fill(rows, agreements, disagreements)


def proposition1_crosscheck(
    corpus: Sequence[Structure], bounds: CheckBounds = CheckBounds()
) -> Prop1Report:
    """Verdicts for the three-way equivalent schemas, one row per structure.

    Every row lies outside the equivalence's hypothesis, since no finite
    structure satisfies the base theory (see ``EQUIVALENT_TRIO``), so
    agreement between the three columns is tabulated and reported, never
    asserted."""
    rows: list[Prop1Row] = []
    agreements = disagreements = 0
    for i, s in enumerate(corpus):
        trio = tuple(
            (sc.value, check_schema(s, sc, bounds).holds) for sc in EQUIVALENT_TRIO
        )
        same = len({h for _, h in trio}) == 1
        agreements += 1 if same else 0
        disagreements += 0 if same else 1
        rows.append(Prop1Row(label=f"{i}:{s.frame.kind}", trio=trio, agreement=same))
    return Prop1Report(
        rows=tuple(rows), agreements=agreements, disagreements=disagreements
    )


# ----------------------------------------------------------- lemma battery


class LemmaResult(_Record):
    __slots__ = ("tag", "status", "checked", "note")

    def __init__(
        self,
        tag: str,
        status: str,  # "holds" | "fails" | "under-enumeration"
        checked: int,
        note: str = "",
    ):
        self._fill(tag, status, checked, note)


def _result(
    tag: str, checked: int, bad: list, truncated: bool = False, note: str = ""
) -> LemmaResult:
    if checked == 0:
        return LemmaResult(
            tag, "under-enumeration", 0, note or "no instances at these bounds"
        )
    if bad:
        if truncated:
            return LemmaResult(
                tag,
                "under-enumeration",
                checked,
                f"enumeration hit its caps; first unresolved: {bad[0]}",
            )
        return LemmaResult(tag, "fails", checked, f"first counterexample: {bad[0]}")
    return LemmaResult(tag, "holds", checked, note)


def _same_classes(sigma: str, xs, ys) -> bool:
    """The two families present the same forced-equality classes at sigma."""
    return {class_at(x, sigma) for x in xs} == {class_at(y, sigma) for y in ys}


def _maximal_cone_chain(f: Frame, tau: str, picked) -> bool:
    """picked is a chain of cone(tau) through tau that no cone node extends."""
    nodes = set(picked)
    if tau not in nodes:
        return False
    ns = sorted(nodes)
    for a, b in itertools.combinations(ns, 2):
        if not (leq(f, a, b) or leq(f, b, a)):
            return False
    for rho in up_set(f, tau):
        if rho not in nodes and all(leq(f, rho, c) or leq(f, c, rho) for c in ns):
            return False
    return True


def _subsets(pool):
    for r in range(len(pool) + 1):
        yield from itertools.combinations(pool, r)


@functools.cache
def _nonzero() -> Formula:
    return parse("~(x = #zero)")


_DEF_ROW_TAGS = (
    "tower-of-one-sigma",
    "def-step-of-tower",
    "zero-family-fixed-point",
    "nonzero-carve",
    "xi-ordinal-containment",
    "branch-recovery",
    "staged-collection-formula",
)


def _rows_towers(f: Frame, cfg: DefConfig) -> tuple[LemmaResult, LemmaResult]:
    """Tower over a delayed one reproduces its cone pattern exactly; one
    definability step over such a tower adds exactly the empty set and the
    delayed one itself, per node up to forced equality."""
    zero = empty_set(f)
    checked, bad, trunc = 0, [], False
    step_bad, step_trunc = [], False
    for sigma in f.nodes:
        one = one_sigma(f, sigma)
        lx = def_along(one, cfg)
        trunc |= bool(lx.meta.get("truncated"))
        stepped = def_step(lx, cfg)
        step_trunc |= bool(stepped.meta.get("truncated"))
        for tau in f.nodes:
            checked += 1
            want = () if leq(f, tau, sigma) else (zero,)
            if not _same_classes(tau, lx.universe[tau], want):
                bad.append((sigma, tau))
            want = lx.universe[tau] + (zero, one)
            if not _same_classes(tau, stepped.universe[tau], want):
                step_bad.append((sigma, tau))
    return (
        _result("tower-of-one-sigma", checked, bad, trunc),
        _result("def-step-of-tower", checked, step_bad, step_trunc),
    )


def _family_sample(f: Frame, rng: random.Random) -> list[tuple[KripkeSet, ...]]:
    """All selections from the delayed ones, or a fixed-size sample when the
    powerset is large."""
    fam = t_family(f)
    subsets = list(_subsets(fam))
    if len(subsets) > 64:
        subsets = rng.sample(subsets, 50)
    return subsets


def _rows_families(
    f: Frame, cfg: DefConfig, families: list[tuple[KripkeSet, ...]]
) -> tuple[LemmaResult, LemmaResult]:
    """The tower over a zero-added selection of delayed ones is that
    selection again: universes match its extension classwise at every node.
    Carving the nonzero part out of such a tower recovers the selection,
    except on down-sets of leaves whose delayed one dies there."""
    zero = empty_set(f)
    lv = leaves(f)
    checked, bad, carve_bad, trunc = 0, [], [], False
    for i, members in enumerate(families):
        sel = subset_of_t(f, {tau: members for tau in f.nodes}, label=f"that{i}")
        that0 = with_zero(sel)
        lx = def_along(that0, cfg)
        trunc |= bool(lx.meta.get("truncated"))
        carved = define_subset(lx, f.bottom, _nonzero(), {"zero": zero})
        chosen = {m.uid for m in members}
        dying = [l for l in lv if one_sigma(f, l).uid in chosen]
        for tau in f.nodes:
            checked += 1
            if not _same_classes(tau, lx.universe[tau], that0.ext[tau]):
                bad.append((i, tau))
            mismatch = not _same_classes(tau, carved.ext[tau], sel.ext[tau])
            expected = any(leq(f, tau, l) for l in dying)
            if mismatch != expected:
                carve_bad.append((i, tau, "unexpected" if mismatch else "missing artifact"))
    note = "mismatches on leaf down-sets are death artifacts and are required"
    return (
        _result("zero-family-fixed-point", checked, bad, trunc),
        _result("nonzero-carve", checked, carve_bad, trunc, note=note),
    )


def _suite_branches(f: Frame, depth: int) -> tuple[KripkeSet, ...]:
    return (
        branch_from_bits(f, "0" * (depth - 1)),
        branch_from_bits(f, "1" * (depth - 1)),
    )


def _rows_xi(f: Frame, cfg: DefConfig, depth: int) -> tuple[LemmaResult, LemmaResult]:
    """The collection of zero-added branches with their members is an
    internal ordinal, and its tower contains every input at the bottom.  The
    branch predicate over that tower recovers exactly the input branches,
    and the bottom leaves the two distinguishable."""
    branches = _suite_branches(f, depth)
    staged = tuple(with_zero(b) for b in branches)
    try:
        lx = constructible(make_xi(staged), cfg)
    except ValueError as err:
        return (
            LemmaResult("xi-ordinal-containment", "fails", 1, str(err)),
            LemmaResult("branch-recovery", "fails", 1, str(err)),
        )
    trunc = bool(lx.meta.get("truncated"))
    checked, bad = 1, []
    bottom = universe_at(lx, f.bottom)
    for b in staged:
        checked += 1
        if not any(forced_equal(f, f.bottom, b, u) for u in bottom):
            bad.append(("missing input", b.label))
    xi = _result("xi-ordinal-containment", checked, bad, trunc)
    bad = []
    recovered = definable_branches(lx, p_hat(f))
    if not _same_classes(f.bottom, recovered, branches):
        bad.append(("recovered classes differ", len(recovered)))
    if forced_equal(f, f.bottom, branches[0], branches[1]):
        bad.append(("bottom conflates the two branches",))
    return xi, _result("branch-recovery", 2, bad, trunc)


def _row_externalization(f: Frame) -> LemmaResult:
    """Internal branch-hood of a monotone selection coincides with external
    shape: all externalizations are maximal cone chains and the bottom
    delayed one is a member.  Swept over the forced-equality quotient."""
    es = empty_structure(f)
    q = p_hat(f)
    bottom_one = one_sigma(f, f.bottom)
    checked, bad = 0, []
    families = monotone_t_families(f)
    for i, b in enumerate(families):
        for sigma in f.nodes:
            checked += 1
            lhs = is_branch(es, sigma, b, q)
            rhs = forced_member(f, sigma, bottom_one, b) and all(
                _maximal_cone_chain(f, tau, externalize(f, b, tau))
                for tau in up_set(f, sigma)
            )
            if lhs != rhs:
                bad.append((i, sigma, lhs))
    return _result("externalization-chains", checked, bad)


def _row_staged_formula(cfg: DefConfig) -> LemmaResult:
    """The two-free-variable formula pins stage membership over the forest
    tower: instance-wise biconditional against the staged collections, with
    mismatches certified as leaf-death artifacts.

    The claim anchors at the working bottom, the unique node above the root:
    the root exists only so that the root marker has already collapsed to 1
    there.  At the root itself the marker's class genuinely escapes the
    collection clause, so the sweep stays inside the working cone."""
    ff = forest(2, 2)
    alpha = alpha_forest(ff, 3)
    s = def_along(alpha, cfg)
    trunc = bool(s.meta.get("truncated"))
    phi = phi_xy()
    zero = empty_set(ff)
    extras = {
        "zero": zero,
        "one": internal_nat(ff, 1),
        "nats": internal_nat(ff, 3),
    }
    lv = leaves(ff)
    anchor = "b"
    checked, bad = 0, []
    for k in (1, 2):
        x = internal_nat(ff, k)
        ph = p_hat_sub(ff, k)
        for pi in up_set(ff, anchor):
            for y in universe_at(s, pi):
                checked += 1
                lhs = forces(s, pi, phi, {"x": x, "y": y}, extras)
                rhs = forced_member(ff, pi, y, ph)
                if lhs == rhs:
                    continue
                certified = any(
                    forced_equal(ff, l, y, zero) for l in lv if leq(ff, pi, l)
                )
                if not certified:
                    bad.append((k, pi, y.label, lhs))
    note = "leaf-death mismatches certified and tolerated"
    return _result("staged-collection-formula", checked, bad, trunc, note=note)


def _row_fixpoints() -> LemmaResult:
    """Iterated fixed points agree with the exhaustive extremality oracle on
    a one-node structure."""
    f1 = chain(1)
    bot = f1.bottom
    x = internal_nat(f1, 2)
    s = structure_from_sets(f1, (x,))
    texts = (
        "x in #Y",
        "x = x",
        "forall w in x . w in #Y",
        "exists w in #Y . w in x",
    )
    base = x.ext[bot]
    checked, bad = 0, []
    for text in texts:
        psi = parse(text)
        lo, _ = lfp(s, x, psi)
        hi, _ = gfp(s, x, psi)
        for fix, name in ((lo, "lfp"), (hi, "gfp")):
            checked += 1
            if {m.uid for m in gamma_apply(s, x, psi, fix).ext[bot]} != {
                m.uid for m in fix.ext[bot]
            }:
                bad.append((text, name, "not fixed"))
        louid = {m.uid for m in lo.ext[bot]}
        hiuid = {m.uid for m in hi.ext[bot]}
        for mask in range(1 << len(base)):
            sub = tuple(m for i, m in enumerate(base) if mask >> i & 1)
            cand = KripkeSet(f1, bot, {bot: sub}, f"cand{mask}")
            curb = {m.uid for m in sub}
            image = {m.uid for m in gamma_apply(s, x, psi, cand).ext[bot]}
            checked += 2
            if image <= curb and not louid <= curb:
                bad.append((text, "lfp not least", mask))
            if curb <= image and not curb <= hiuid:
                bad.append((text, "gfp not greatest", mask))
    return _result("fixpoint-extremality", checked, bad)


def _row_gap() -> LemmaResult:
    """The shipped gap fixture separates the bounding sweep from the
    designated uniformity instance at the bottom."""
    from .specfile import uniformity_gap

    g = uniformity_gap()
    b = CheckBounds(formula_depth=1, max_params=1, node_scope="bottom")
    rb = check_schema(g, SchemaId.DELTA0_BOUNDING, b)
    ru = check_schema(g, SchemaId.DELTA0_UNIFORMITY, b)
    checked = rb.stats["instances"] + ru.stats["instances"]
    bad = []
    if not rb.holds:
        bad.append(("bounding sweep failed", rb.counterexample))
    if ru.holds:
        bad.append(("uniformity sweep passed",))
    elif ru.counterexample[:2] != (SchemaId.DELTA0_UNIFORMITY.value, "y in x"):
        bad.append(("wrong uniformity counterexample", ru.counterexample))
    return _result("uniformity-gap", checked, bad)


def _row_battery(
    cfg: DefConfig | None, rng: random.Random, samples: int
) -> LemmaResult:
    """Monotonicity on sampled triples, classical laws at one-node cones,
    and bounded-formula agreement along definability extensions."""
    from .specfile import canonical_structure

    formulas = list(enumerate_delta0(1, ("x",)))
    checked, bad = 0, []

    pool = [canonical_structure(tree(2)), canonical_structure(chain(3))]
    for _ in range(samples):
        s = rng.choice(pool)
        phi = rng.choice(formulas)
        sigma = rng.choice(s.frame.nodes)
        xs = universe_at(s, sigma)
        if not xs:
            continue
        x = rng.choice(xs)
        tau = rng.choice(up_set(s.frame, sigma))
        checked += 1
        if forces(s, sigma, phi, {"x": x}) and not forces(s, tau, phi, {"x": x}):
            bad.append(("monotonicity", render(phi), sigma, tau, x.label))

    cs = canonical_structure(chain(1))
    bot = cs.frame.bottom
    for phi in formulas:
        for a in universe_at(cs, bot):
            checked += 2
            if not forces(cs, bot, Or(phi, Not(phi)), {"x": a}):
                bad.append(("excluded middle", render(phi), a.label))
            if not forces(cs, bot, Implies(Not(Not(phi)), phi), {"x": a}):
                bad.append(("double negation", render(phi), a.label))

    note = ""
    if cfg is not None:
        f2 = chain(2)
        s0 = structure_from_sets(f2, (internal_nat(f2, 2),))
        s1 = def_step(s0, cfg)
        s2 = def_step(s1, cfg)
        for m, n in ((s0, s1), (s1, s2), (s0, s2)):
            checked += 1
            if not is_end_extension(m, n):
                bad.append(("end extension broken",))
            for phi in formulas:
                for x in universe_at(m, f2.bottom):
                    checked += 1
                    if not delta0_absolute(m, n, phi, {"x": x}):
                        bad.append(("absoluteness", render(phi), x.label))
    else:
        note = "absoluteness leg skipped at definability depth 0"
    return _result("semantic-battery", checked, bad, note=note)


def lemma_suite(
    tree_depth: int = 2,
    def_depth: int = 1,
    seed: int = 7,
    samples: int = 150,
) -> list[LemmaResult]:
    """The full battery of finitely checkable facts, on internally built
    fixtures.

    tree_depth scales the binary-tree rows (2 or 3); def_depth bounds the
    definability engine, with 0 reporting def-dependent rows as
    under-enumeration rather than failure; seed and samples drive the
    randomized monotonicity leg.  Row tags are stable across scales."""
    if tree_depth not in (2, 3):
        raise ValueError("tree_depth must be 2 or 3")
    if def_depth < 0:
        raise ValueError("def_depth must be >= 0")
    if samples < 0:
        raise ValueError("samples must be >= 0")
    rng = random.Random(seed)
    f = tree(tree_depth)
    cfg = DefConfig(formula_depth=def_depth) if def_depth >= 1 else None
    out: list[LemmaResult] = []
    if cfg is None:
        skip = "definability depth 0"
        for tag in _DEF_ROW_TAGS[:5]:
            out.append(LemmaResult(tag, "under-enumeration", 0, skip))
        out.append(_row_externalization(f))
        for tag in _DEF_ROW_TAGS[5:]:
            out.append(LemmaResult(tag, "under-enumeration", 0, skip))
    else:
        families = _family_sample(f, rng)
        out += _rows_towers(f, cfg) + _rows_families(f, cfg, families)
        xi, recovery = _rows_xi(f, cfg, tree_depth)
        out += [xi, _row_externalization(f), recovery, _row_staged_formula(cfg)]
    out.append(_row_fixpoints())
    out.append(_row_gap())
    out.append(_row_battery(cfg, rng, samples))
    return out
