"""The lemma battery: finitely checkable facts about the paper's
constructions, each checked on fixtures built here.

Each row sweeps one fact over a small frame and reports it as a
`LemmaResult`: it holds, it fails with a first counterexample, or the
enumeration is too small to decide it (under-enumeration).  The rows read
every layer: towers and definability steps (`hierarchy`), the delayed ones,
branches, selections and fixed points (`construct`), the shipped fixtures
(`specfile`) and schema checks (`schema`).  So the battery is a module of
its own, and no sweep or check imports it; the `lemmas` subcommand does.
"""

from __future__ import annotations

import functools
import itertools
import random

from .construct import (
    alpha_forest,
    branch_from_bits,
    definable_branches,
    define_subset,
    empty_set,
    externalize,
    gamma_apply,
    gfp,
    internal_nat,
    is_branch,
    lfp,
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
from .formula import Formula, Implies, Not, Or, enumerate_delta0, parse, render
from .frame import Frame, _Record, chain, forest, leaves, leq, tree, up_set
from .hierarchy import DefConfig, constructible, def_along, def_step
from .schema import CheckBounds, SchemaId, check_schema
from .semantics import (
    KripkeSet,
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
from .specfile import canonical_structure, uniformity_gap


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
            if {class_at(x, tau) for x in lx.universe[tau]} != set(f.members[class_at(that0, tau)]):
                bad.append((i, tau))
            mismatch = f.members[class_at(carved, tau)] != f.members[class_at(sel, tau)]
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
