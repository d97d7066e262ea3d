"""Acceptance suite: eleven finitely checkable claims, each with an exact
expected value, an independent oracle where one exists, and a runtime budget.

Every test times its own body, construction included, so the budgets hold
from a cold start.  Mismatch tolerances are never silent: where a finite
frame forces an artifact (a marker dying at a leaf), the artifact set is
predicted exactly and any deviation fails the test.
"""

import itertools
import random
import time

from kripkelab.construct import (
    _ChoiceTable,
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
from kripkelab.formula import enumerate_delta0, enumerate_pi, enumerate_sigma, parse
from kripkelab.frame import chain, forest, leaves, leq, linear_extension, tree, up_set
from kripkelab.hierarchy import constructible, def_along, def_step, DefConfig, empty_structure
from kripkelab.schema import check_schema, CheckBounds, SchemaId
from kripkelab.semantics import (
    delta0_absolute,
    forced_equal,
    forced_member,
    forces,
    is_end_extension,
    is_ordinal,
    KripkeSet,
    structure_from_sets,
    universe_at,
)
from kripkelab.specfile import (
    canonical_structure,
    dump_structure_spec,
    load_structure,
    parse_structure_spec,
    UNIFORMITY_GAP_TEXT,
    uniformity_gap,
)

from util import same_classes

CFG = DefConfig(formula_depth=1)


def _budget(t0: float, limit: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds the {limit:.0f}s budget"


def _constant_selection(f, members, tag):
    return subset_of_t(f, {tau: members for tau in f.nodes}, label=tag)


def test_criterion_01_tower_over_a_marker_reproduces_its_cone():
    t0 = time.monotonic()
    for f in (tree(2), tree(3)):
        zero = empty_set(f)
        for sigma in f.nodes:
            lx = def_along(one_sigma(f, sigma), CFG)
            assert not lx.meta.get("truncated")
            for tau in f.nodes:
                want = () if leq(f, tau, sigma) else (zero,)
                assert same_classes(f, tau, universe_at(lx, tau), want), (sigma, tau)
    _budget(t0, 1.0)


def test_criterion_02_one_step_adds_exactly_zero_and_the_marker():
    t0 = time.monotonic()
    for f in (tree(2), tree(3)):
        zero = empty_set(f)
        for sigma in f.nodes:
            one = one_sigma(f, sigma)
            lx = def_along(one, CFG)
            stepped = def_step(lx, CFG)
            assert not stepped.meta.get("truncated")
            for tau in f.nodes:
                want = universe_at(lx, tau) + (zero, one)
                assert same_classes(f, tau, universe_at(stepped, tau), want), (sigma, tau)
    _budget(t0, 1.0)


def test_criterion_03_zero_added_selections_are_tower_fixed_points():
    t0 = time.monotonic()
    f2 = tree(2)
    fam2 = t_family(f2)
    picks2 = [
        combo for r in range(len(fam2) + 1) for combo in itertools.combinations(fam2, r)
    ]
    assert len(picks2) == 8
    f3 = tree(3)
    fam3 = t_family(f3)
    all3 = [
        combo for r in range(len(fam3) + 1) for combo in itertools.combinations(fam3, r)
    ]
    assert len(all3) == 128
    picks3 = random.Random(11).sample(all3, 50)
    for f, picks in ((f2, picks2), (f3, picks3)):
        for i, members in enumerate(picks):
            that0 = with_zero(_constant_selection(f, members, f"sel{i}"))
            lx = def_along(that0, CFG)
            assert not lx.meta.get("truncated")
            for tau in f.nodes:
                assert same_classes(f, tau, universe_at(lx, tau), that0.ext[tau]), (
                    f.kind, i, tau,
                )
    _budget(t0, 30.0)


def test_criterion_04_nonzero_carve_recovers_the_selection():
    t0 = time.monotonic()
    f = tree(2)
    zero = empty_set(f)
    fam = t_family(f)
    nonzero = parse("~(x = #zero)")
    for i, members in enumerate(
        combo for r in range(len(fam) + 1) for combo in itertools.combinations(fam, r)
    ):
        sel = _constant_selection(f, members, f"sel{i}")
        lx = def_along(with_zero(sel), CFG)
        carved = define_subset(lx, f.bottom, nonzero, {"zero": zero})
        chosen = {m.uid for m in members}
        dying = [l for l in leaves(f) if one_sigma(f, l).uid in chosen]
        for tau in f.nodes:
            mismatch = not same_classes(f, tau, carved.ext[tau], sel.ext[tau])
            # the carve loses exactly the markers that die: below a chosen
            # leaf the claim is undecided there, so those nodes must differ
            assert mismatch == any(leq(f, tau, l) for l in dying), (i, tau)
    _budget(t0, 1.0)


def test_criterion_05_staged_collections_make_ordinals_containing_inputs():
    t0 = time.monotonic()
    f2 = tree(2)
    f3 = tree(3)
    collections = [
        (f2, tuple(branch_from_bits(f2, b) for b in ("0", "1"))),
        (f3, tuple(branch_from_bits(f3, b) for b in ("00", "11"))),
        (f3, tuple(branch_from_bits(f3, b) for b in ("00", "01", "10", "11"))),
    ]
    for f, branches in collections:
        staged = tuple(with_zero(b) for b in branches)
        xi = make_xi(staged)
        probe = structure_from_sets(f, (xi,))
        assert is_ordinal(probe, xi)
        lx = constructible(xi, CFG)
        bottom = universe_at(lx, f.bottom)
        for b in staged:
            assert any(forced_equal(f, f.bottom, b, u) for u in bottom), b.label
    # staging is what buys ordinal-hood: the raw collection fails
    raw = make_xi(tuple(branch_from_bits(f3, b) for b in ("00", "11")))
    assert not is_ordinal(structure_from_sets(f3, (raw,)), raw)
    _budget(t0, 5.0)


def test_criterion_06_branch_hood_matches_externalized_chains():
    t0 = time.monotonic()

    def maximal_cone_chain(f, tau, picked):
        nodes = set(picked)
        if tau not in nodes:
            return False
        for a in nodes:
            for b in nodes:
                if not (leq(f, a, b) or leq(f, b, a)):
                    return False
        for cand in up_set(f, tau):
            if cand in nodes:
                continue
            if all(leq(f, cand, b) or leq(f, b, cand) for b in nodes):
                return False
        return True

    def literal_families(f):
        # raw member subsets: one singleton group per delayed one, as `powerset` lists
        table = _ChoiceTable(f, {tau: tuple((m,) for m in t_family(f)) for tau in f.nodes})
        selections = table.selections(linear_extension(f))
        return tuple(KripkeSet(f, f.bottom, e, f"lit{k}") for k, e in enumerate(selections))

    def sweep(families):
        f = families[0].frame
        es = empty_structure(f)
        q = p_hat(f)
        bottom_one = one_sigma(f, f.bottom)
        checked = 0
        for b in families:
            for sigma in f.nodes:
                checked += 1
                lhs = is_branch(es, sigma, b, q)
                rhs = forced_member(f, sigma, bottom_one, b) and all(
                    maximal_cone_chain(f, tau, externalize(f, b, tau))
                    for tau in up_set(f, sigma)
                )
                assert lhs == rhs, (f.kind, b.label, sigma)
        return len(families), checked

    # literal enumeration is feasible at depth 2 and calibrates the quotient
    n_lit, c_lit = sweep(literal_families(tree(2)))
    assert (n_lit, c_lit) == (125, 375)
    n_q2, _ = sweep(monotone_t_families(tree(2)))
    assert n_q2 == 34
    # at depth 3 the quotient carries the exhaustive claim
    n_q3, c_q3 = sweep(monotone_t_families(tree(3)))
    assert (n_q3, c_q3) == (8212, 57484)
    _budget(t0, 120.0)


def test_criterion_07_branches_are_recovered_exactly():
    t0 = time.monotonic()
    f = tree(3)
    branches = tuple(branch_from_bits(f, b) for b in ("00", "11"))
    staged = tuple(with_zero(b) for b in branches)
    # the engine may cap its enumeration here; recovery is judged against
    # the tower that was actually built, and must be exact on it
    lx = constructible(make_xi(staged), CFG)
    recovered = definable_branches(lx, p_hat(f))
    assert len(recovered) == 2
    assert same_classes(f, f.bottom, recovered, branches)
    assert not forced_equal(f, f.bottom, branches[0], branches[1])
    _budget(t0, 30.0)


def test_criterion_08_stage_formula_names_the_marked_collections():
    t0 = time.monotonic()
    ff = forest(2, 2)
    # the sweep is exhaustive over the tower as built; the frozen instance
    # count below keeps the run deterministic even under engine caps
    s = def_along(alpha_forest(ff, 3), CFG)
    phi = phi_xy()
    zero = empty_set(ff)
    extras = {"zero": zero, "one": internal_nat(ff, 1), "nats": internal_nat(ff, 3)}
    lv = leaves(ff)
    # the working bottom is the unique node above the root; the root only
    # forces the root marker to have collapsed by the time work starts
    anchor = "b"
    checked = agreed = certified = 0
    positive_at_anchor = 0
    for k in (1, 2):
        x = internal_nat(ff, k)
        ph = p_hat_sub(ff, k)
        for pi in up_set(ff, anchor):
            for y in universe_at(s, pi):
                checked += 1
                lhs = forces(s, pi, phi, {"x": x, "y": y}, extras)
                rhs = forced_member(ff, pi, y, ph)
                if lhs == rhs:
                    agreed += 1
                    if pi == anchor and lhs:
                        positive_at_anchor += 1
                    continue
                # a disagreement is admissible only for a set that dies at
                # some reachable leaf, where membership outlives the formula
                assert any(
                    forced_equal(ff, l, y, zero) for l in lv if leq(ff, pi, l)
                ), (k, pi, y.label, lhs)
                certified += 1
    assert checked == 2880
    assert certified == 72 and agreed == checked - certified
    assert positive_at_anchor > 0
    _budget(t0, 120.0)


def test_criterion_09_fixed_points_are_extremal():
    t0 = time.monotonic()
    f = chain(1)
    bot = f.bottom
    x = internal_nat(f, 4)
    s = structure_from_sets(
        f, (x,), names={"zero": empty_set(f), "one": internal_nat(f, 1)}
    )
    texts = (
        "x in #Y",
        "x = x",
        "~(x = x)",
        "exists w in #Y . w in x",
        "forall w in x . w in #Y",
        "exists w in #Y . w = x",
        "exists w in #Y . x in w",
        r"(x = #zero \/ exists w in #Y . w in x)",
        r"(x = #one \/ forall w in x . w in #Y)",
        r"(x in #Y /\ ~(x = #zero))",
        r"(exists w in #Y . w in x) \/ (x in #Y)",
        r"forall w in x . (w in #Y \/ w = #zero)",
    )
    assert len(texts) >= 10
    base = x.ext[bot]
    assert len(base) == 4
    for text in texts:
        psi = parse(text)
        lo, lo_trace = lfp(s, x, psi)
        hi, hi_trace = gfp(s, x, psi)
        for fix in (lo, hi):
            image = gamma_apply(s, x, psi, fix)
            assert {m.uid for m in image.ext[bot]} == {m.uid for m in fix.ext[bot]}, text
        assert lo_trace[-1] is lo and hi_trace[-1] is hi
        lo_uid = {m.uid for m in lo.ext[bot]}
        hi_uid = {m.uid for m in hi.ext[bot]}
        for mask in range(1 << len(base)):
            sub = tuple(m for i, m in enumerate(base) if mask >> i & 1)
            cand = KripkeSet(f, bot, {bot: sub}, f"cand{mask}")
            cand_uid = {m.uid for m in sub}
            image = {m.uid for m in gamma_apply(s, x, psi, cand).ext[bot]}
            if image <= cand_uid:
                assert lo_uid <= cand_uid, (text, mask)
            if cand_uid <= image:
                assert cand_uid <= hi_uid, (text, mask)
    _budget(t0, 60.0)


def test_criterion_10_the_gap_fixture_separates_bounding_from_uniformity(fixtures_dir):
    t0 = time.monotonic()
    on_disk = (fixtures_dir / "uniformity_gap.struct").read_text(encoding="utf-8")
    assert on_disk == UNIFORMITY_GAP_TEXT
    assert dump_structure_spec(parse_structure_spec(on_disk)) == on_disk
    gap = uniformity_gap()
    bounds = CheckBounds(formula_depth=1, max_params=1, node_scope="bottom")
    bounding = check_schema(gap, SchemaId.DELTA0_BOUNDING, bounds)
    assert bounding.holds, bounding.counterexample
    assert bounding.stats["instances"] > 0
    uniformity = check_schema(gap, SchemaId.DELTA0_UNIFORMITY, bounds)
    assert not uniformity.holds
    assert uniformity.counterexample[:2] == ("Delta0Uniformity", "y in x")
    assert uniformity.note == "cofinal stage family"
    _budget(t0, 120.0)


def test_criterion_11_semantic_battery(corpus_dir):
    t0 = time.monotonic()

    # leg one: forcing persists along the order, one thousand sampled triples
    rng = random.Random(13)
    pool = [canonical_structure(tree(2)), canonical_structure(chain(3))]
    formulas = enumerate_delta0(1, ("x", "y"))
    done = 0
    while done < 1000:
        s = rng.choice(pool)
        f = s.frame
        sigma = rng.choice(f.nodes)
        xs = universe_at(s, sigma)
        if not xs:
            continue
        env = {"x": rng.choice(xs), "y": rng.choice(xs)}
        phi = rng.choice(formulas)
        tau = rng.choice(up_set(f, sigma))
        if forces(s, sigma, phi, env):
            assert forces(s, tau, phi, env), (phi, sigma, tau)
        done += 1

    # leg two: on a single node forcing collapses to classical truth,
    # checked against the independent digraph evaluator
    from tarski import digraph_of, tarski_eval

    one_pointers = [
        canonical_structure(chain(1)),
        constructible(internal_nat(chain(1), 3), DefConfig(formula_depth=2)),
    ]
    quantified = enumerate_sigma(1, ("x", "y")) + enumerate_pi(1, ("x", "y"))
    for s in one_pointers:
        bot = s.frame.bottom
        g, row = digraph_of(s, bot)
        elems = universe_at(s, bot)
        compared = 0
        for phi in formulas + quantified:
            for a in elems:
                for b in elems:
                    got = forces(s, bot, phi, {"x": a, "y": b})
                    want = tarski_eval(g, phi, {"x": row[a.uid], "y": row[b.uid]}, {})
                    assert got == want, (phi, a.label, b.label)
                    compared += 1
        assert compared == len(formulas + quantified) * len(elems) ** 2

    # leg three: bounded formulas keep their verdicts along every
    # definability extension built from the corpus
    sources = [load_structure(str(p)) for p in sorted(corpus_dir.glob("*.struct"))]
    sources.append(canonical_structure(tree(2)))
    unary = enumerate_delta0(1, ("x",))
    for base in sources:
        bigger = def_step(base, CFG)
        assert is_end_extension(base, bigger)
        for a in universe_at(base, base.frame.bottom):
            for phi in unary:
                assert delta0_absolute(base, bigger, phi, {"x": a}), (phi, a.label)
    _budget(t0, 120.0)
