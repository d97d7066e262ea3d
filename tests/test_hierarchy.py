"""Definability step, towers, internal power sets, and positive fixed points."""

import itertools
import random
import time
from pathlib import Path

import pytest

from kripkelab.construct import empty_set, internal_nat, one_sigma
from kripkelab.formula import parse
from kripkelab.frame import chain, fan, tree, up_set
from kripkelab.hierarchy import (
    _Engine,
    _zone,
    HARVEST_CAP,
    constructible,
    DefConfig,
    def_along,
    def_step,
    define_subset,
    empty_structure,
    gamma_apply,
    gfp,
    harvest_at,
    hereditary_closure,
    iterate_def,
    lfp,
    powerset,
    structure_from_sets,
)
from kripkelab.semantics import (
    forced_equal,
    forced_member,
    forces,
    is_end_extension,
    KripkeSet,
    Structure,
    universe_at,
)
from kripkelab.specfile import canonical_structure, load_structure, uniformity_gap

import reference_harvest
from util import classes, find_class, same_classes


def test_def_config_validation():
    with pytest.raises(ValueError):
        DefConfig(formula_depth=0)


def test_hereditary_closure():
    f = chain(1)
    with pytest.raises(ValueError, match="at least one set"):
        hereditary_closure(())
    uni = hereditary_closure((internal_nat(f, 2),))
    # closing under membership pulls in both smaller numerals
    assert len(uni["0"]) == 3


def test_structure_from_sets_names():
    f = chain(1)
    two = internal_nat(f, 2)
    s = structure_from_sets(f, (two,), names={"two": two})
    assert s.names["two"] is two
    assert any(x is two for x in universe_at(s, "0"))


def test_empty_structure():
    f = tree(2)
    s = empty_structure(f)
    assert all(universe_at(s, n) == () for n in f.nodes)
    # one definability step over nothing yields exactly the empty set
    out = def_step(s, DefConfig(formula_depth=1))
    got = classes(f, "e", universe_at(out, "e"))
    assert len(got) == 1
    assert forced_equal(f, "e", got[0], empty_set(f))


def test_def_step_is_an_end_extension():
    f = tree(2)
    base = structure_from_sets(f, (internal_nat(f, 2), one_sigma(f, "0")))
    out = def_step(base, DefConfig(formula_depth=1))
    assert is_end_extension(base, out)
    assert out.meta.get("stabilized") in (True, False)


def test_def_step_matches_powerset_on_a_point():
    # over the two-element universe every definable subset is literal
    f = chain(1)
    base = structure_from_sets(f, (internal_nat(f, 1),))
    stepped = def_step(base, DefConfig(formula_depth=2))
    ps = powerset(base)
    assert len(classes(f, "0", universe_at(stepped, "0"))) == 4
    assert len(classes(f, "0", universe_at(ps, "0"))) == 4
    assert same_classes(f, "0", universe_at(stepped, "0"), universe_at(ps, "0"))
    zero, one = empty_set(f), internal_nat(f, 1)
    singleton_one = KripkeSet(f, "0", {"0": (one,)}, "s1")
    two = internal_nat(f, 2)
    for target in (zero, one, singleton_one, two):
        assert find_class(f, "0", universe_at(stepped, "0"), target) is not None


def test_iterate_def_validation_and_growth():
    f = chain(1)
    base = structure_from_sets(f, (internal_nat(f, 1),))
    with pytest.raises(ValueError):
        iterate_def(base, -1)
    cfg = DefConfig(formula_depth=1)
    sizes = [len(universe_at(iterate_def(base, k, cfg), "0")) for k in range(3)]
    assert sizes[0] <= sizes[1] <= sizes[2]
    assert is_end_extension(base, iterate_def(base, 2, cfg))


def test_def_along_is_cached():
    f = tree(2)
    x = one_sigma(f, "0")
    cfg = DefConfig(formula_depth=1)
    assert def_along(x, cfg) is def_along(x, cfg)


def test_harvests_and_towers_live_on_their_structures():
    f = tree(2)
    cfg = DefConfig(formula_depth=1)
    s = canonical_structure(f)
    x = one_sigma(f, "0")
    stepped = def_step(s, cfg)
    tower = def_along(x, cfg)
    assert harvest_at(s, "e", cfg) is harvest_at(s, "e", cfg)
    assert harvest_at(tower, "0", cfg) is harvest_at(tower, "0", cfg)
    assert def_along(x, cfg) is tower
    assert def_step(s, cfg).universe == stepped.universe
    assert set(f.caches) <= {"constructs"}


@pytest.mark.parametrize(
    "base, node, depth, expected",
    [
        # no limit is reached within two rounds
        (canonical_structure, "1", 2, (12, False, False)),
        # the pair pool reaches POOL_CAP while the unary pool holds 16 maps
        (canonical_structure, "1", 4, (12, True, False)),
        # more fresh sets than HARVEST_CAP
        (canonical_structure, "0", 1, (56, True, False)),
        # nothing new for QUIET_ROUNDS rounds
        (empty_structure, "0", 4, (1, False, True)),
    ],
    ids=["no-limit", "pair-pool-cap", "harvest-cap", "stabilized"],
)
def test_harvest_flags_name_the_limit_that_bit(base, node, depth, expected):
    born, truncated, stabilized = harvest_at(
        base(chain(2)), node, DefConfig(formula_depth=depth)
    )
    assert (len(born), truncated, stabilized) == expected


def _harvest_record(s, sigma, result):
    # born sets as member positions in s's universe, node by node, and flags
    born, truncated, stabilized = result
    cone = up_set(s.frame, sigma)
    where = {tau: {x.uid: i for i, x in enumerate(s.universe[tau])} for tau in cone}
    sets = tuple(
        tuple(tuple(where[tau][m.uid] for m in x.ext[tau]) for tau in cone) for x in born
    )
    return sets, truncated, stabilized


def _harvest_cases():
    """19 structures, each with the formula depths to harvest it at."""
    one = DefConfig(formula_depth=1)
    cases = []
    for f in (chain(2), chain(3), tree(2), fan(3)):
        canonical = canonical_structure(f)
        cases += [
            (canonical, (1, 2)),
            (def_step(canonical, one), (1, 2)),
            (iterate_def(empty_structure(f), 2, one), (1, 2)),
        ]
    # depth 4 reaches every limit of test_harvest_flags_name_the_limit_that_bit
    g = chain(2)
    cases += [(canonical_structure(g), (4,)), (empty_structure(g), (4,))]
    fixtures = sorted((Path(__file__).parent / "fixtures").glob("**/*.struct"))
    cases += [(uniformity_gap(), (1, 2))]
    cases += [(load_structure(str(p)), (1, 2)) for p in fixtures]
    return cases


def test_the_forced_zone_matches_the_up_set_walk():
    # the engine's zone map forces one sentence; the oracle walks up-sets
    bad, seen = 0, set()
    for s, _ in _harvest_cases():
        f = s.frame
        for sigma in f.nodes:
            cone = up_set(f, sigma)
            want = reference_harvest.zero_decidable_zone(s, cone)
            got = {tau: forces(s, tau, _zone()) for tau in cone}
            bad += got != want
            seen.update(got.values())
    # both values occur, so neither constant map passes
    assert not bad and seen == {True, False}


def test_harvests_match_the_full_closure_reference():
    t0 = time.monotonic()
    cases = _harvest_cases()
    bad, flags = [], set()
    for s, depths in cases:
        for depth in depths:
            cfg = DefConfig(formula_depth=depth)
            for sigma in s.frame.nodes:
                got = _harvest_record(s, sigma, harvest_at(s, sigma, cfg))
                want = _harvest_record(s, sigma, reference_harvest.harvest(s, sigma, cfg))
                flags.add(want[1:])
                if got != want:
                    bad.append((s.frame.kind, depth, sigma))
    assert not bad, bad[:5]
    assert flags == {(False, False), (True, False), (False, True)}
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0, f"runtime {elapsed:.1f}s exceeds the 20s budget"


@pytest.mark.parametrize(
    "frame, stop, full",
    [
        # the pool reaches HARVEST_CAP + 1 fresh maps during the round
        (lambda: chain(3), 64, 374),
        # the seeds alone hold 78 fresh maps: the round stops at its first
        (lambda: fan(3), 89, 1480),
    ],
    ids=["chain3", "fan3"],
)
def test_the_last_round_stops_once_its_harvest_is_decided(frame, stop, full):
    s = canonical_structure(frame())
    cfg = DefConfig(formula_depth=1)
    eng = _Engine(s, s.frame.bottom, cfg)
    pool = eng.run()
    assert len(pool) == stop
    assert len(pool) - len(eng.mem) >= HARVEST_CAP + 1
    assert (eng.truncated, eng.stabilized) == (True, False)
    maps = reference_harvest.closure(_Engine(s, s.frame.bottom, cfg))[0]
    assert len(maps) == full and maps[:stop] == pool


def test_harvests_are_shared_by_structures_that_agree_on_the_cone():
    f = tree(2)
    cfg = DefConfig(formula_depth=1)
    s = canonical_structure(f)
    same = Structure(frame=f, universe=dict(s.universe), names={})
    # an empty set born at node 1 changes the universes of its cone only
    late = KripkeSet(f, "1", {tau: () for tau in up_set(f, "1")}, "late")
    other = Structure(
        frame=f,
        universe={t: s.universe[t] + ((late,) if t in late.ext else ()) for t in f.nodes},
        names={},
    )
    for sigma in f.nodes:
        assert harvest_at(same, sigma, cfg) is harvest_at(s, sigma, cfg)
    assert harvest_at(other, "0", cfg) is harvest_at(s, "0", cfg)
    for sigma in ("e", "1"):
        assert harvest_at(other, sigma, cfg) is not harvest_at(s, sigma, cfg)


def test_constructible_numeral_stages():
    # L indexed by the numeral three over a single point: exactly the four
    # hereditarily finite sets reachable at depth two
    f = chain(1)
    three = internal_nat(f, 3)
    s = constructible(three, DefConfig(formula_depth=2))
    assert not s.meta.get("truncated")
    got = classes(f, "0", universe_at(s, "0"))
    assert len(got) == 4
    zero, one = empty_set(f), internal_nat(f, 1)
    singleton_one = KripkeSet(f, "0", {"0": (one,)}, "s1")
    two = internal_nat(f, 2)
    for target in (zero, one, singleton_one, two):
        assert find_class(f, "0", got, target) is not None


def test_constructible_rejects_non_ordinals():
    f = chain(1)
    one = internal_nat(f, 1)
    singleton_one = KripkeSet(f, "0", {"0": (one,)}, "s1")
    with pytest.raises(ValueError, match="internal ordinals"):
        constructible(singleton_one, DefConfig(formula_depth=1))


def test_powerset_growth_and_limit():
    f = chain(1)
    base = structure_from_sets(f, (internal_nat(f, 1),))
    assert len(universe_at(powerset(base), "0")) == 4
    with pytest.raises(ValueError, match="powerset too large"):
        # seventeen elements: 2^17 selections, over POWERSET_CAP
        powerset(structure_from_sets(f, (internal_nat(f, 16),)))
    g = chain(2)
    with pytest.raises(ValueError, match="powerset too large"):
        # eleven elements per node, 2^11 subsets each, but 3^11 monotone
        # selections from the bottom: each element is chosen at both
        # nodes, at the top only, or at neither
        powerset(structure_from_sets(g, (internal_nat(g, 10),)))


def test_define_subset_carves_pointwise():
    f = chain(1)
    base = structure_from_sets(f, (internal_nat(f, 2),))
    carved = define_subset(base, "0", parse("~(x = #z)"), extra_names={"z": empty_set(f)})
    members = carved.ext["0"]
    assert len(members) == 2
    assert all(not forced_equal(f, "0", m, empty_set(f)) for m in members)


def test_gamma_apply_validation():
    f = chain(1)
    three = internal_nat(f, 3)
    s = structure_from_sets(f, (three,))
    with pytest.raises(ValueError, match="not positive"):
        gamma_apply(s, three, parse("~(x in #Y)"), three)
    with pytest.raises(ValueError, match="selection variable"):
        gamma_apply(s, three, parse("#Y = #Y"), three)


def _subsets_of(x, f):
    elems = x.ext["0"]
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            yield KripkeSet(f, "0", {"0": combo}, "probe")


def test_lfp_is_least_among_prefixed_points():
    f = chain(1)
    three = internal_nat(f, 3)
    s = structure_from_sets(f, (three,))
    psi = parse(r"(x = #zero \/ exists w in #Y . w in x)")
    # seed the parameter #zero through the operator's own environment
    s = structure_from_sets(f, (three,), names={"zero": empty_set(f)})
    fix, trace = lfp(s, three, psi)
    # closure reached: applying the operator once more moves nothing
    again = gamma_apply(s, three, psi, fix)
    assert same_classes(f, "0", fix.ext["0"], again.ext["0"])
    assert trace[-1] is fix and trace[0].ext["0"] == ()
    # the trace climbs by inclusion
    for lo, hi in zip(trace, trace[1:]):
        assert set(m.uid for m in lo.ext["0"]) <= set(m.uid for m in hi.ext["0"])
    # least: every prefixed point contains it
    fix_uids = {m.uid for m in fix.ext["0"]}
    for cand in _subsets_of(three, f):
        out = gamma_apply(s, three, psi, cand)
        if {m.uid for m in out.ext["0"]} <= {m.uid for m in cand.ext["0"]}:
            assert fix_uids <= {m.uid for m in cand.ext["0"]}


def test_gfp_is_greatest_among_postfixed_points():
    f = chain(1)
    two = internal_nat(f, 2)
    s = structure_from_sets(f, (two,))
    psi = parse("exists w in #Y . w in x")
    fix, trace = gfp(s, two, psi)
    # only the empty subset survives hereditary shrinking here
    assert fix.ext["0"] == ()
    assert trace[0] is two
    for hi, lo in zip(trace, trace[1:]):
        assert {m.uid for m in lo.ext["0"]} <= {m.uid for m in hi.ext["0"]}
    for cand in _subsets_of(two, f):
        out = gamma_apply(s, two, psi, cand)
        if {m.uid for m in cand.ext["0"]} <= {m.uid for m in out.ext["0"]}:
            assert {m.uid for m in cand.ext["0"]} <= {m.uid for m in fix.ext["0"]}


def _oracle_disagreements(s, sigma, rng, draws, params=None):
    """Compare the engine's cone operations with their definitions, walking
    `up_set` and locating elements by uid instead of by the run tables.  The
    binder domains of `params` randomly chosen parameters are checked, or of
    all of them."""
    f = s.frame
    eng = _Engine(s, sigma, DefConfig())
    cone = eng.cone
    where = {tau: {x.uid: i for i, x in enumerate(s.universe[tau])} for tau in cone}

    def blocks(m, arity):
        # the indices of a map's set bits, node by node
        return {
            tau: {i for i, c in enumerate(bin(eng.block(m, k, arity))[:1:-1]) if c == "1"}
            for k, tau in enumerate(cone)
        }

    def has(bits, tau, a, b=None):
        # the bit for one element, or for a pair (j-major), at tau
        w = where[tau]
        return (w[a.uid] if b is None else w[b.uid] * len(w) + w[a.uid]) in bits[tau]

    def build(keep, arity):
        # the set bits of the map holding exactly the elements or pairs `keep` accepts
        out = {}
        for tau in cone:
            u = s.universe[tau]
            cells = [(a,) for a in u] if arity == 1 else [(a, b) for b in u for a in u]
            out[tau] = {i for i, c in enumerate(cells) if keep(tau, *c)}
        return out

    def draw(arity):
        return rng.getrandbits(sum(len(where[tau]) ** arity for tau in cone))

    domains = [lambda a, tau: a.ext[tau], lambda a, tau: s.universe[tau]]
    domains += [lambda a, tau, p=p: p.ext[tau] for p in s.universe[sigma]]
    bad = 0
    for _ in range(draws):
        for arity in (1, 2):
            m1, m2 = draw(arity), draw(arity)
            b1, b2 = blocks(m1, arity), blocks(m2, arity)
            want = build(
                lambda tau, *c: all(not has(b1, r, *c) for r in up_set(f, tau)), arity
            )
            bad += blocks(eng.interior(m1, arity), arity) != want
            want = build(
                lambda tau, *c: all(
                    not has(b1, r, *c) or has(b2, r, *c) for r in up_set(f, tau)
                ),
                arity,
            )
            bad += blocks(eng.imp(m1, m2, arity), arity) != want
        m = draw(1)
        b = blocks(m, 1)
        for slot in (0, 1):
            want = build(lambda tau, a, c: has(b, tau, (a, c)[slot]), 2)
            bad += blocks(eng.lift(m, slot), 2) != want
        m2 = draw(2)
        b2 = blocks(m2, 2)
        checked = list(zip(eng.binders(), domains))
        if params is not None:
            checked[2:] = rng.sample(checked[2:], min(params, len(checked) - 2))
        for dom, members in checked:
            want = build(
                lambda tau, a: any(has(b2, tau, a, c) for c in members(a, tau)), 1
            )
            bad += blocks(eng.exists2(m2, dom), 1) != want
            want = build(
                lambda tau, a: all(
                    has(b2, r, a, c) for r in up_set(f, tau) for c in members(a, r)
                ),
                1,
            )
            bad += blocks(eng.forall2(m2, dom), 1) != want
    return bad


def test_engine_cone_operations_match_their_definitions():
    # two definability steps make position maps that are not the identity
    # between a node and the nodes above it, so the run tables cut there
    rng = random.Random(20261018)
    for f in (chain(3), fan(3), tree(2)):
        s = canonical_structure(f)
        two = def_step(def_step(s, DefConfig(formula_depth=1)), DefConfig(formula_depth=1))
        for sigma in f.nodes:
            assert _oracle_disagreements(s, sigma, rng, draws=4) == 0, (f.kind, sigma)
            bad = _oracle_disagreements(two, sigma, rng, draws=1, params=3)
            assert bad == 0, (f.kind, sigma, "two steps")


@pytest.mark.parametrize(
    "build",
    [
        lambda: canonical_structure(chain(3)),
        lambda: canonical_structure(fan(3)),
        lambda: canonical_structure(tree(2)),
        lambda: def_step(canonical_structure(tree(2)), DefConfig(formula_depth=1)),
    ],
    ids=["chain3", "fan3", "tree2", "def_step-tree2"],
)
def test_pair_atom_maps_match_the_forced_relations(build):
    # bit j * n + i of the pair maps at a cone node: `a in b`, `b in a` and
    # `a = b` with a the i-th and b the j-th universe element there
    s = build()
    f = s.frame
    bad = []
    for sigma in f.nodes:
        eng = _Engine(s, sigma, DefConfig())
        ins, has, eqs = eng.atom_maps()[4]
        for k, tau in enumerate(eng.cone):
            es = s.universe[tau]
            n = len(es)
            for (i, a), (j, b) in itertools.product(enumerate(es), repeat=2):
                got = tuple(
                    bool(eng.block(m, k, 2) >> j * n + i & 1) for m in (ins, has, eqs)
                )
                want = (
                    forced_member(f, tau, a, b),
                    forced_member(f, tau, b, a),
                    forced_equal(f, tau, a, b),
                )
                if got != want:
                    bad.append((sigma, tau, i, j, got, want))
    assert not bad, bad[:5]
