"""Definability step, towers, internal power sets, and positive fixed points."""

import itertools
import random
import time
from pathlib import Path

import pytest

from kripkelab import hierarchy
from kripkelab.construct import empty_set, internal_nat, one_sigma
from kripkelab.formula import parse
from kripkelab.frame import chain, fan, parse_frame_spec, tree, up_set
from kripkelab.hierarchy import (
    _Engine,
    _zone,
    HARVEST_CAP,
    POOL_CAP,
    constructible,
    DefConfig,
    def_along,
    def_step,
    define_subset,
    empty_structure,
    gamma_apply,
    gfp,
    harvest_at,
    iterate_def,
    lfp,
    powerset,
)
from kripkelab.semantics import (
    _Layout,
    forced_equal,
    forced_member,
    forces,
    hereditary_closure,
    is_end_extension,
    KripkeSet,
    Structure,
    structure_from_sets,
    universe_at,
)
from kripkelab.specfile import canonical_structure, load_structure, uniformity_gap

import reference_harvest
from util import (
    TOP_FIRST_DIAMOND,
    block,
    classes,
    find_class,
    harvest_classes,
    oracle_disagreements,
    same_classes,
)


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
    # harvests and towers live in the one construct pool
    assert {"harvest", "tower"} <= {key[0] for key in f.constructs}


@pytest.mark.parametrize(
    "base, node, depth, expected",
    [
        # no limit is reached within two rounds
        (canonical_structure, "1", 2, (12, False, False)),
        # the pair pool reaches POOL_CAP while the unary pool holds 16 maps
        (canonical_structure, "1", 4, (12, True, False)),
        # more fresh sets than HARVEST_CAP
        (canonical_structure, "0", 1, (56, True, False)),
        # a round adds nothing
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
    "frame, depth, stop, full",
    [
        # the pool reaches HARVEST_CAP + 1 fresh maps during the round
        (lambda: chain(3), 1, 64, 374),
        # the seeds alone hold 78 fresh maps: the round stops at its first
        (lambda: fan(3), 1, 89, 1480),
        # the first round decides the harvest; the rounds after it never run
        (lambda: chain(3), 3, 64, POOL_CAP),
        (lambda: fan(3), 2, 89, POOL_CAP),
    ],
    ids=["chain3", "fan3", "chain3-depth3", "fan3-depth2"],
)
def test_the_closure_stops_once_its_harvest_is_decided(frame, depth, stop, full):
    s = canonical_structure(frame())
    cfg = DefConfig(formula_depth=depth)
    eng = _Engine(s, s.frame.bottom, cfg)
    pool = eng.run()
    assert len(pool) == stop
    assert len(pool) - len(eng.mem) >= HARVEST_CAP + 1
    assert (eng.truncated, eng.stabilized) == (True, False)
    maps = reference_harvest.closure(s, s.frame.bottom, cfg)[0]
    assert len(maps) == full and maps[:stop] == pool


def test_the_first_quiet_round_ends_the_closure(monkeypatch):
    s = empty_structure(chain(2))
    cfg = DefConfig(formula_depth=4)
    calls = []
    connectives = _Engine.connectives

    def counted(self, pool, push, base, arity):
        calls.append(arity)
        connectives(self, pool, push, base, arity)

    monkeypatch.setattr(_Engine, "connectives", counted)
    eng = _Engine(s, "0", cfg)
    pool = eng.run()
    # each round calls connectives once per arity: one round ran, not two
    assert calls == [1, 2]
    want = reference_harvest.closure(s, "0", cfg)
    assert (pool, eng.truncated, eng.stabilized) == (want[0], *want[2:])
    assert (eng.truncated, eng.stabilized) == (False, True)


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_a_maximal_node_closes_like_the_full_closure(depth):
    # a one-node cone's pool stops at 2**c maps, c its classes; the
    # reference runs every round in full
    cfg = DefConfig(formula_depth=depth)
    seen, bad = [], []
    for spec in ("chain length=3", "fan width=3", "tree depth=3", "chain length=1"):
        s = canonical_structure(parse_frame_spec(spec))
        for sigma in s.frame.nodes:
            if up_set(s.frame, sigma) == (sigma,):
                eng = _Engine(s, sigma, cfg)
                pool = eng.run()
                want = reference_harvest.closure(s, sigma, cfg)
                seen.append((spec, sigma))
                if (pool, eng.truncated, eng.stabilized) != (want[0], *want[2:]):
                    bad.append((spec, sigma))
    assert len(seen) == 9 and not bad, bad


def test_a_full_pool_at_a_maximal_node_binds_nothing(monkeypatch):
    # leaf 00 of canonical tree(3) has 4 classes, and its pool holds all 16
    # of their unions before the binder loop runs
    pools, sizes = [], []
    bounded, exists2 = hierarchy._bounded_pool, _Engine.exists2

    def kept():
        out = bounded()
        pools.append(out[0])
        return out

    def counted(self, m2, dom):
        sizes.append(len(pools[0]))
        return exists2(self, m2, dom)

    monkeypatch.setattr(hierarchy, "_bounded_pool", kept)
    monkeypatch.setattr(_Engine, "exists2", counted)
    s = canonical_structure(tree(3))
    eng = _Engine(s, "00", DefConfig(formula_depth=1))
    pool = eng.run()
    assert len(eng.layout.same["00"]) == 4 and len(pool) == 16
    assert [n for n in sizes if n >= 16] == []


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
    eleven = structure_from_sets(g, (internal_nat(g, 10),))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="powerset too large"):
        # eleven elements per node, 2^11 subsets each, but 3^11 monotone
        # selections from the bottom: each element is chosen at both
        # nodes, at the top only, or at neither.  That product is counted
        # and refused before any selection is listed (listing the cap's
        # worth first took 0.22 s and 20 MB)
        powerset(eleven)
    assert time.perf_counter() - start < 0.05
    wide = structure_from_sets(f, (internal_nat(f, 40),))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="powerset too large"):
        # forty-one elements: at least 2^41 selections, refused before any
        # is listed (listing the cap's worth first took 0.33 s and 42 MB)
        powerset(wide)
    assert time.perf_counter() - start < 0.05


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


def test_gamma_apply_refuses_a_free_variable_beside_x():
    # a free variable Y is not the parameter #Y: it escapes the positivity
    # check, so a non-monotone operator would iterate forever in lfp and gfp
    f = chain(1)
    three = internal_nat(f, 3)
    s = structure_from_sets(f, (three,))
    for text in ("~(x in Y)", "x in Y"):
        with pytest.raises(ValueError, match="selection variable"):
            gamma_apply(s, three, parse(text), three)


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


def test_engine_cone_operations_match_their_definitions():
    # two definability steps make position maps that are not the identity
    # between a node and the nodes above it, so the run tables cut there
    # (one step on the diamond listed top first, whose run order is not
    # the reverse of its node order)
    rng = random.Random(20261018)
    diamond = parse_frame_spec(TOP_FIRST_DIAMOND)
    for f, steps in ((chain(3), 2), (fan(3), 2), (tree(2), 2), (diamond, 1)):
        s = stepped = canonical_structure(f)
        for _ in range(steps):
            stepped = def_step(stepped, DefConfig(formula_depth=1))
        for sigma in f.nodes:
            assert oracle_disagreements(s, sigma, rng, draws=4) == 0, (f.kind, sigma)
            bad = oracle_disagreements(stepped, sigma, rng, draws=1, params=3)
            assert bad == 0, (f.kind, sigma, steps, "steps")


def test_lifts_on_a_long_chain_stay_within_their_budget():
    # the bottom engine of canonical chain(64) has 4,480 positions and
    # 313,600 pair bits; a lift builds each node's pair bits on their own
    # and places them once (the engine oracle above checks the values)
    s = canonical_structure(chain(64))
    rng = random.Random(64)
    t0 = time.monotonic()
    eng = _Engine(s, s.frame.bottom, DefConfig())
    for _ in range(100):
        m = rng.getrandbits(eng.full[0].bit_length()) & eng.full[0]
        for slot in (0, 1):
            eng.layout.lift(m, 1 - slot)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds the 1s budget"


def test_a_definability_step_on_a_long_chain_stays_within_its_budget():
    s = canonical_structure(chain(32))
    start = time.perf_counter()
    out = def_step(s, DefConfig(1))
    elapsed = time.perf_counter() - start
    assert sum(map(len, out.universe.values())) == 4546 and out.meta["truncated"], out.meta
    assert elapsed < 5, elapsed


def test_lone_harvests_high_on_a_long_chain_stay_within_their_budget():
    s = canonical_structure(chain(64))
    start = time.perf_counter()
    got = [harvest_at(s, sigma, DefConfig(1)) for sigma in ("63", "48", "32")]
    elapsed = time.perf_counter() - start
    got = [(len(born), truncated, stabilized) for born, truncated, stabilized in got]
    assert got == [(12, False, False), (56, True, False), (56, True, False)], got
    assert elapsed < 10, elapsed


def test_the_engines_of_a_structure_share_one_layout_and_three_relations(monkeypatch):
    # every atom is cut from the three pair relations, which the structure's
    # one pair layout gives on the first harvest, so neither grows with the
    # number of birth nodes or of parameters, the universe at a birth node
    counts = dict.fromkeys(("engines", "layouts", "relations"), 0)

    def counted(name, method):
        def call(*args):
            counts[name] += 1
            return method(*args)

        return call

    monkeypatch.setattr(_Engine, "__init__", counted("engines", _Engine.__init__))
    monkeypatch.setattr(_Layout, "__init__", counted("layouts", _Layout.__init__))
    monkeypatch.setattr(_Layout, "relation", counted("relations", _Layout.relation))
    s = uniformity_gap()  # one element more at each spoke of the fan
    sizes = set()
    for sigma in s.frame.nodes:
        harvest_at(s, sigma, DefConfig(formula_depth=1))
        sizes.add(len(s.universe[sigma]))
    assert len(sizes) > 1
    assert counts == {"engines": len(s.frame.nodes), "layouts": 1, "relations": 3}


def test_an_empty_cone_harvests_the_empty_set_without_an_engine(monkeypatch):
    # a cone with no element has nothing to define but the empty set, born at
    # its node: the closure would seed the empty map alone and stop after one
    # quiet round
    engines = []
    init = _Engine.__init__

    def counted(self, s, sigma, cfg):
        engines.append(sigma)
        init(self, s, sigma, cfg)

    monkeypatch.setattr(_Engine, "__init__", counted)

    def late():
        # an empty set born at node 0: node 1's cone is empty, the root's not
        f = tree(2)
        return structure_from_sets(f, (KripkeSet(f, "0", {"0": ()}),))

    builds = (
        lambda: empty_structure(chain(3)),
        lambda: empty_structure(fan(3)),
        lambda: empty_structure(tree(2)),
        late,
    )
    empty_cones = 0
    for depth in (1, 2, 4):
        cfg = DefConfig(formula_depth=depth)
        for build in builds:
            s = build()  # a fresh frame, so that no harvest is interned yet
            for sigma in s.frame.nodes:
                empty = not any(s.universe[tau] for tau in up_set(s.frame, sigma))
                engines.clear()
                got = harvest_at(s, sigma, cfg)
                assert engines == ([] if empty else [sigma])
                assert harvest_classes(got) == harvest_classes(
                    reference_harvest.harvest(s, sigma, cfg)
                )
                if empty:
                    empty_cones += 1
                    (x,), truncated, stabilized = got
                    assert (x.label, x.birth, truncated, stabilized) == (
                        f"def{sigma}#0", sigma, False, True
                    )
                    assert not any(x.ext.values())
    # every node of the empty structures, and node 1 of the late one
    assert empty_cones == 3 * (3 + 4 + 3 + 1)


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
    # `a = b` with a the i-th and b the j-th universe element there; bit i
    # of a parameter p's maps: `a = p`, `a in p` and `p in a`, cut from the
    # pair maps; and of the fixed maps: true, `a in a` and the zone
    s = build()
    f = s.frame
    bad = []
    for sigma in f.nodes:
        eng = _Engine(s, sigma, DefConfig())
        eq, mem, has, fixed, pairs = eng.atom_maps()
        params = s.universe[sigma]
        # no map sets a bit outside the cone
        for m, full in [(m, eng.full[1]) for m in pairs] + [
            (m, eng.full[0]) for m in eq + mem + has + fixed
        ]:
            if m & ~full:
                bad.append((sigma, "outside the cone", m & ~full))
        for tau in eng.cone:
            es = s.universe[tau]
            n = len(es)
            zone = forces(s, tau, _zone())
            for (i, a), (j, b) in itertools.product(enumerate(es), repeat=2):
                got = tuple(bool(block(eng, m, tau, 2) >> j * n + i & 1) for m in pairs)
                want = (
                    forced_member(f, tau, a, b),
                    forced_member(f, tau, b, a),
                    forced_equal(f, tau, a, b),
                )
                if got != want:
                    bad.append((sigma, tau, i, j, got, want))
            for i, a in enumerate(es):
                got = [bool(block(eng, m, tau, 1) >> i & 1) for m in eq + mem + has + fixed]
                want = [forced_equal(f, tau, a, p) for p in params]
                want += [forced_member(f, tau, a, p) for p in params]
                want += [forced_member(f, tau, p, a) for p in params]
                want += [True, forced_member(f, tau, a, a), zone]
                if got != want:
                    bad.append((sigma, tau, i, got, want))
    assert not bad, bad[:5]
