"""Forcing semantics: equality, membership, persistence, decidability at
leaves, end extensions, and the structural predicates."""

import itertools
import random
import time

import pytest

from kripkelab import schema, semantics
from kripkelab.formula import enumerate_delta0, enumerate_pi, enumerate_sigma, Not, parse, render
from kripkelab.frame import (
    chain,
    fan,
    leaves,
    leq,
    linear_extension,
    parse_frame_spec,
    tree,
    up_set,
)
from kripkelab.construct import (
    empty_set,
    internal_nat,
    is_branch,
    monotone_t_families,
    one_sigma,
    p_hat,
)
from kripkelab.hierarchy import DefConfig, def_step, empty_structure, structure_from_sets
from kripkelab.schema import (
    build_template,
    CheckBounds,
    SchemaId,
    check_schema,
)
from kripkelab.semantics import (
    alive,
    delta0_absolute,
    EvalError,
    forced_equal,
    forced_member,
    forces,
    is_end_extension,
    is_ordinal,
    KripkeSet,
    universe_at,
)
from kripkelab.specfile import canonical_structure

from recursive_eq import oracle_equal, oracle_member
from reference_forces import reference_forces
from util import TOP_FIRST_DIAMOND


@pytest.fixture(scope="module")
def t2():
    return canonical_structure(tree(2))


def test_forced_equal_is_an_equivalence(t2):
    f = t2.frame
    for sigma in f.nodes:
        elems = universe_at(t2, sigma)
        for x in elems:
            assert forced_equal(f, sigma, x, x)
        for x, y in itertools.combinations(elems, 2):
            assert forced_equal(f, sigma, x, y) == forced_equal(f, sigma, y, x)
        for x, y, z in itertools.combinations(elems, 3):
            if forced_equal(f, sigma, x, y) and forced_equal(f, sigma, y, z):
                assert forced_equal(f, sigma, x, z)


def test_forced_relations_reject_a_set_dead_at_the_node(t2):
    f = t2.frame
    late, zero = KripkeSet(f, "0", {"0": ()}, "late"), t2.names["zero"]
    for relation in (forced_equal, forced_member):
        for x, y in ((late, zero), (zero, late)):
            with pytest.raises(ValueError, match="not alive"):
                relation(f, "e", x, y)


def test_sets_from_equal_but_separate_frames_are_rejected():
    # class labels are interned per frame object, so the same int can name
    # different classes on two equal frames
    s, other = canonical_structure(tree(2)), canonical_structure(tree(2))
    f, x, y = s.frame, s.names["one"], other.names["zero"]
    g = other.frame
    assert f is not g and (f.nodes, f.order) == (g.nodes, g.order)
    for relation in (forced_equal, forced_member):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="different frames"):
                relation(f, "e", a, b)
    phi = parse("#P = #P")
    with pytest.raises(ValueError, match="different frame"):
        forces(s, "e", phi, extra_names={"P": y})
    with pytest.raises(ValueError, match="different frame"):
        forces(s, "e", parse("v = v"), env={"v": y})
    with pytest.raises(ValueError, match="different frame"):
        template = build_template(SchemaId.SIGMA_REFLECTION, phi)
        forces(s, "e", template, extra_names={"P": y})


def _random_sets(f, rng, count):
    """Monotone Kripke sets built in order from sets built before, with
    random births and member choices that make many forced equalities."""
    built = [empty_set(f)]
    for k in range(count):
        birth = rng.choice(f.nodes)
        ext = {}
        for tau in linear_extension(f):
            if not leq(f, birth, tau):
                continue
            below = {m.uid: m for rho in ext if leq(f, rho, tau) for m in ext[rho]}
            for m in built:
                if m.uid not in below and alive(m, tau) and rng.random() < 0.25:
                    below[m.uid] = m
            ext[tau] = tuple(below.values())
        built.append(KripkeSet(f, birth, ext, f"r{k}"))
    return built


def _differences(f, sets):
    """Live pairs at every node where the labels and the recursive oracle
    disagree on forced equality or forced membership."""
    memo, bad, pairs = {}, [], 0
    for sigma in f.nodes:
        here = [x for x in sets if alive(x, sigma)]
        for x in here:
            for y in here:
                pairs += 1
                if forced_equal(f, sigma, x, y) != oracle_equal(f, memo, sigma, x, y):
                    bad.append(("=", sigma, x, y))
                if forced_member(f, sigma, x, y) != oracle_member(f, memo, sigma, x, y):
                    bad.append(("in", sigma, x, y))
    return pairs, bad


@pytest.mark.parametrize(
    "make",
    [
        lambda: chain(3),
        lambda: chain(6),
        lambda: fan(3),
        lambda: tree(2),
        lambda: tree(3),
        # a has two covers, b and d, and b's cover c lies above a as well
        lambda: parse_frame_spec("nodes: a b c d / order: a<b b<c a<c a<d"),
    ],
    ids=["chain3", "chain6", "fan3", "tree2", "tree3", "explicit"],
)
def test_class_labels_match_the_recursive_oracle(make):
    for seed in range(3):
        f = make()
        pairs, bad = _differences(f, _random_sets(f, random.Random(seed), 60))
        assert pairs and bad == []
    f = make()
    # one round already gives universes as large as the default four do
    s = def_step(canonical_structure(f), DefConfig(formula_depth=1))
    sets = {x.uid: x for tau in f.nodes for x in s.universe[tau]}
    pairs, bad = _differences(f, list(sets.values()))
    assert pairs and bad == []


def test_forced_equal_is_a_congruence_for_membership(t2):
    f = t2.frame
    for sigma in f.nodes:
        elems = universe_at(t2, sigma)
        for x, x2 in itertools.combinations(elems, 2):
            if not forced_equal(f, sigma, x, x2):
                continue
            for y in elems:
                assert forced_member(f, sigma, x, y) == forced_member(f, sigma, x2, y)
                assert forced_member(f, sigma, y, x) == forced_member(f, sigma, y, x2)


def test_no_forced_self_membership(t2):
    f = t2.frame
    for sigma in f.nodes:
        for x in universe_at(t2, sigma):
            assert not forced_member(f, sigma, x, x)


def test_equality_persists_upward(t2):
    f = t2.frame
    for sigma in f.nodes:
        for tau in up_set(f, sigma):
            for x, y in itertools.combinations(universe_at(t2, sigma), 2):
                if forced_equal(f, sigma, x, y):
                    assert forced_equal(f, tau, x, y)


def test_forcing_is_monotone(t2):
    f = t2.frame
    pool = enumerate_delta0(1, ("x", "y"))
    for sigma in f.nodes:
        elems = universe_at(t2, sigma)[:4]
        for tau in up_set(f, sigma):
            for phi in pool[:40]:
                for x in elems:
                    for y in elems[:2]:
                        env = {"x": x, "y": y}
                        if forces(t2, sigma, phi, env):
                            assert forces(t2, tau, phi, env)


def test_leaves_decide_everything(t2):
    f = t2.frame
    pool = enumerate_delta0(1, ("x",))
    for leaf in leaves(f):
        for x in universe_at(t2, leaf):
            for phi in pool[:60]:
                env = {"x": x}
                assert forces(t2, leaf, phi, env) or forces(t2, leaf, Not(phi), env)


def test_connective_clauses(t2):
    f = t2.frame
    zero, one = t2.names["zero"], t2.names["one"]
    env = {}
    names = {"zero": zero, "one": one}
    assert forces(t2, "e", parse("#zero in #one"), env, names)
    assert not forces(t2, "e", parse("#one in #zero"), env, names)
    assert forces(t2, "e", parse(r"(#zero in #one /\ ~(#one in #zero))"), env, names)
    assert forces(t2, "e", parse(r"(#one in #zero \/ #zero in #one)"), env, names)
    assert forces(t2, "e", parse("(#zero in #one -> #zero in #one)"), env, names)
    assert forces(t2, "e", parse("forall u in #one . u = #zero"), env, names)
    assert forces(t2, "e", parse("exists u in #one . u in #one"), env, names)
    assert not forces(t2, "e", parse("exists u in #zero . u = u"), env, names)


def test_delayed_one_collapse_depends_on_depth():
    # the marker born at an inner node never collapses to zero; at a leaf it does
    phi = parse("~(#one_0 = #zero)")
    s2 = canonical_structure(tree(2))
    s3 = canonical_structure(tree(3))
    assert not forces(s2, "e", phi, extra_names=s2.names)
    assert forces(s3, "e", phi, extra_names=s3.names)
    # at the dying leaf itself the marker is forced equal to zero
    f2 = s2.frame
    assert forced_equal(f2, "0", s2.names["one_0"], s2.names["zero"])
    assert not forced_equal(f2, "e", s2.names["one_0"], s2.names["zero"])


def test_eval_errors(t2):
    with pytest.raises(EvalError, match="unbound variable 'x'"):
        forces(t2, "e", parse("x = x"))
    with pytest.raises(EvalError, match="unknown parameter #nope"):
        forces(t2, "e", parse("#nope = #nope"))
    f = t2.frame
    late = KripkeSet(f, "0", {"0": ()}, "late")
    with pytest.raises(EvalError, match="parameter born at '0' is dead at '1'"):
        forces(t2, "1", parse("#a = #a"), extra_names={"a": late})


@pytest.mark.parametrize(
    "text, message",
    [
        ("#zero = #zero \\/ #late = #late", "parameter born at '0' is dead at 'e'"),
        ("#zero = #zero \\/ x = x", "unbound variable 'x'"),
        ("forall u in #zero . u = x", "unbound variable 'x'"),
    ],
    ids=["dead-disjunct", "unbound-disjunct", "unbound-body"],
)
def test_terms_are_checked_before_anything_is_forced(t2, text, message):
    # the left disjunct holds and #zero has no members, so no clause reads
    # the bad term; it is checked on entry all the same
    late = KripkeSet(t2.frame, "0", {"0": ()}, "late")
    with pytest.raises(EvalError, match=message):
        forces(t2, "e", parse(text), extra_names={"late": late})


def test_a_sentence_on_a_long_chain_is_forced_within_its_budget():
    # one mask per binding covers every node; a per-node memo overflowed
    # MEMO_CAP here and repeated its cone walks, taking 3.1 s on 2 cores
    s = canonical_structure(chain(128))
    phi = parse("forall a . forall b in a . b in a")
    start = time.perf_counter()
    assert forces(s, s.frame.bottom, phi)
    assert time.perf_counter() - start < 1.0


def test_a_long_chain_structure_is_built_within_its_budget():
    # each set's inclusion checks walk covering pairs, not whole up-sets:
    # over the full up-sets this build took 1.7-2.9 s on 2 cores
    f = chain(256)
    start = time.perf_counter()
    canonical_structure(f)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text", ["exists u . u = u", "forall u . u = u", "#zero = #zero"])
def test_forces_rejects_an_unknown_node(t2, text):
    with pytest.raises(ValueError, match="unknown node 'zz'"):
        forces(t2, "zz", parse(text))


def test_cached_verdict_does_not_outlive_the_parameter_it_read():
    # the body reads no parameter, so its memo key carries no uid for #P;
    # the whole formula reads #P, so its key must carry #P's uid
    s = canonical_structure(tree(2))
    phi = parse("exists a in #P . forall z in a . ~(z = z)")
    values = (s.names["one"], s.names["phat"])
    want = {
        (sigma, p.uid): reference_forces(s, sigma, phi, extra_names={"P": p})
        for sigma in s.frame.nodes
        for p in values
    }
    assert want["e", values[0].uid] and not want["e", values[1].uid]
    for order in (values, values[::-1]):
        for clear in (False, True):
            for p in order:
                for sigma in s.frame.nodes:
                    got = forces(s, sigma, phi, extra_names={"P": p})
                    assert got == want[sigma, p.uid], (sigma, p, clear)
                if clear:
                    s.frame.memo.clear()


def test_forces_rejects_a_formula_nested_too_deeply(t2):
    phi = parse("#zero = #zero")
    for _ in range(3000):
        phi = Not(phi)
    with pytest.raises(EvalError, match="to evaluate"):
        forces(t2, "e", phi)


def _memo_sweep(f):
    """Every schema at depth 1 with 2 parameters, and on tree(2) the
    branch-hood verdict of every family at every node."""
    s = canonical_structure(f)
    # s and es share the frame and so its one memo: one sentinel covers both
    f.memo["sentinel"] = None
    reports = [
        check_schema(s, schema, CheckBounds(formula_depth=1, max_params=2))
        for schema in SchemaId
    ]
    got = [(r.holds, r.counterexample, r.stats) for r in reports]
    if f.kind == "tree(2)":
        es = empty_structure(f)
        families = monotone_t_families(f)
        assert len(families) == 34
        q = p_hat(f)
        got.append([is_branch(es, sigma, b, q) for b in families for sigma in f.nodes])
    # the sentinel goes only when `forces` resets a memo
    return got, "sentinel" not in f.memo


@pytest.mark.parametrize("make", [lambda: tree(2), lambda: fan(3)], ids=["tree2", "fan3"])
def test_a_bounded_memo_changes_no_verdict(make, monkeypatch):
    # a fresh frame per sweep, so the second reads no verdict of the first
    want, _ = _memo_sweep(make())
    monkeypatch.setattr(semantics, "MEMO_CAP", 8)
    got, was_reset = _memo_sweep(make())
    assert got == want
    assert was_reset


def _reachable(table):
    """Every object a frame table reaches through dicts, tuples, lists and
    sets."""
    todo, out = [table], []
    while todo:
        obj = todo.pop()
        out.append(obj)
        if isinstance(obj, dict):
            todo.extend(obj)
            todo.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            todo.extend(obj)
    return out


def test_a_sweep_leaves_no_dropped_template_in_the_frame_tables(monkeypatch):
    # the sweep builds one template per swept formula and drops it after
    # forcing it; verdicts are keyed by formula serial, so no frame table
    # may keep a template alive
    built = []

    def build(schema_id, phi):
        built.append(build_template(schema_id, phi))
        return built[-1]

    monkeypatch.setattr(schema, "build_template", build)
    s = canonical_structure(chain(3))
    bounds = CheckBounds(formula_depth=1, max_params=2)
    report = check_schema(s, SchemaId.SIGMA_REFLECTION, bounds)
    assert report.stats["instances"] > 100
    assert len(built) > 20
    f, templates = s.frame, {id(t) for t in built}
    kept = [
        render(obj)
        for table in vars(f).values()
        if isinstance(table, dict)
        for obj in _reachable(table)
        if id(obj) in templates
    ]
    assert kept == []


def test_delta0_absolute_evaluates_the_n_side(monkeypatch):
    # the s0 -> s1 step of `_row_battery`'s absoluteness leg: both sides
    # share chain(2) and its memo, where bounded keys have no structure slot
    f = chain(2)
    s0 = structure_from_sets(f, (internal_nat(f, 2),))
    s1 = def_step(s0, DefConfig(formula_depth=1))
    evals, bindings, unevaluated = 0, 0, []
    real_body = semantics._body

    # each node's clause runs only on a memo miss; delta0_absolute forces
    # fresh copies of phi, so every clause is compiled while this is patched
    def counting_body(phi):
        body = real_body(phi)

        def counted(ctx, env, domain):
            nonlocal evals
            evals += ctx.uid == s1.uid
            return body(ctx, env, domain)

        return counted

    monkeypatch.setattr(semantics, "_body", counting_body)
    for phi in enumerate_delta0(1, ("x",)):
        for x in universe_at(s0, f.bottom):
            before = evals
            assert delta0_absolute(s0, s1, phi, {"x": x})
            bindings += 1
            if evals == before:
                unevaluated.append((render(phi), x))
    # one evaluation answers every node of a binding; each binding's n-side
    # verdicts are evaluated, none is read from s0's entries
    assert bindings == 60
    assert unevaluated == []


def _universe_sets(s):
    return tuple({x.uid: x for elems in s.universe.values() for x in elems}.values())


def test_no_verdict_leaks_between_structures_on_one_frame():
    # m and n share a frame but differ in their universe (n is a def_step of
    # m) and in what #p denotes; an unbounded verdict must be keyed by the
    # structure, and a bounded one by the structure's own #p
    base = canonical_structure(chain(3))
    f, big = base.frame, def_step(base, DefConfig(formula_depth=1))
    m = structure_from_sets(f, _universe_sets(base), {"p": base.names["one"]})
    n = structure_from_sets(f, _universe_sets(big), {"p": base.names["two"]})
    formulas = (parse("exists z . x in z"), parse("x in #p"))
    got = {}
    for sigma in f.nodes:
        for x in universe_at(m, sigma):
            for i, phi in enumerate(formulas):
                for s in ((m, n) if i else (n, m)):
                    verdict = forces(s, sigma, phi, {"x": x})
                    assert verdict == reference_forces(s, sigma, phi, {"x": x}), (sigma, x, phi)
                    got.setdefault((s.uid, i), []).append(verdict)
    # the test only bites if m and n disagree on each formula somewhere
    for i in range(len(formulas)):
        assert got[m.uid, i] != got[n.uid, i]


@pytest.mark.parametrize(
    "make",
    [lambda: tree(2), lambda: chain(3), lambda: fan(3), lambda: parse_frame_spec(TOP_FIRST_DIAMOND)],
    ids=["tree2", "chain3", "fan3", "diamond-top-first"],
)
def test_forces_agrees_with_the_memo_free_reference(make):
    # two structures share each frame, so they share the frame's memo; on
    # the diamond listed top first, a negation or a forall read at a sees d
    # only if the hits of b and c are complete first
    rng = random.Random(11)
    m = canonical_structure(make())
    f, n = m.frame, def_step(m, DefConfig(formula_depth=1))
    formulas = [
        phi
        for enum in (enumerate_delta0, enumerate_sigma, enumerate_pi)
        for phi in rng.sample(enum(1, ("x", "y"), ("p",)), 150)
    ]
    checked = 0
    for phi in formulas:
        for sigma in f.nodes:
            elems = universe_at(m, sigma)
            for _ in range(2):
                env = {"x": rng.choice(elems), "y": rng.choice(elems)}
                extra = {"p": rng.choice(elems)}
                for s in rng.sample((m, n), 2):
                    want = reference_forces(s, sigma, phi, env, extra)
                    assert forces(s, sigma, phi, env, extra) == want, (phi, sigma, env, extra)
                    checked += 1
    assert checked == 4 * len(formulas) * len(f.nodes)


def test_bounded_reference_verdicts_agree_along_def_steps():
    # the triple of `_row_battery`'s absoluteness leg, shown memo-free
    f = chain(2)
    cfg = DefConfig(formula_depth=1)
    s0 = structure_from_sets(f, (internal_nat(f, 2),))
    s1 = def_step(s0, cfg)
    s2 = def_step(s1, cfg)
    for m, n in ((s0, s1), (s1, s2), (s0, s2)):
        for phi in enumerate_delta0(1, ("x",)):
            for x in universe_at(m, f.bottom):
                for sigma in f.nodes:
                    want = reference_forces(m, sigma, phi, {"x": x})
                    assert reference_forces(n, sigma, phi, {"x": x}) == want, (phi, x, sigma)
                    assert forces(n, sigma, phi, {"x": x}) == want


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda f, z: KripkeSet(f, "0", {"e": (), "0": ()}), "cover exactly the cone of '0'"),
        (
            lambda f, z: KripkeSet(f, "e", {t: (empty_set(tree(2)),) for t in f.nodes}),
            "member belongs to a different frame",
        ),
        (
            lambda f, z: KripkeSet(f, "e", {t: (KripkeSet(f, "0", {"0": ()}),) for t in f.nodes}),
            "member born at '0' is not alive at 'e'",
        ),
        (
            lambda f, z: KripkeSet(f, "e", {"e": (z,), "0": (), "1": (z,)}),
            "from 'e' to '0'; transitions are inclusions",
        ),
        # shrinks are reported across a covering pair
        (lambda f, z: _on_chain3("02"), "from '0' to '1'; transitions are inclusions"),
        (lambda f, z: _on_chain3("01"), "from '1' to '2'; transitions are inclusions"),
    ],
    ids=["cone", "frame", "alive", "shrink", "shrink-at-a-gap", "shrink-above-birth"],
)
def test_kripke_set_rejects_a_malformed_extension(build, message):
    f = tree(2)
    with pytest.raises(ValueError, match=message):
        build(f, empty_set(f))


def _on_chain3(listed: str) -> KripkeSet:
    """A set born at '0' on chain(3) listing the empty set at `listed`."""
    f = chain(3)
    z = empty_set(f)
    return KripkeSet(f, "0", {tau: (z,) if tau in listed else () for tau in f.nodes})


@pytest.mark.parametrize(
    "universe, names, message",
    [
        (lambda z, one: {"0": (z,), "1": (z,)}, {}, "must assign a tuple to every node"),
        (
            lambda z, one: {"0": (KripkeSet(z.frame, "1", {"1": (), "2": ()}),), "1": (), "2": ()},
            {},
            "not alive at '0'",
        ),
        (lambda z, one: {"0": (z, z), "1": (z,), "2": (z,)}, {}, "duplicate universe element"),
        (
            lambda z, one: {"0": (z,), "1": (one,), "2": (z, one)},
            {},
            "universe at '1' is not membership-closed",
        ),
        (lambda z, one: {"0": (), "1": (z,), "2": ()}, {}, "universe shrinks from '1' to '2'"),
        (
            lambda z, one: {t: () for t in z.frame.nodes},
            {"zero": empty_set(chain(2))},
            "named set 'zero' lives on a different frame",
        ),
    ],
    ids=["missing-node", "dead", "duplicate", "not-closed", "shrink", "other-frame"],
)
def test_structure_rejects_a_malformed_universe(universe, names, message):
    f = chain(3)
    z, one = empty_set(f), internal_nat(f, 1)
    with pytest.raises(ValueError, match=message):
        semantics.Structure(frame=f, universe=universe(z, one), names=names)


def test_universes_grow_and_close(t2):
    f = t2.frame
    for sigma in f.nodes:
        for tau in up_set(f, sigma):
            here = {x.uid for x in universe_at(t2, sigma)}
            there = {x.uid for x in universe_at(t2, tau)}
            assert here <= there
        for x in universe_at(t2, sigma):
            assert alive(x, sigma)
            for m in x.ext[sigma]:
                assert m.uid in {u.uid for u in universe_at(t2, sigma)}


def test_end_extension_of_def_step():
    f = chain(2)
    base = structure_from_sets(f, (internal_nat(f, 2),))
    bigger = def_step(base, DefConfig(formula_depth=1))
    assert is_end_extension(base, bigger)
    # the reverse direction fails as soon as the step added anything new
    grew = any(
        len(universe_at(bigger, n)) > len(universe_at(base, n)) for n in f.nodes
    )
    assert grew and not is_end_extension(bigger, base)


def test_end_extension_demands_one_frame():
    a = structure_from_sets(chain(2), (internal_nat(chain(2), 1),))
    with pytest.raises(ValueError, match="different frames"):
        is_end_extension(a, structure_from_sets(chain(2), (internal_nat(chain(2), 1),)))


def test_delta0_absolute_rejects_unbounded(t2):
    with pytest.raises(ValueError, match="bounded"):
        delta0_absolute(t2, t2, parse("exists z . z = z"))


def test_delta0_absolute_along_def_step():
    f = tree(2)
    base = structure_from_sets(f, (internal_nat(f, 2), one_sigma(f, "0")))
    bigger = def_step(base, DefConfig(formula_depth=1))
    for phi in enumerate_delta0(1, ("x",))[:30]:
        for a in universe_at(base, f.bottom):
            assert delta0_absolute(base, bigger, phi, {"x": a})


def test_is_ordinal(t2):
    f = t2.frame
    assert is_ordinal(t2, t2.names["two"])
    assert is_ordinal(t2, t2.names["zero"])
    assert is_ordinal(t2, t2.names["one_0"])
    one = t2.names["one"]
    s1 = KripkeSet(f, "e", {n: (one,) for n in f.nodes}, "s1")
    ss = KripkeSet(f, "e", {n: (s1,) for n in f.nodes}, "ss")
    probe = structure_from_sets(f, (ss,))
    assert not is_ordinal(probe, ss)
