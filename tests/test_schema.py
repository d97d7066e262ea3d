"""Axiom-schema checkers and the three-way crosscheck."""

import itertools
import time

import pytest

from kripkelab import schema as schema_module, semantics
from kripkelab.construct import powerset
from kripkelab.formula import (
    Forall,
    Implies,
    Not,
    Param,
    Var,
    classify,
    enumerate_pi,
    params_of,
    parse,
    render,
    substitute,
)
from kripkelab.frame import chain, fan, leaves, tree
from kripkelab.hierarchy import def_step, empty_structure
from kripkelab.schema import (
    _scope,
    _stream,
    build_template,
    check_schema,
    CheckBounds,
    CheckReport,
    DesignatedInstance,
    EQUIVALENT_TRIO,
    proposition1_crosscheck,
    SchemaId,
)
from kripkelab.semantics import EvalError, KripkeSet, Structure, forces, structure_from_sets
from kripkelab.specfile import (
    build_structure,
    canonical_structure,
    load_structure,
    parse_structure_spec,
    uniformity_gap,
)

from reference_sweep import reference_check, strictly_pi


@pytest.fixture(scope="module")
def t2():
    return canonical_structure(tree(2))


def test_check_bounds_validation():
    with pytest.raises(ValueError):
        CheckBounds(formula_depth=-1)
    with pytest.raises(ValueError):
        CheckBounds(node_scope="everywhere")


def test_build_template_closes_the_formula():
    phi = parse("x in #A")
    tpl = build_template(SchemaId.DELTA0_COMPREHENSION, phi)
    assert "exists" in render(tpl) and "forall" in render(tpl)
    # axioms take no instance formula
    with pytest.raises(ValueError):
        build_template(SchemaId.PAIRING, phi)
    with pytest.raises(ValueError):
        build_template(SchemaId.DELTA0_COMPREHENSION, None)
    # unbounded instances are rejected for bounded schemas
    with pytest.raises(ValueError):
        build_template(SchemaId.DELTA0_COMPREHENSION, parse("exists q . q in x"))


# per schema with a formula slot: a formula of a class it refuses, and the
# two messages; `z in z` is bounded, so it fails on its stray variable alone
_REJECTIONS = [
    (
        SchemaId.DELTA0_COMPREHENSION,
        "exists q . q = q",
        "comprehension instances must be bounded formulas",
        "comprehension instances may mention x only",
    ),
    (
        SchemaId.DELTA0_BOUNDING,
        "exists q . q = q",
        "Delta0Bounding instances must be bounded formulas",
        "Delta0Bounding instances may mention x and y only",
    ),
    (
        SchemaId.DELTA0_UNIFORMITY,
        "exists q . q = q",
        "Delta0Uniformity instances must be bounded formulas",
        "Delta0Uniformity instances may mention x and y only",
    ),
    (
        SchemaId.PI_UNIFORMITY,
        "exists q . q = q",
        "PiUniformity instances must sit in the universal fragment",
        "PiUniformity instances may mention x and y only",
    ),
    (
        SchemaId.SIGMA_REFLECTION,
        "forall q . q = q",
        "reflection instances must sit in the existential fragment",
        "reflection instances must be sentences",
    ),
    (
        SchemaId.PI_PERSISTENCE,
        "exists q . q = q",
        "persistence instances must sit in the universal fragment",
        "persistence instances must be sentences",
    ),
    (SchemaId.EPSILON_INDUCTION, None, None, "induction instances may mention a only"),
    (
        SchemaId.PI2_REFLECTION,
        "exists q . q = q",
        "Pi2Reflection instances must be bounded formulas",
        "Pi2Reflection instances may mention x and y only",
    ),
]


@pytest.mark.parametrize(
    "schema, wrong_class, class_message, fv_message",
    _REJECTIONS,
    ids=[row[0].value for row in _REJECTIONS],
)
def test_instance_rejections_name_their_schema(schema, wrong_class, class_message, fv_message):
    # induction takes formulas of every class
    cases = [("z in z", fv_message)]
    if wrong_class is not None:
        cases.append((wrong_class, class_message))
    for text, message in cases:
        with pytest.raises(ValueError) as err:
            build_template(schema, parse(text))
        assert str(err.value) == message


@pytest.mark.parametrize(
    "depth, variables, params",
    [(d, ("x", "y"), ()) for d in range(3)] + [(d, ("x", "y"), ("p",)) for d in range(2)],
    ids=["d0", "d1", "d2", "d0p", "d1p"],
)
def test_strictly_pi_is_enumerate_pi_without_its_bounded_formulas(depth, variables, params):
    want = [phi for phi in enumerate_pi(depth, variables, params) if classify(phi) == "Pi"]
    assert [render(phi) for phi in strictly_pi(depth, variables, params)] == [
        render(phi) for phi in want
    ]


def test_check_schema_epsilon_induction_holds(t2):
    report = check_schema(t2, SchemaId.EPSILON_INDUCTION, CheckBounds(1, 1))
    assert isinstance(report, CheckReport)
    assert report.holds and report.counterexample is None
    assert report.stats["instances"] == 60
    assert report.stats["nodes"] == 3


def test_epsilon_induction_binds_a_over_a_around_phi_itself():
    phi = parse("forall z in a . z in a")
    hypothesis = build_template(SchemaId.EPSILON_INDUCTION, phi).left.body.left
    assert isinstance(hypothesis, Forall)
    assert hypothesis.var == "a" and hypothesis.bound == Var("a")
    assert hypothesis.body is phi


# induction formulas that bind `a` or `b` themselves
EPSILON_PHIS = [
    "forall b in a . forall z in b . z in a",
    "exists b in a . b = b",
    "forall b in a . exists a in b . ~(a = b)",
    "exists a . a in a",
    "(forall a in a . exists b in a . b = b) \\/ ~(exists b in a . b = b)",
]


def _substituted(phi):
    """Epsilon induction's instance with the hypothesis over a renamed copy."""
    hypothesis = Forall("b", Var("a"), substitute(phi, "a", Var("b")))
    return Implies(Forall("a", None, Implies(hypothesis, phi)), Forall("a", None, phi))


@pytest.mark.parametrize("text", EPSILON_PHIS)
def test_a_designated_epsilon_instance_binding_a_or_b_keeps_its_verdict(text):
    spec = parse_structure_spec(
        f'frame fan width=2\nx = nat 2\np = phat0\ndesignate EpsilonInduction phi="{text}"\n'
    )
    assert spec.designations[0].phi == text
    s = build_structure(spec)
    phi = parse(text)
    ours = build_template(SchemaId.EPSILON_INDUCTION, phi)
    theirs = _substituted(phi)
    # the hypothesis alone, at every node for every set alive there
    for sigma in s.frame.nodes:
        for x in s.universe[sigma]:
            env = {"a": x}
            assert forces(s, sigma, ours.left.body.left, env) == forces(
                s, sigma, theirs.left.body.left, env
            ), (sigma, x)
    # and the instance as `check` decides it: induction holds on these frames
    report = check_schema(s, SchemaId.EPSILON_INDUCTION, CheckBounds(0, 0))
    assert report.stats["designated"] == 1
    assert report.holds and all(forces(s, sigma, theirs) for sigma in s.frame.nodes)


def test_check_schema_pairing_fails_on_a_finite_universe(t2):
    report = check_schema(t2, SchemaId.PAIRING, CheckBounds(1, 1))
    assert not report.holds
    assert report.counterexample == ("Pairing", "", (), "e")


def test_designated_instances_come_first():
    gap = uniformity_gap()
    report = check_schema(gap, SchemaId.DELTA0_UNIFORMITY, CheckBounds(1, 1, "bottom"))
    assert not report.holds
    assert report.counterexample == (
        "Delta0Uniformity", "y in x", ("A=staged",), "bot"
    )
    assert report.note == "cofinal stage family"
    assert report.stats["designated"] >= 1


def test_a_designated_instance_at_a_node_where_its_parameter_is_dead_raises():
    # A is bound to a set born at node 1 of chain(2), and the instance pins
    # node 0, below its birth
    f = chain(2)
    late = KripkeSet(f, "1", {"1": ()}, "late")
    inst = DesignatedInstance(SchemaId.DELTA0_UNIFORMITY, "y in x", (("A", "late"),), "0")
    s = Structure(f, {"0": (), "1": (late,)}, {"late": late}, (inst,))
    with pytest.raises(EvalError, match="parameter born at '1' is dead at '0'"):
        check_schema(s, SchemaId.DELTA0_UNIFORMITY, CheckBounds(1, 1))


# a hand-built record is refused with the message a `designate` line gets,
# less the line prefix: (schema, phi, params, message)
REFUSED_DESIGNATIONS = {
    "axiom-with-phi": (SchemaId.PAIRING, "y in x", (), "Pairing takes no instance formula"),
    "axiom-with-key": (
        SchemaId.PAIRING, None, (("A", "W"),), "the template reads no parameter #A (it reads none)"
    ),
    "unread-key": (
        SchemaId.DELTA0_UNIFORMITY, "y in x", (("B", "W"),),
        "the template reads no parameter #B (it reads #A)",
    ),
    "unparsed-phi": (SchemaId.DELTA0_BOUNDING, "y in", (), "unexpected end of formula"),
    "deep-phi": (
        SchemaId.DELTA0_BOUNDING, " /\\ ".join(["y in x"] * 1000), (), "formula nests too deeply"
    ),
}


@pytest.mark.parametrize(
    "schema, phi, params, message", REFUSED_DESIGNATIONS.values(), ids=REFUSED_DESIGNATIONS.keys()
)
def test_a_hand_built_designation_is_refused_as_a_designate_line_is(schema, phi, params, message):
    with pytest.raises(ValueError) as built:
        DesignatedInstance(schema, phi, params)
    assert str(built.value) == message
    line = " ".join(
        ["designate", schema.value] + ([f'phi="{phi}"'] if phi is not None else [])
        + [f"{k}={v}" for k, v in params]
    )
    with pytest.raises(ValueError) as read:
        parse_structure_spec(f"frame chain length=1\nW = nat 2\n{line}\n")
    assert str(read.value) == f"line 3: designate {schema.value}: {built.value}"


def test_a_check_reads_the_formula_and_template_its_designation_keeps(monkeypatch):
    gap = uniformity_gap()

    def refuse(*args):
        raise AssertionError("parsed or built again")

    monkeypatch.setattr(schema_module, "parse", refuse)
    monkeypatch.setattr(schema_module, "build_template", refuse)
    report = check_schema(gap, SchemaId.DELTA0_UNIFORMITY, CheckBounds(1, 1, "bottom"))
    assert report.counterexample == ("Delta0Uniformity", "y in x", ("A=staged",), "bot")


def test_a_designation_naming_no_entry_is_refused_by_the_check():
    f = chain(2)
    inst = DesignatedInstance(SchemaId.DELTA0_UNIFORMITY, "y in x", (("A", "nope"),))
    s = Structure(f, {"0": (), "1": ()}, {}, (inst,))
    with pytest.raises(ValueError) as err:
        check_schema(s, SchemaId.DELTA0_UNIFORMITY)
    assert str(err.value) == "designated Delta0Uniformity instance names no entry 'nope'"


def test_a_designated_failure_ends_a_depth_two_sweep_within_its_budget():
    # the designated instance fails first, so no depth-2 formula is read;
    # building all 117,419 of them up front took 125-175 ms on 2 cores
    gap = uniformity_gap()
    start = time.perf_counter()
    report = check_schema(gap, SchemaId.DELTA0_UNIFORMITY, CheckBounds(2, 1, "bottom"))
    assert time.perf_counter() - start < 0.05
    assert report.stats["formulas"] == 117419
    assert report.stats["instances"] == 1


def _outcome(check, s, schema, bounds):
    try:
        r = check(s, schema, bounds)
    except ValueError as err:
        return type(err).__name__, str(err)
    return r.holds, r.counterexample, r.note, r.stats


def test_check_schema_matches_the_per_node_reference_sweep(fixtures_dir):
    # one mask per assignment and formula against one `forces` per node and
    # assignment over eager lists, on the benchmark's structures and bounds
    corpus = sorted((fixtures_dir / "corpus").glob("*.struct"))
    structures = [canonical_structure(f) for f in (tree(2), chain(3), fan(3))]
    structures += [load_structure(p) for p in corpus] + [uniformity_gap()]
    assert len(structures) == 7
    # plus V_2 over chain(2) and over fan(2), at depth 1
    wide = []
    for f in (chain(2), fan(2)):
        v = empty_structure(f)
        for _ in range(2):
            v = powerset(v)
        wide.append(v)
    cases = [
        (bounds, structures + (wide if bounds.formula_depth == 1 else []))
        for bounds in (CheckBounds(1, 1), CheckBounds(1, 2), CheckBounds(2, 1, "bottom"))
    ]
    # plus structures with an empty universe at some node, whose instances
    # there are counted, not forced: no set at all on chain(2), then one set
    # born at node 1 of chain(2) and one born at leaf 1 of fan(2)
    empty = [empty_structure(chain(2))] + [
        structure_from_sets(f, (KripkeSet(f, "1", {"1": ()}),)) for f in (chain(2), fan(2))
    ]
    cases += [
        (CheckBounds(*b), empty)
        for b in ((0, 0), (1, 0), (1, 1), (1, 2), (1, 2, "bottom"))
    ]
    # a sweep that raises compares by its error text
    disagreements = []
    for bounds, inputs in cases:
        for schema in SchemaId:
            for i, s in enumerate(inputs):
                got = _outcome(check_schema, s, schema, bounds)
                if got != _outcome(reference_check, s, schema, bounds):
                    disagreements.append((i, schema.value, bounds))
    assert disagreements == []


def _induction_structures(fixtures_dir):
    """The benchmark's seven structures, then V_2 over chain(2) and over
    fan(2)."""
    corpus = sorted((fixtures_dir / "corpus").glob("*.struct"))
    structures = [canonical_structure(f) for f in (tree(2), chain(3), fan(3))]
    structures += [load_structure(p) for p in corpus] + [uniformity_gap()]
    for f in (chain(2), fan(2)):
        v = empty_structure(f)
        for _ in range(2):
            v = powerset(v)
        structures.append(v)
    assert len(structures) == 9
    return structures


def test_members_come_before_their_sets(fixtures_dir):
    # the order that epsilon-induction's verdict rests on: a member is
    # built, and so numbered, before every set that lists it
    for s in _induction_structures(fixtures_dir):
        for tau, elems in s.universe.items():
            assert all(m.uid < x.uid for x in elems for m in x.ext[tau]), (s.frame.kind, tau)


def test_epsilon_induction_is_counted_as_the_reference_sweep_forces_it(fixtures_dir):
    # the count against one `forces` call per instance, at depths 0 and 1
    # with 0-2 parameters in both scopes; at depth 2 both raise on the
    # first formula that leaks a bound name
    structures = _induction_structures(fixtures_dir)
    bounds = [
        CheckBounds(d, p, scope)
        for d in (0, 1)
        for p in (0, 1, 2)
        for scope in ("all", "bottom")
    ]
    disagreements = []
    for b in bounds:
        for i, s in enumerate(structures):
            got = _outcome(check_schema, s, SchemaId.EPSILON_INDUCTION, b)
            want = _outcome(reference_check, s, SchemaId.EPSILON_INDUCTION, b)
            assert want[0] is True
            if got != want:
                disagreements.append((i, b))
    assert disagreements == []
    error = ("ValueError", "induction instances may mention a only")
    for s in structures[:2]:
        for b in (CheckBounds(2, 1, "bottom"), CheckBounds(2, 1)):
            assert _outcome(check_schema, s, SchemaId.EPSILON_INDUCTION, b) == error
            assert _outcome(reference_check, s, SchemaId.EPSILON_INDUCTION, b) == error


def test_epsilon_induction_forces_no_swept_instance(monkeypatch, fixtures_dir):
    # with no designated instance the check builds no sweep, layout or
    # fill and compiles nothing
    def refuse(*args, **kwargs):
        raise AssertionError("an epsilon-induction sweep forced something")

    structures = _induction_structures(fixtures_dir)
    want = [reference_check(s, SchemaId.EPSILON_INDUCTION, CheckBounds(1, 2)) for s in structures]
    for name in ("schema.Sweep", "schema.Fill", "semantics._Layout", "semantics._body"):
        monkeypatch.setattr(f"kripkelab.{name}", refuse)
    got = [check_schema(s, SchemaId.EPSILON_INDUCTION, CheckBounds(1, 2)) for s in structures]
    assert got == want
    assert all(r.holds and r.stats["designated"] == 0 for r in got)


def test_a_designated_induction_instance_is_still_forced():
    # one that holds is counted with the sweep; one whose parameter is dead
    # at its pinned node raises, as any designated instance does
    f = chain(2)
    late = KripkeSet(f, "1", {"1": ()}, "late")
    universe = {"0": (), "1": (late,)}
    held = DesignatedInstance(SchemaId.EPSILON_INDUCTION, "a in #p", (("p", "late"),), "1")
    s = Structure(f, universe, {"late": late}, (held,))
    report = check_schema(s, SchemaId.EPSILON_INDUCTION, CheckBounds(0, 0))
    assert report == reference_check(s, SchemaId.EPSILON_INDUCTION, CheckBounds(0, 0))
    assert report.holds and report.stats["designated"] == 1
    dead = DesignatedInstance(SchemaId.EPSILON_INDUCTION, "a in #p", (("p", "late"),), "0")
    s = Structure(f, universe, {"late": late}, (dead,))
    with pytest.raises(EvalError, match="parameter born at '1' is dead at '0'"):
        check_schema(s, SchemaId.EPSILON_INDUCTION, CheckBounds(1, 1))


def _nodes(formulas) -> set[int]:
    """The ids of the distinct formula nodes of the formulas."""
    seen, todo = set(), list(formulas)
    while todo:
        phi = todo.pop()
        if id(phi) not in seen and not isinstance(phi, (Var, Param)):
            seen.add(id(phi))
            todo += [getattr(phi, k) for k in ("left", "right", "body") if hasattr(phi, k)]
    return seen


def test_a_hole_template_is_compiled_once_per_check(monkeypatch):
    # each swept formula compiles its own new nodes only: the template is
    # built around a hole once per parameter shape and compiled once
    compiled = []
    real_body = semantics._body

    def body(phi):
        compiled.append(phi)
        return real_body(phi)

    monkeypatch.setattr(semantics, "_body", body)
    s, bounds = canonical_structure(chain(3)), CheckBounds(1, 2)
    report = check_schema(s, SchemaId.PI2_REFLECTION, bounds)
    # the swept formulas: the stream up to the failing one
    _, stream = _stream(SchemaId.PI2_REFLECTION, bounds)
    swept = []
    for phi in stream:
        swept.append(phi)
        if render(phi) == report.counterexample[1]:
            break
    shapes = {params_of(phi) for phi in swept}
    template = build_template(SchemaId.PI2_REFLECTION, parse("x in y"))
    assert len(swept) > 3 and len(shapes) == 2
    assert len(compiled) <= len(_nodes(swept)) + len(shapes) * len(_nodes([template]))


def test_gap_bounding_scope_contrast():
    # enlarging the universe along the fan outruns every internal bound, so
    # whole-frame scope fails while the bottom reading stays consistent
    gap = uniformity_gap()
    assert check_schema(gap, SchemaId.DELTA0_BOUNDING, CheckBounds(1, 1, "bottom")).holds
    assert not check_schema(gap, SchemaId.DELTA0_BOUNDING, CheckBounds(1, 1, "all")).holds


def test_check_all_covers_every_schema(t2):
    out = {schema: check_schema(t2, schema, CheckBounds(1, 0)) for schema in SchemaId}
    assert all(isinstance(r, CheckReport) for r in out.values())
    assert out[SchemaId.EMPTY_SET].holds
    assert not out[SchemaId.PAIRING].holds


def _agreement_sweep(s, bounds):
    """At a one-node cone the bounding form of an instance and the
    uniformity form of its negation are classically interchangeable, so
    their verdicts agree.  Compared at every leaf in scope, for every
    instance and parameter assignment that Delta0 bounding sweeps; returns
    the number of pairs and the mismatches."""
    bounding, uniformity = SchemaId.DELTA0_BOUNDING, SchemaId.DELTA0_UNIFORMITY
    nodes = [sigma for sigma in leaves(s.frame) if sigma in _scope(s, bounds)]
    pairs, mismatches = 0, []
    for phi in _stream(bounding, bounds)[1]:
        tb = build_template(bounding, phi)
        tu = build_template(uniformity, Not(phi))
        names = sorted(params_of(tb))
        for sigma in nodes:
            for values in itertools.product(s.universe[sigma], repeat=len(names)):
                assignment = dict(zip(names, values))
                pairs += 1
                b = forces(s, sigma, tb, extra_names=assignment)
                if b != forces(s, sigma, tu, extra_names=assignment):
                    mismatches.append((render(phi), assignment, sigma))
    return pairs, mismatches


def test_bounding_uniformity_agreement_counts(t2):
    c1 = canonical_structure(chain(1))
    assert _agreement_sweep(c1, CheckBounds(1, 1)) == (1323, [])
    assert _agreement_sweep(t2, CheckBounds(1, 1)) == (3402, [])


def test_bounding_uniformity_agreement_reads_params_and_scope():
    c1 = canonical_structure(chain(1))  # 7 elements at its one leaf
    # depth 0 over x and y: 7 atoms, each checked at every value of #A
    assert _agreement_sweep(c1, CheckBounds(0, 1))[0] == 7 * 7
    # with #p swept: 8 more atoms, each at every value of #A and of #p
    assert _agreement_sweep(c1, CheckBounds(0, 2)) == (7 * 7 + 8 * 7 * 7, [])
    # the bottom of chain(2) is not a leaf, so that scope holds no pair
    c2 = canonical_structure(chain(2))
    assert _agreement_sweep(c2, CheckBounds(0, 1, "bottom"))[0] == 0
    assert _agreement_sweep(c2, CheckBounds(0, 1, "all"))[0] == 7 * 8


def test_trio_and_base_listings():
    assert EQUIVALENT_TRIO == (
        SchemaId.PI_PERSISTENCE,
        SchemaId.PI_UNIFORMITY,
        SchemaId.DELTA0_UNIFORMITY,
    )


def test_no_finite_structure_meets_the_base_theory(fixtures_dir):
    # At a leaf forcing is classical over a finite well-founded universe: an
    # element of greatest rank lies in no set there, so Pairing fails, and
    # an empty universe fails Empty Set.  Hence prop1 has no base column.
    structs = [load_structure(p) for p in sorted(fixtures_dir.glob("**/*.struct"))]
    assert len(structs) == 4
    for f in (chain(3), tree(2), fan(3)):
        canon = canonical_structure(f)
        v1 = powerset(empty_structure(f))
        structs += [canon, def_step(canon), v1, powerset(v1)]
    pairing = build_template(SchemaId.PAIRING, None)
    empty_set = build_template(SchemaId.EMPTY_SET, None)
    for s in structs:
        for leaf in leaves(s.frame):
            axiom = pairing if s.universe[leaf] else empty_set
            assert not forces(s, leaf, axiom), (s.frame.kind, leaf)


def test_proposition1_crosscheck_rows(corpus_dir):
    structs = [load_structure(p) for p in sorted(corpus_dir.glob("*.struct"))]
    report = proposition1_crosscheck(structs, CheckBounds(1, 1))
    assert len(report.rows) == len(structs)
    assert report.agreements + report.disagreements == len(structs)
    for row in report.rows:
        assert [name for name, _ in row.trio] == [s.value for s in EQUIVALENT_TRIO]
        assert row.agreement == (len({h for _, h in row.trio}) == 1)
