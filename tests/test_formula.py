"""Formula AST, parser, renderer, and the syntactic classifiers."""

import time
import tracemalloc

import pytest

from kripkelab.formula import (
    And,
    classify,
    enumerate_delta0,
    enumerate_pi,
    enumerate_sigma,
    Eq,
    Exists,
    facts,
    Forall,
    formula_stream,
    free_vars,
    Implies,
    LAYER_CAP,
    is_delta0,
    is_positive_in,
    Member,
    Not,
    Or,
    Param,
    parse,
    ParseError,
    params_of,
    relativize,
    render,
    substitute,
    Var,
)

import recursive_facts
from reference_enumerate import reference_delta0, reference_unbounded
from reference_sweep import strictly_pi

ROUND_TRIP = [
    "x in y",
    "x = y",
    "~(x = #zero)",
    r"(x in y /\ y in z)",
    r"(x in y \/ ~(x = y))",
    "(x in y -> y in z)",
    "forall z in y . z in x",
    r"exists z in y . (z = x /\ z in #p)",
    "forall z . z in x",
    "exists z . (z in x -> x in z)",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_parse_render_round_trip(text):
    phi = parse(text)
    assert parse(render(phi)) == phi


def test_render_is_canonical():
    # rendering re-parses to the same tree even for nested connectives
    phi = Implies(And(Member(Var("x"), Var("y")), Not(Eq(Var("x"), Var("y")))),
                  Or(Member(Var("y"), Var("x")), Eq(Var("y"), Var("y"))))
    assert parse(render(phi)) == phi


def test_parser_precedence():
    phi = parse(r"~x = y -> x in y \/ x in y /\ x = x")
    assert isinstance(phi, Implies)
    assert isinstance(phi.left, Not)
    assert isinstance(phi.right, Or)
    assert isinstance(phi.right.right, And)


def test_parser_implies_right_associative():
    phi = parse("x = x -> x = y -> y = x")
    assert isinstance(phi, Implies)
    assert isinstance(phi.right, Implies)


def test_quantifier_scope_extends_right():
    phi = parse(r"forall z in x . z = z /\ x = x")
    assert isinstance(phi, Forall)
    assert isinstance(phi.body, And)


def test_parse_errors():
    for bad in ["", "x in", "x ==", "forall in . x = y", "(x in y", "x & y",
                "x = y y = x"]:
        with pytest.raises(ParseError):
            parse(bad)
    with pytest.raises(ParseError, match="keyword 'in' cannot be a term"):
        parse("in in x")


def test_free_vars_and_params():
    phi = parse(r"forall z in y . (z in x \/ z = #alpha)")
    assert free_vars(phi) == frozenset({"x", "y"})
    assert params_of(phi) == frozenset({"alpha"})
    assert free_vars(parse("exists z . z = z")) == frozenset()


def test_substitute_replaces_free_occurrences_only():
    phi = parse(r"(x in y /\ forall x in y . x = x)")
    out = substitute(phi, "x", Param("a"))
    assert render(out) == r"(#a in y) /\ (forall x in y . (x = x))"


def test_substitute_avoids_capture():
    # the bound z must be renamed before the incoming term z moves under it
    phi = Forall("z", Var("y"), Member(Var("x"), Var("z")))
    out = substitute(phi, "x", Var("z"))
    assert free_vars(out) == {"y", "z"}
    assert isinstance(out, Forall)
    assert out.var != "z"


def test_relativize_bounds_every_quantifier():
    phi = parse("forall z . exists w . z in w")
    out = relativize(phi, Param("D"))
    assert is_delta0(out)
    assert render(out) == "forall z in #D . (exists w in #D . (z in w))"


def test_classify_levels():
    assert classify(parse("x in y")) == "Delta0"
    assert classify(parse("forall z in x . z = z")) == "Delta0"
    assert classify(parse("exists z . z in x")) == "Sigma"
    assert classify(parse("forall z . z in x")) == "Pi"
    assert classify(parse("forall z . exists w . z in w")) == "General"
    assert is_delta0(parse("exists z . z in x")) is False


def test_is_positive_in():
    assert is_positive_in(parse("x in #Y"), "Y")
    assert is_positive_in(parse(r"(x in #Y \/ x = #zero)"), "Y")
    assert not is_positive_in(parse("~(x in #Y)"), "Y")
    assert not is_positive_in(parse("(x in #Y -> x = x)"), "Y")
    assert is_positive_in(parse("(x = #zero -> x in #Y)"), "Y")


def test_enumerate_delta0_stream():
    zero = enumerate_delta0(0, ("x", "y"))
    one = enumerate_delta0(1, ("x", "y"))
    assert len(zero) == 7
    # depth layers nest and stay duplicate-free
    assert [render(p) for p in one[: len(zero)]] == [render(p) for p in zero]
    seen = {render(p) for p in one}
    assert len(seen) == len(one)
    assert all(is_delta0(p) for p in one)
    assert all(free_vars(p) <= {"x", "y"} for p in one)
    with pytest.raises(ValueError):
        enumerate_delta0(-1)


def test_enumerate_delta0_params():
    phis = enumerate_delta0(0, ("x",), ("p",))
    assert any(params_of(p) == {"p"} for p in phis)


def test_enumerate_sigma_and_pi_wrappers():
    sig = enumerate_sigma(1, ("x",))
    pi = enumerate_pi(1, ("x",))
    assert any(classify(p) == "Sigma" for p in sig)
    assert any(classify(p) == "Pi" for p in pi)
    assert all(classify(p) in ("Delta0", "Sigma") for p in sig)
    assert all(classify(p) in ("Delta0", "Pi") for p in pi)


# depths 0-2 over four variable sets, with and without #p, at most two base
# terms at depth 2 (the 117,419-formula streams); depth 3 with no base terms,
# where the atoms of two bound variables meet; and the variables that
# `_unbounded` hands down
ENUM_CASES = [
    (d, v, p)
    for d in range(3)
    for v in ((), ("x",), ("a",), ("x", "y"))
    for p in ((), ("p",))
    if d < 2 or len(v) + len(p) <= 2
] + [(3, (), ()), (1, ("x", "y", "q"), ()), (1, ("x", "y", "q"), ("p",))]
ENUM_IDS = [f"d{d}-{''.join(v) or 'none'}{'-p' if p else ''}" for d, v, p in ENUM_CASES]


def _renders(phis):
    return [render(phi) for phi in phis]


@pytest.mark.parametrize("depth, variables, params", ENUM_CASES, ids=ENUM_IDS)
def test_enumerators_match_the_render_filtered_reference(depth, variables, params):
    # each enumerator lists a `formula_stream`, whose length is counted from
    # the operands of its last layer before that layer is built
    def listed(enum, kinds):
        phis = enum(depth, variables, params)
        assert formula_stream(depth, variables, params, kinds)[0] == len(phis)
        return _renders(phis)

    bounded = _renders(reference_delta0(depth, variables, params))
    assert listed(enumerate_delta0, (None,)) == bounded
    if "q" in variables:
        return  # the Sigma and Pi enumerators add q and refuse it as a variable
    for cls, enum in ((Exists, enumerate_sigma), (Forall, enumerate_pi)):
        wrapped = _renders(reference_unbounded(cls, depth, variables, params))
        assert listed(enum, (None, cls)) == bounded + wrapped
    pi = _renders(reference_unbounded(Forall, depth, variables, params))
    assert listed(strictly_pi, (Forall,)) == pi


def test_enumeration_sizes_pin_the_deep_cases():
    assert len(enumerate_delta0(2, ("x", "y"))) == 117419
    assert len(enumerate_delta0(2, ("x",), ("p",))) == 117419
    # keeping only newly met bound atoms as operands gives 1,116 here
    assert len(enumerate_delta0(3, ())) == 1344


def test_a_layer_past_the_cap_is_refused_before_it_is_built():
    # depth 4 over x lists the depth-3 layer, 11.6 million formulas (17 s
    # and 1.25 GB), before its first formula is read
    tracemalloc.start()
    t0 = time.monotonic()
    try:
        with pytest.raises(ValueError, match="depth-3 formula layer has 11,587,630 formulas"):
            formula_stream(4, ("x",))
        elapsed = time.monotonic() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 8 << 20
    with pytest.raises(ValueError, match="LAYER_CAP"):
        enumerate_pi(5, ("x",))


def test_the_last_layer_is_capped_too():
    # the depth-3 layer over x is the stream's last, lazy layer; it is
    # counted and refused before the stream is read
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="depth-3 formula layer has 11,587,630 formulas"):
        formula_stream(3, ("x",))
    assert time.monotonic() - t0 < 1.0
    assert len(enumerate_delta0(3, ())) == 1344


def test_the_layer_cap_admits_every_layer_a_depth_3_sweep_lists():
    # a depth-3 sweep lists up to its depth-2 layer, and x, y and #p are the
    # most base terms a sweep has; counted from its operands, not built
    widest = formula_stream(2, ("x", "y"), ("p",))[0] - formula_stream(1, ("x", "y"), ("p",))[0]
    assert widest == 1953770 <= LAYER_CAP


@pytest.mark.parametrize(
    "enum, variables, params",
    [
        (enumerate_delta0, ("x", "x"), ()),
        (enumerate_delta0, ("x",), ("p", "p")),
        (enumerate_delta0, ("z",), ()),
        (enumerate_delta0, ("x", "v1"), ()),
        (enumerate_sigma, ("q",), ()),
        (enumerate_pi, ("x", "q"), ("p",)),
    ],
)
def test_enumeration_rejects_names_that_would_repeat_a_term(enum, variables, params):
    with pytest.raises(ValueError):
        enum(1, variables, params)


def test_folded_facts_agree_with_the_recursive_walks():
    corpus = [
        phi
        for enum in (enumerate_delta0, enumerate_sigma, enumerate_pi)
        for phi in enum(1, ("x", "y"), ("p",))
    ]
    corpus += [parse(r"forall z in z . (exists x in #p . x in z) /\ x = #q")]
    bounds = [phi.bound for phi in corpus if isinstance(phi, (Forall, Exists))]
    assert any(isinstance(t, Var) for t in bounds)
    assert any(isinstance(t, Param) for t in bounds)
    disagreements = [
        render(phi)
        for phi in corpus
        for fold, walk in (
            (free_vars, recursive_facts.free_vars),
            (params_of, recursive_facts.params_of),
            (is_delta0, recursive_facts.is_delta0),
            (classify, recursive_facts.classify),
        )
        if fold(phi) != walk(phi)
    ]
    assert disagreements == []
    # a node's serial is its own: distinct nodes never share one, equal or not
    copies = [parse(render(phi)) for phi in corpus[:50]]
    serials = {facts(phi)[0] for phi in corpus + copies}
    assert len(serials) == len(corpus) + len(copies)
