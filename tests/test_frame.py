"""Finite frames: builders, order helpers, the frame-spec mini-language."""

import tracemalloc

import pytest

from kripkelab.frame import (
    build_frame,
    chain,
    dump_frame,
    fan,
    forest,
    FrameKind,
    leaves,
    leq,
    linear_extension,
    parse_frame_spec,
    tree,
    up_set,
)

import reference_frame
from util import TOP_FIRST_DIAMOND


def test_chain_shape():
    f = chain(3)
    assert f.nodes == ("0", "1", "2")
    assert f.bottom == "0"
    assert leq(f, "0", "2") and not leq(f, "2", "0")
    assert leaves(f) == ("2",)


def test_tree_shape():
    f = tree(2)
    assert set(f.nodes) == {"e", "0", "1"}
    assert f.bottom == "e"
    assert set(leaves(f)) == {"0", "1"}
    f3 = tree(3)
    assert len(f3.nodes) == 7
    assert set(leaves(f3)) == {"00", "01", "10", "11"}
    assert leq(f3, "0", "01") and not leq(f3, "0", "10")


def test_fan_shape():
    f = fan(3)
    assert f.bottom == "bot"
    assert set(leaves(f)) == {"1", "2", "3"}
    assert set(up_set(f, "1")).isdisjoint(up_set(f, "2"))


def test_forest_shape():
    f = forest(2, 2)
    assert f.bottom == "bb"
    assert set(f.nodes) == {"bb", "b", "1:e", "1:0", "1:1", "2:e", "2:0", "2:1"}
    assert leq(f, "bb", "b") and leq(f, "b", "1:e") and leq(f, "b", "2:1")
    assert set(up_set(f, "1:e")).isdisjoint(up_set(f, "2:e"))


def test_order_is_a_partial_order():
    f = tree(3)
    ns = f.nodes
    for a in ns:
        assert leq(f, a, a)
    for a in ns:
        for b in ns:
            if leq(f, a, b) and leq(f, b, a):
                assert a == b
            for c in ns:
                if leq(f, a, b) and leq(f, b, c):
                    assert leq(f, a, c)


def test_order_helpers_reject_an_unknown_node():
    f = tree(2)
    for a, b in (("zz", "e"), ("e", "zz")):
        with pytest.raises(ValueError, match="unknown node 'zz'"):
            leq(f, a, b)
    with pytest.raises(ValueError, match="unknown node 'zz'"):
        up_set(f, "zz")


def test_a_long_chain_builds_without_its_pairs():
    # the order of chain(1024) has 524,800 pairs, about 48 MB as tuples in
    # a frozenset; a build keeps one bit mask and one tuple of covers per node
    tracemalloc.start()
    try:
        f = chain(1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert leq(f, "3", "1000") and not leq(f, "1000", "3")


def test_up_set_and_bottom():
    f = tree(2)
    assert set(up_set(f, "e")) == set(f.nodes)
    assert up_set(f, "0") == ("0",)
    for n in f.nodes:
        assert leq(f, f.bottom, n)


@pytest.mark.parametrize(
    "spec,kind,size",
    [
        ("chain length=2", "chain(2)", 2),
        ("tree depth=3", "tree(3)", 7),
        ("fan width=4", "fan(4)", 5),
        ("forest copies=2 depth=2", "forest(2,2)", 8),
    ],
)
def test_parse_frame_spec_families(spec, kind, size):
    f = parse_frame_spec(spec)
    assert f.kind == kind
    assert len(f.nodes) == size


def test_parse_frame_spec_explicit():
    f = parse_frame_spec("nodes: a b c\norder: a<b a<c")
    assert f.bottom == "a"
    assert set(leaves(f)) == {"b", "c"}
    assert set(up_set(f, "b")).isdisjoint(up_set(f, "c"))


def test_parse_frame_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_frame_spec("pentagon size=5")
    with pytest.raises(ValueError):
        parse_frame_spec("chain length=0")
    # two minimal nodes: no bottom
    with pytest.raises(ValueError):
        parse_frame_spec("nodes: a b\norder:")
    with pytest.raises(ValueError):
        parse_frame_spec("nodes: a b\norder: a<b b<a")
    with pytest.raises(ValueError, match="'depth' given twice"):
        parse_frame_spec("tree depth=3 depth=2")


# Specs whose frames are compared field by field with the reference
# construction: every family at small sizes, a diamond listed bottom first
# and top first, a chain listed top first, an explicit spec with redundant
# and reflexive pairs, and a one-node spec.
REFERENCE_SPECS = (
    [f"chain length={n}" for n in (1, 2, 3, 5, 8)]
    + [f"tree depth={d}" for d in (1, 2, 3, 4)]
    + [f"fan width={w}" for w in (1, 2, 3, 5)]
    + [f"forest copies={c} depth={d}" for c in (1, 2, 3) for d in (1, 2, 3)]
    + [
        "nodes: a b c d / order: a<b a<c b<d c<d",
        TOP_FIRST_DIAMOND,
        "nodes: 3 2 1 0 / order: 0<1 1<2 2<3",
        "nodes: r s t u v / order: r<s s<t r<t r<r t<u r<u s<u v<v t<v",
        "nodes: solo",
    ]
)


@pytest.mark.parametrize("spec", REFERENCE_SPECS)
def test_frame_matches_the_reference_construction(spec):
    f = parse_frame_spec(spec)
    if spec.startswith("nodes:"):
        ref = reference_frame.reference_explicit(spec)
    else:
        name, *params = spec.split()
        sizes = tuple(int(p.split("=")[1]) for p in params)
        ref = reference_frame.reference_family(FrameKind(name, sizes))
    assert f.nodes == ref.nodes
    assert sorted(f.order) == sorted(ref.order)
    # `leq` reads one bit of the masks, not `order`
    assert [(a, b) for a in f.nodes for b in f.nodes if leq(f, a, b)] == [
        (a, b) for a in ref.nodes for b in ref.nodes if (a, b) in ref.order
    ]
    assert (f.bottom, f.kind) == (ref.bottom, ref.kind)
    assert all(up_set(f, n) == ref.up[n] for n in f.nodes)
    covers = reference_frame.covering_pairs(ref)
    assert f.succ == {a: tuple(b for b in ref.nodes if (a, b) in covers) for a in ref.nodes}
    assert linear_extension(f) == reference_frame.linear_extension(ref)
    assert leaves(f) == reference_frame.leaves(ref)
    assert dump_frame(f) == reference_frame.dump_frame(ref)


@pytest.mark.parametrize(
    "spec,fault",
    [
        ("nodes: a b / order: a<b b<a", "cycle through 'a' and 'b'"),
        ("nodes: a b / order: a<c", "unknown node in a<c"),
        ("nodes: a a", "duplicate node 'a'"),
        ("nodes: a b", "no bottom element"),
    ],
)
def test_explicit_spec_errors_name_the_fault(spec, fault):
    with pytest.raises(ValueError, match=fault) as exc:
        parse_frame_spec(spec)
    assert "\n" not in str(exc.value)


def test_build_frame_matches_helpers():
    f = build_frame(FrameKind("tree", (2,)))
    g = tree(2)
    assert f.nodes == g.nodes and f.order == g.order
    with pytest.raises(ValueError):
        FrameKind("pentagon", (5,))
    with pytest.raises(ValueError):
        FrameKind("chain", (0,))
    with pytest.raises(ValueError):
        FrameKind("forest", (2,))
    # sizes at the node limit pass; one node more is refused unbuilt
    FrameKind("fan", (1023,))
    FrameKind("forest", (2, 9))
    for name, sizes in [("chain", (1025,)), ("tree", (11,)), ("fan", (1024,)), ("forest", (1, 10))]:
        with pytest.raises(ValueError, match="more than 1024 nodes"):
            FrameKind(name, sizes)


@pytest.mark.parametrize(
    "make",
    [lambda: chain(2), lambda: tree(3), lambda: fan(3), lambda: forest(2, 2)],
)
def test_dump_frame_round_trips(make):
    f = make()
    g = parse_frame_spec(dump_frame(f))
    assert set(g.nodes) == set(f.nodes)
    assert g.bottom == f.bottom
    for a in f.nodes:
        for b in f.nodes:
            assert leq(f, a, b) == leq(g, a, b)
