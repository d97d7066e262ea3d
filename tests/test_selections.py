"""The monotone-selection enumerator behind `monotone_t_families` and
`powerset`: the same sequence as the per-family walk it replaced, member
tuples shared between selections, and choices produced only as read."""

import time
from itertools import islice

import pytest

from kripkelab.construct import (
    POWERSET_CAP,
    _ChoiceTable,
    internal_nat,
    monotone_t_families,
    t_classes_at,
    t_family,
)
from kripkelab.frame import chain, fan, leq, linear_extension, tree
from kripkelab.hierarchy import structure_from_sets
from kripkelab.specfile import canonical_structure

from reference_selections import reference_selections
from util import fresh_python

FRAMES = {"chain3": (chain, 3), "fan3": (fan, 3), "tree2": (tree, 2), "tree3": (tree, 3)}


def _groups(f, quotient):
    if quotient:
        return {tau: t_classes_at(f, tau) for tau in f.nodes}
    return {tau: tuple((m,) for m in t_family(f)) for tau in f.nodes}


def _listed(selections, limit=POWERSET_CAP + 1):
    # dict equality ignores key order, so compare the items in order
    return [list(ext.items()) for ext in islice(selections, limit)]


@pytest.mark.parametrize("quotient", [True, False], ids=["quotient", "literal"])
@pytest.mark.parametrize("frame", FRAMES, ids=list(FRAMES))
def test_selections_match_the_per_family_walk(frame, quotient):
    build, size = FRAMES[frame]
    f = build(size)
    groups, nodes = _groups(f, quotient), linear_extension(f)
    got = _listed(_ChoiceTable(f, groups).selections(nodes))
    assert got == _listed(reference_selections(f, nodes, groups))
    # literal tree(3) runs past the cap; every other enumeration is complete
    assert len(got) == {
        ("chain3", True): 40, ("fan3", True): 122, ("tree2", True): 34,
        ("tree3", True): 8212, ("chain3", False): 64, ("fan3", False): 6561,
        ("tree2", False): 125, ("tree3", False): POWERSET_CAP + 1,
    }[frame, quotient]


@pytest.mark.parametrize(
    "structure",
    [
        lambda: canonical_structure(tree(2)),
        lambda: canonical_structure(fan(3)),
        lambda: structure_from_sets(chain(2), (internal_nat(chain(2), 3),)),
    ],
    ids=["tree2", "fan3", "chain2-nat3"],
)
def test_powerset_cones_match_the_per_family_walk(structure):
    # powerset's groups are the singletons of the universe, one table for every cone
    s = structure()
    f = s.frame
    singletons = {tau: tuple((y,) for y in s.universe[tau]) for tau in f.nodes}
    table = _ChoiceTable(f, singletons)
    topo = linear_extension(f)
    for sigma in f.nodes:
        cone = [tau for tau in topo if leq(f, sigma, tau)]
        assert _listed(table.selections(cone)) == _listed(
            reference_selections(f, cone, singletons)
        ), sigma


def test_families_picking_the_same_members_share_one_tuple():
    f = tree(3)
    families = monotone_t_families(f)
    for tau in f.nodes:
        # tuples of sets compare member by member, and sets by identity
        first: dict[tuple, tuple] = {}
        for b in families:
            members = b.ext[tau]
            assert first.setdefault(members, members) is members, tau
        assert len(first) < len(families)
    # e.g. every family picking all the delayed ones at a leaf
    full = [b.ext["11"] for b in families if len(b.ext["11"]) == len(t_family(f))]
    assert len(full) > 1 and all(members is full[0] for members in full)


def test_tree3_families_build_within_their_budget():
    # the best of three fresh frames took 0.11 s on 2 cores (Python 3.11);
    # rebuilding each node's choices per family took 0.20-0.29 s
    best = float("inf")
    for _ in range(3):
        f = tree(3)
        start = time.perf_counter()
        families = monotone_t_families(f)
        best = min(best, time.perf_counter() - start)
    assert len(families) == 8212
    assert best < 0.25


def test_a_wide_node_is_refused_without_building_its_choices():
    # 41 elements at one node: 2^41 choices if the table were filled eagerly.
    # A child process bounds its memory and the test its time, so an eager
    # table fails here instead of stalling the run
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from kripkelab.construct import internal_nat\n"
        "from kripkelab.frame import chain\n"
        "from kripkelab.hierarchy import powerset, structure_from_sets\n"
        "f = chain(1)\n"
        "try:\n"
        "    powerset(structure_from_sets(f, (internal_nat(f, 40),)))\n"
        "except ValueError as err:\n"
        "    print(err)\n"
    )
    assert "powerset too large" in fresh_python("-c", code, timeout=30)
