"""Canonical building blocks: numerals, delayed ones, branch machinery,
staged collections, and forest helpers."""

import pytest

from kripkelab.construct import (
    alpha_forest,
    alpha_sub,
    branch_formula,
    branch_from_bits,
    empty_set,
    externalize,
    forest_copies,
    internal_nat,
    is_branch,
    make_xi,
    one_sigma,
    p_hat,
    p_hat_sub,
    phi_xy,
    subset_of_t,
    subtree_nodes,
    t_classes_at,
    t_family,
    tree_depth,
    with_zero,
)
from kripkelab.formula import free_vars, params_of
from kripkelab.frame import chain, forest, tree
from kripkelab.semantics import forced_equal, forced_member, is_ordinal, structure_from_sets

from util import classes, same_classes


def test_numerals_are_nested():
    f = chain(1)
    zero = empty_set(f)
    three = internal_nat(f, 3)
    members = three.ext["0"]
    assert len(classes(f, "0", members)) == 3
    for k in range(3):
        assert forced_member(f, "0", internal_nat(f, k), three)
    assert forced_equal(f, "0", internal_nat(f, 0), zero)
    assert internal_nat(f, 2) is internal_nat(f, 2)
    with pytest.raises(ValueError):
        internal_nat(f, -1)


def test_one_sigma_cone_pattern():
    f = tree(2)
    zero = empty_set(f)
    d0 = one_sigma(f, "0")
    assert d0.ext["e"] == () and d0.ext["0"] == ()
    assert len(d0.ext["1"]) == 1
    # dies exactly at its own leaf, stays undecided below
    assert forced_equal(f, "0", d0, zero)
    assert not forced_equal(f, "e", d0, zero)
    assert not forced_equal(f, "1", d0, zero)
    de = one_sigma(f, "e")
    assert not any(forced_equal(f, n, de, zero) for n in f.nodes)
    assert one_sigma(f, "0") is one_sigma(f, "0")


def test_t_family_sizes_and_distinctness():
    f2, f3 = tree(2), tree(3)
    assert len(t_family(f2)) == 3
    assert len(t_family(f3)) == 7
    # pairwise distinct at the root, where nothing has died yet
    fam = t_family(f3)
    assert len(classes(f3, "e", fam)) == 7


def test_t_classes_at_collapse_counts():
    f = tree(3)
    expect = {"e": 7, "0": 4, "1": 4, "00": 2, "01": 2, "10": 2, "11": 2}
    for tau, want in expect.items():
        assert len(t_classes_at(f, tau)) == want


def test_p_hat_collects_the_family():
    f = tree(2)
    q = p_hat(f)
    assert same_classes(f, "e", q.ext["e"], t_family(f))


def test_subset_of_t_rejects_outsiders():
    f = tree(2)
    with pytest.raises(ValueError, match="not one of the delayed ones"):
        subset_of_t(f, {n: (internal_nat(f, 1),) for n in f.nodes})


def test_with_zero_prepends_zero():
    f = tree(2)
    b = branch_from_bits(f, "0")
    staged = with_zero(b)
    assert forced_member(f, "e", empty_set(f), staged)
    for m in b.ext["e"]:
        assert forced_member(f, "e", m, staged)
    assert with_zero(b) is with_zero(b)


def test_make_xi_needs_input():
    with pytest.raises(ValueError, match="at least one set"):
        make_xi(())


def test_staged_xi_is_an_ordinal_raw_is_not():
    # without the added zero, membership-transitivity breaks at the first
    # interior node that sees a live marker, so depth 3 is the witness
    f = tree(3)
    plain = tuple(branch_from_bits(f, b) for b in ("00", "11"))
    staged = tuple(with_zero(b) for b in plain)
    xi = make_xi(staged)
    s = structure_from_sets(f, (xi,))
    assert is_ordinal(s, xi)
    raw = make_xi(plain)
    s2 = structure_from_sets(f, (raw,))
    assert not is_ordinal(s2, raw)


def test_tree_depth_guard():
    assert tree_depth(tree(3)) == 3
    with pytest.raises(ValueError, match="binary tree"):
        tree_depth(chain(2))


def test_branch_from_bits_shape():
    f = tree(3)
    b = branch_from_bits(f, "00")
    sizes = {tau: len(b.ext[tau]) for tau in f.nodes}
    assert sizes == {"e": 3, "0": 6, "1": 6, "00": 7, "01": 7, "10": 7, "11": 7}
    at_root = b.ext["e"]
    assert {m.uid for m in at_root} == {
        one_sigma(f, "e").uid, one_sigma(f, "0").uid, one_sigma(f, "00").uid
    }
    with pytest.raises(ValueError, match="bit string"):
        branch_from_bits(f, "0")
    with pytest.raises(ValueError, match="bit string"):
        branch_from_bits(f, "02")


def test_branch_formula_mentions_only_its_parameters():
    phi = branch_formula()
    assert free_vars(phi) == frozenset()
    assert params_of(phi) == {"B", "Q"}


def test_is_branch_and_witness():
    f = tree(3)
    q = p_hat(f)
    b = branch_from_bits(f, "00")
    s = structure_from_sets(f, (b, q))
    assert is_branch(s, "e", b, q)
    # the full collection is not linearly ordered below the leaves
    assert not is_branch(s, "e", q, q)


def test_externalize_reads_off_the_path():
    f = tree(3)
    b = branch_from_bits(f, "00")
    assert externalize(f, b, "e") == ("e", "0", "00")
    assert externalize(f, branch_from_bits(f, "11"), "e") == ("e", "1", "11")
    assert externalize(f, b, "00") == ("00",)


def test_forest_helpers():
    ff = forest(2, 2)
    assert forest_copies(ff) == 2
    assert subtree_nodes(ff, 1) == ("1:e", "1:0", "1:1")
    with pytest.raises(ValueError, match="needs a forest"):
        forest_copies(tree(2))
    with pytest.raises(ValueError, match="no subtree"):
        p_hat_sub(ff, 3)
    q1 = p_hat_sub(ff, 1)
    members = q1.ext["bb"]
    want = {one_sigma(ff, "bb").uid} | {one_sigma(ff, t).uid for t in subtree_nodes(ff, 1)}
    assert {m.uid for m in members} == want


def test_alpha_forest_staging():
    ff = forest(2, 2)
    with pytest.raises(ValueError, match="exceed the subtree count"):
        alpha_forest(ff, 2)
    alpha = alpha_forest(ff, 3)
    for j in range(3):
        assert forced_member(ff, "bb", internal_nat(ff, j), alpha)
    for t in t_family(ff):
        assert forced_member(ff, "bb", t, alpha)
    for c in (1, 2):
        assert forced_member(ff, "bb", alpha_sub(ff, c), alpha)
        assert forced_member(ff, "bb", with_zero(p_hat_sub(ff, c)), alpha)


def test_phi_xy_interface():
    phi = phi_xy()
    assert free_vars(phi) == {"x", "y"}
    assert params_of(phi) == {"zero", "one", "nats"}
