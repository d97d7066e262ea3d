"""The lemma battery."""

import pytest

from kripkelab.lemmas import lemma_suite

EXPECTED_TAGS = [
    "tower-of-one-sigma",
    "def-step-of-tower",
    "zero-family-fixed-point",
    "nonzero-carve",
    "xi-ordinal-containment",
    "externalization-chains",
    "branch-recovery",
    "staged-collection-formula",
    "fixpoint-extremality",
    "uniformity-gap",
    "semantic-battery",
]


def test_lemma_suite_validation():
    with pytest.raises(ValueError):
        lemma_suite(tree_depth=4)
    with pytest.raises(ValueError):
        lemma_suite(def_depth=-1)
    with pytest.raises(ValueError):
        lemma_suite(samples=-5)


def test_lemma_suite_default_is_clean():
    rows = lemma_suite()
    assert [r.tag for r in rows] == EXPECTED_TAGS
    assert all(r.status == "holds" for r in rows)
    assert all(r.checked > 0 for r in rows)


def test_lemma_suite_depth_zero_degrades_honestly():
    rows = lemma_suite(def_depth=0, samples=40)
    by_tag = {r.tag: r for r in rows}
    assert [r.tag for r in rows] == EXPECTED_TAGS
    for tag in EXPECTED_TAGS:
        row = by_tag[tag]
        assert row.status in ("holds", "under-enumeration")
        if row.status == "under-enumeration":
            assert row.note == "definability depth 0"
    assert by_tag["externalization-chains"].status == "holds"
    assert by_tag["fixpoint-extremality"].status == "holds"
    assert by_tag["uniformity-gap"].status == "holds"
    battery = by_tag["semantic-battery"]
    assert battery.status == "holds"
    assert "absoluteness leg skipped at definability depth 0" in battery.note
