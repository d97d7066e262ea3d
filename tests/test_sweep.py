"""Sweep masks: every swept template forced once over a node block per
assignment.  Each block is checked against `forcing_mask` for its
assignment, and the binding generator's formulas against the memo-free
reference; plus empty universes, the frame memo a sweep leaves alone, a
tiny memo bound, and the time of a wide two-parameter sweep."""

import itertools
import math
import random
import time

import pytest

from kripkelab import semantics
from kripkelab.formula import Param, params_of, substitute
from kripkelab.frame import chain, fan, tree
from kripkelab.hierarchy import empty_structure, powerset
from kripkelab.schema import CheckBounds, SchemaId, _stream, build_template, check_schema
from kripkelab.semantics import KripkeSet, Sweep, forcing_mask, structure_from_sets
from kripkelab.specfile import canonical_structure, load_structure, uniformity_gap

from reference_forces import reference_forces
from reference_sweep import reference_check
from test_binding_forces import _Gen

# the formulas read per sweep, spread over the stream
FORMULAS_PER_SWEEP = 12


def _v(k, f):
    s = empty_structure(f)
    for _ in range(k):
        s = powerset(s)
    return s


def _structures(fixtures_dir):
    """The seven structures of the benchmark's schema sweeps, then V_2 over
    chain(2) and over fan(2)."""
    corpus = fixtures_dir / "corpus"
    return {
        "tree2": canonical_structure(tree(2)),
        "chain3": canonical_structure(chain(3)),
        "fan3": canonical_structure(fan(3)),
        "gap": load_structure(str(corpus / "gap.struct")),
        "level2": load_structure(str(corpus / "level2.struct")),
        "markers": load_structure(str(corpus / "markers.struct")),
        "uniformity_gap": uniformity_gap(),
        "V2-chain2": _v(2, chain(2)),
        "V2-fan2": _v(2, fan(2)),
    }


def _elements(s):
    return [x for x, _ in s.listing]


def _block(sweep, held, values, f):
    """The node mask of one assignment's block."""
    start = sweep.position(values, f.nodes[0]) - f.pos[f.nodes[0]]
    return held >> start & (1 << len(f.nodes)) - 1


def test_every_sweep_block_is_the_forcing_mask_of_its_assignment(fixtures_dir):
    blocks, swept = 0, set()
    for label, s in _structures(fixtures_dir).items():
        f, elems = s.frame, _elements(s)
        for schema, depth, params in itertools.product(SchemaId, (0, 1), (0, 1, 2)):
            count, formulas = _stream(schema, CheckBounds(depth, params))
            step = max(1, math.ceil(count / FORMULAS_PER_SWEEP))
            for phi in itertools.islice(formulas, 0, None, step):
                template = build_template(schema, phi)
                names = tuple(sorted(params_of(template)))
                sweep = Sweep(s, names)
                held = sweep.forcing_mask(template)
                swept.add(len(names))
                for values in itertools.product(elems, repeat=len(names)):
                    want = forcing_mask(s, template, None, dict(zip(names, values)))
                    got = _block(sweep, held, values, f)
                    assert got == want, (label, schema, depth, params, phi, values)
                    blocks += 1
                # no bit past the last block
                assert held >> len(elems) ** len(names) * len(f.nodes) == 0
    assert swept == {0, 1, 2}
    assert blocks > 10_000


def _generated_blocks(s, phi, names, env):
    """Check every block of a sweep over names against the reference at
    each node where all values are alive; elsewhere the bit must be 0."""
    f, elems = s.frame, _elements(s)
    sweep = Sweep(s, names)
    held = sweep.forcing_mask(phi, env)
    verdicts = []
    for values in itertools.product(elems, repeat=len(names)):
        got = _block(sweep, held, values, f)
        extra = dict(zip(names, values))
        for sigma in f.nodes:
            bit = got >> f.pos[sigma] & 1
            if all(sigma in x.ext for x in (*env.values(), *values)):
                want = reference_forces(s, sigma, phi, env, extra)
                assert bit == want, (f.kind, sigma, phi, names)
                verdicts.append(want)
            else:
                assert bit == 0
    return verdicts


@pytest.mark.parametrize("axes", [1, 2])
def test_binding_formulas_swept_agree_with_the_memo_free_reference(axes):
    # one axis: #p swept, x and y bound; two: x becomes the parameter #q
    # and is swept with #p, y bound
    rng = random.Random(11 + axes)
    formulas = _Gen(41).formulas(150)
    verdicts = []
    for s in (canonical_structure(chain(2)), _v(2, fan(2))):
        elems = _elements(s)
        for phi in formulas:
            env = {"x": rng.choice(elems), "y": rng.choice(elems)}
            names = ("p",)
            if axes == 2:
                phi, names = substitute(phi, "x", Param("q")), ("p", "q")
                del env["x"]
            verdicts += _generated_blocks(s, phi, names, env)
    assert len(verdicts) > 1000
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_sweeps_over_empty_universes_match_the_reference_sweep():
    # no element at all, so an axis has no value; and an element born
    # above the bottom, so the bottom has no assignment to read
    f = chain(2)
    late = structure_from_sets(f, (KripkeSet(f, "1", {"1": ()}),))
    for s in (empty_structure(chain(2)), late):
        for schema in SchemaId:
            for bounds in (CheckBounds(1, 1), CheckBounds(1, 2)):
                assert check_schema(s, schema, bounds) == reference_check(s, schema, bounds)


def test_a_sweep_leaves_the_frame_memo_as_it_found_it():
    # every comprehension template reads #A, so the whole check is swept
    s = _v(2, chain(2))
    assert not s.notes
    memo = s.frame.memo
    memo["sentinel"] = None
    before = dict(memo)
    report = check_schema(s, SchemaId.DELTA0_COMPREHENSION, CheckBounds(1, 2))
    assert report.holds and report.stats["instances"] > 1000
    assert memo == before and all(memo[k] is v for k, v in before.items())


def test_a_sweep_memo_bounded_small_changes_no_report(monkeypatch):
    s = canonical_structure(fan(3))
    bounds = CheckBounds(1, 2)
    want = [check_schema(s, sc, bounds) for sc in SchemaId]
    monkeypatch.setattr(semantics, "SWEEP_BITS", 64)
    assert [check_schema(s, sc, bounds) for sc in SchemaId] == want


def test_a_two_parameter_sweep_over_v3_stays_within_its_budget():
    # V_3 over fan(2) lists 73 elements at every node, so the two-parameter
    # templates have 5,329 assignments; forcing each one took 142 s on
    # 2 cores (Python 3.11), the sweep 0.6-1.3 s
    s = _v(3, fan(2))
    start = time.perf_counter()
    report = check_schema(s, SchemaId.DELTA0_COMPREHENSION, CheckBounds(1, 2))
    assert time.perf_counter() - start < 30.0
    assert report.holds and report.counterexample is None
    assert report.stats == {"formulas": 189, "nodes": 3, "instances": 2_706_183, "designated": 0}
