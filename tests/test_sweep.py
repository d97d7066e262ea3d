"""Sweep masks: every swept template forced once over one bit per node
and assignment from that node's universe.  Each assignment's bits are
checked against `forcing_mask` for it, and the binding generator's
formulas against the memo-free reference; the definability engine's maps
are sweep masks; plus empty universes, the frame memo a sweep leaves
alone, a tiny memo bound, and all twelve reports of a wide two-parameter
sweep, its time and its peak memory in a process of its own."""

import ast
import itertools
import math
import random

import pytest

from kripkelab import semantics
from kripkelab.construct import powerset
from kripkelab.formula import Not, Param, params_of, parse, render, substitute
from kripkelab.frame import chain, fan, tree
from kripkelab.hierarchy import DefConfig, _Engine, _zone, empty_structure
from kripkelab.schema import CheckBounds, SchemaId, _stream, build_template, check_schema
from kripkelab.semantics import KripkeSet, Sweep, forcing_mask, structure_from_sets
from kripkelab.specfile import canonical_structure, load_structure, uniformity_gap

from reference_forces import reference_forces
from reference_sweep import reference_check
from test_binding_forces import _Gen
from util import fresh_python

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


def _listed_at(s, values):
    """The nodes whose universe lists every value."""
    return [sigma for sigma in s.frame.nodes if all(x in s.universe[sigma] for x in values)]


def _block(sweep, held, values, s):
    """One assignment's node mask, read through `Sweep.position` at the
    nodes whose universe lists it, and the mask of those nodes."""
    got = where = 0
    for sigma in _listed_at(s, values):
        got |= (held >> sweep.position(values, sigma) & 1) << s.frame.pos[sigma]
        where |= 1 << s.frame.pos[sigma]
    return got, where


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
                    got, where = _block(sweep, held, values, s)
                    assert got == want & where, (label, schema, depth, params, phi, values)
                    blocks += 1
                # no bit past the last block: a node owns a bit per tuple
                # over its own universe
                end = sum(len(s.universe[tau]) ** len(names) for tau in f.nodes)
                assert held >> end == 0
    assert swept == {0, 1, 2}
    assert blocks > 10_000


def _generated_blocks(s, phi, names, env):
    """Check every bit of a sweep over names against the reference at each
    node whose universe lists the assignment and where every bound value is
    alive; where one is dead the bit must be 0."""
    f, elems = s.frame, _elements(s)
    sweep = Sweep(s, names)
    held = sweep.forcing_mask(phi, env)
    verdicts = []
    for values in itertools.product(elems, repeat=len(names)):
        extra = dict(zip(names, values))
        for sigma in _listed_at(s, values):
            bit = held >> sweep.position(values, sigma) & 1
            if all(sigma in x.ext for x in env.values()):
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


def test_a_sweep_leaves_the_frame_memo_as_it_found_it(fixtures_dir):
    # every comprehension template reads #A, so the whole check is swept
    s = _v(2, chain(2))
    assert not s.notes
    memo = s.frame.memo
    memo["sentinel"] = None
    before = dict(memo)
    report = check_schema(s, SchemaId.DELTA0_COMPREHENSION, CheckBounds(1, 2))
    assert report.holds and report.stats["instances"] > 1000
    assert memo == before and all(memo[k] is v for k, v in before.items())
    # and every schema, with and without parameters: the axioms and the
    # formulas swept without #p get sweeps with no axes, one binding each,
    # and those own their memos too
    leaks = []
    for bounds in (CheckBounds(1, 0), CheckBounds(1, 2)):
        for schema in SchemaId:
            s = canonical_structure(chain(3))
            assert not s.notes and not s.frame.memo
            check_schema(s, schema, bounds)
            if s.frame.memo:
                leaks.append((schema.value, bounds.max_params, len(s.frame.memo)))
    # a designated instance is forced in a sweep of its check's own too
    for name, s in (
        ("uniformity_gap", uniformity_gap()),
        ("gap", load_structure(str(fixtures_dir / "corpus" / "gap.struct"))),
    ):
        assert s.notes and not s.frame.memo
        report = check_schema(s, SchemaId.DELTA0_UNIFORMITY, CheckBounds(1, 1, "bottom"))
        assert report.stats["designated"] == report.stats["instances"] == 1 and not report.holds
        assert report.counterexample == ("Delta0Uniformity", "y in x", ("A=staged",), "bot"), name
        if s.frame.memo:
            leaks.append((name, len(s.frame.memo)))
    assert leaks == []


def test_a_sweep_memo_bounded_small_changes_no_report(monkeypatch):
    s = canonical_structure(fan(3))
    bounds = CheckBounds(1, 2)
    want = [check_schema(s, sc, bounds) for sc in SchemaId]
    monkeypatch.setattr(semantics, "SWEEP_BITS", 64)
    assert [check_schema(s, sc, bounds) for sc in SchemaId] == want


# every schema's report at CheckBounds(1, 2) on V_3 over fan(2): verdict,
# counterexample, then formulas and instances (3 nodes, none designated)
V3_REPORTS = {
    SchemaId.EXTENSIONALITY: (True, None, 1, 3),
    SchemaId.PAIRING: (False, ("Pairing", "", (), "bot"), 1, 1),
    SchemaId.UNION: (True, None, 1, 3),
    SchemaId.EMPTY_SET: (True, None, 1, 3),
    SchemaId.DELTA0_COMPREHENSION: (True, None, 189, 2_706_183),
    SchemaId.DELTA0_BOUNDING: (
        False, ("Delta0Bounding", "x in y", ("A=powbot",), "bot"), 795, 6
    ),
    SchemaId.DELTA0_UNIFORMITY: (
        False, ("Delta0Uniformity", "y in #p", ("A=powbot", "p=powbot"), "bot"), 795, 16_505
    ),
    SchemaId.SIGMA_REFLECTION: (
        False, ("SigmaReflection", "exists q . (#p in q)", ("p=powbot",), "bot"), 27, 4_601
    ),
    SchemaId.PI_PERSISTENCE: (
        False, ("PiPersistence", "forall q . (q in #p)", ("p=powbot",), "bot"), 27, 4_387
    ),
    SchemaId.PI_UNIFORMITY: (
        False, ("PiUniformity", "forall q . (y in #p)", ("A=powbot", "p=powbot"), "bot"), 26, 16_943
    ),
    SchemaId.EPSILON_INDUCTION: (True, None, 189, 37_071),
    SchemaId.PI2_REFLECTION: (False, ("Pi2Reflection", "#p in y", ("p=powbot",), "bot"), 795, 665),
}


# twelve checks over V_3 and two without parameters in a process of its own,
# whose peak memory is VmHWM: ru_maxrss keeps the parent's, as exec does not reset it
V3_SWEEPS = """
import time
from kripkelab import CheckBounds, SchemaId, check_schema, empty_structure, fan, powerset
s = powerset(powerset(powerset(empty_structure(fan(2)))))
start = time.perf_counter()
reports = [check_schema(s, schema, CheckBounds(1, 2)) for schema in SchemaId]
elapsed = time.perf_counter() - start
reports += [check_schema(s, schema, CheckBounds(1, 0))
            for schema in (SchemaId.PI2_REFLECTION, SchemaId.EXTENSIONALITY)]
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(repr(([(r.holds, r.counterexample, r.stats) for r in reports], elapsed, len(s.frame.memo), peak_kb)))
"""


def test_a_two_parameter_sweep_over_v3_stays_within_its_budget():
    # V_3 over fan(2) lists 73 elements at every node, so the two-parameter
    # templates have 5,329 assignments; forcing each one took 142 s on
    # 2 cores (Python 3.11) for Delta0 Comprehension alone, the sweep
    # 0.6-1.3 s, and all twelve schemas 1.4-2.0 s
    reports, elapsed, memo, peak_kb = ast.literal_eval(fresh_python("-c", V3_SWEEPS, timeout=60))
    assert elapsed < 30.0
    swept = dict(zip(SchemaId, reports))
    for schema, (holds, cex, formulas, instances) in V3_REPORTS.items():
        stats = {"formulas": formulas, "nodes": 3, "instances": instances, "designated": 0}
        assert swept[schema] == (holds, cex, stats), schema
    assert [(holds, stats["instances"]) for holds, _, stats in reports[12:]] == [(True, 567), (True, 3)]
    assert memo == 0 and peak_kb / 1024 < 128, (memo, peak_kb)


def test_an_engine_map_is_the_sweep_mask_of_its_formula():
    # at every birth node the engine's maps of one variable are sweeps over
    # #A and its pair maps sweeps over #A and #B, the defined variable being
    # #A in the first and #B in the second, cut down to the cone: a map of
    # d digits is the sweep mask met with the engine's `full[d - 1]`
    compared = []
    for f in (chain(3), fan(3), tree(2)):
        s = canonical_structure(f)
        one, two = Sweep(s, ("A",)), Sweep(s, ("A", "B"))

        def swept(text, digits=1, negate=False):
            phi = parse(text)
            return (two if digits == 2 else one).forcing_mask(Not(phi) if negate else phi)

        for sigma in f.nodes:
            eng = _Engine(s, sigma, DefConfig())
            eq, mem, has, fixed, pairs = eng.atom_maps()
            full1, full2 = eng.full
            params = s.universe[sigma]
            for name, p in s.names.items():
                t = params.index(p)
                for m, text in ((eq[t], "#A = #p"), (mem[t], "#A in #p"), (has[t], "#p in #A")):
                    text = text.replace("#p", f"#{name}")
                    compared.append((f.kind, sigma, text, m == swept(text) & full1))
                    negated = swept(text, negate=True) & full1
                    compared.append((f.kind, sigma, "~" + text, eng.interior(m, 1) == negated))
            # the fixed maps: true, `#A in #A` and the zone, a sentence
            for m, text in zip(fixed, ("#A = #A", "#A in #A", render(_zone()))):
                compared.append((f.kind, sigma, text, m == swept(text) & full1))
            for m, text in zip(pairs, ("#B in #A", "#A in #B", "#B = #A")):
                compared.append((f.kind, sigma, text, m == swept(text, 2) & full2))
    assert len(compared) == 624
    assert [c for c in compared if not c[-1]] == []
