"""Differential fuzzing over random frames and structures.

Each seed draws an explicit frame of one to four nodes, listed in an order
that need not be a linear extension, and two structures on it that share
the frame and its forcing memo: V_1, and V_2 where `powerset` does not
refuse it (else V_1 again), sometimes stepped once by `def_step`.  Random
binding formulas (`_Gen`) are forced on both and compared with the
memo-free reference, one bit of a one-parameter sweep at a time with
`forcing_mask`, and for up-closure; class labels and forced membership
are compared with the recursive oracles; on the smaller samples every schema
report is compared with the per-instance reference sweep, and at every
birth node of both structures the definability harvest at formula depth 1,
and on even seeds at depth 2 too, with the full closure reference
(`reference_harvest`) and the engine's cone operations with their
definitions (`util.oracle_disagreements`).

`fuzz` is the whole check; the test runs a slice of the seeds within a
budget, and a longer run calls it directly, for example

    PYTHONPATH=src:tests python -c "from test_differential import fuzz; print(fuzz(range(1500), range(60), range(300)))"

`induction` compares epsilon-induction's report, whose swept instances
are counted and not forced, with the reference sweep over more seeds:

    PYTHONPATH=src:tests python -c "from test_differential import induction; print(induction(range(1000)))"
"""

import random
import time

from kripkelab.formula import free_vars, params_of
from kripkelab.frame import Frame, dump_frame
from kripkelab.hierarchy import DefConfig, def_step, empty_structure, harvest_at, powerset
from kripkelab.schema import CheckBounds, SchemaId, check_schema
from kripkelab.semantics import Sweep, class_at, forced_member, forces, forcing_mask

import reference_harvest
from recursive_eq import oracle_equal, oracle_member
from reference_forces import reference_forces
from reference_sweep import reference_check
from test_binding_forces import _Gen
from util import harvest_classes, oracle_disagreements

# the seeds the tier-1 run draws, of the forcing checks, of the schema
# comparison and of the harvest comparison, and its budget in seconds
FORCING_SEEDS = range(300)
SCHEMA_SEEDS = range(10)
HARVEST_SEEDS = range(50)
BUDGET_S = 30
# formulas per seed, and the largest listing a schema comparison sweeps
FORMULAS = 4
SCHEMA_ELEMENTS = 40
SCHEMA_BOUNDS = (CheckBounds(1, 0), CheckBounds(1, 1), CheckBounds(1, 2))
# the depths of the harvest comparison: the tower benchmark's on every seed,
# and on even seeds depth 2 too, whose later rounds a one-node cone's pool
# bound (2 to the number of its classes) cuts short
HARVEST_CONFIGS = (DefConfig(1), DefConfig(2))


def random_frame(rng: random.Random) -> Frame:
    """One to four nodes over a least one: each later node gets one or more
    of the earlier ones as lower covers, and the nodes are listed shuffled."""
    names = rng.sample("abcd", rng.randint(1, 4))
    covers = set()
    for i in range(1, len(names)):
        for j in rng.sample(range(i), rng.randint(1, i)):
            covers.add((names[j], names[i]))
    listed = names[:]
    rng.shuffle(listed)
    return Frame(tuple(listed), covers)


def structures(f: Frame, rng: random.Random):
    """V_1 over f and a larger structure on the same frame."""
    small = large = powerset(empty_structure(f))
    try:
        large = powerset(small)
    except ValueError:  # too many selections to enumerate
        pass
    if rng.random() < 0.3:
        large = def_step(large, DefConfig(1))
    return small, large


def _up_closed(f: Frame, mask: int) -> bool:
    return all(not f.masks[i] & ~mask for i in range(len(f.nodes)) if mask >> i & 1)


def _forcing(seed: int, f: Frame, pair, rng: random.Random) -> tuple[int, list]:
    """Forcing, one-parameter sweeps and up-closure on both structures of
    the pair for each formula, under values drawn from the larger one
    (bound values need not be listed, only alive)."""
    checks, bad = 0, []
    elems = [x for x, _ in pair[1].listing]
    sweeps = [Sweep(s, ("p",)) for s in pair]
    for phi in _Gen(seed).formulas(FORMULAS):
        env = {"x": rng.choice(elems), "y": rng.choice(elems)}
        extra = {"p": rng.choice(elems)}
        # the meet of the cones of the values phi reads
        domain = f.masks[f.pos[f.bottom]]
        for x in [env[v] for v in free_vars(phi)] + [extra[p] for p in params_of(phi)]:
            domain &= x.cone
        for s, sweep in zip(pair, sweeps):
            mask = forcing_mask(s, phi, env, extra)
            checks += 1
            if mask & ~domain or not _up_closed(f, mask):
                bad.append(("not up-closed in its domain", s.uid, phi))
            for sigma in f.nodes:
                if domain >> f.pos[sigma] & 1:
                    checks += 1
                    if forces(s, sigma, phi, env, extra) != reference_forces(
                        s, sigma, phi, env, extra
                    ):
                        bad.append(("forces", s.uid, sigma, phi))
            held = sweep.forcing_mask(phi, env)
            for p, _ in s.listing:
                want = forcing_mask(s, phi, env, {"p": p})
                for sigma in f.nodes:
                    if p in sweep.layout.index[sigma]:
                        checks += 1
                        got = held >> sweep.position((p,), sigma) & 1
                        if got != want >> f.pos[sigma] & 1:
                            bad.append(("sweep", s.uid, sigma, p, phi))
    return checks, bad


def _labels(f: Frame, s) -> tuple[int, list]:
    """Class label equality against the recursive oracle, on every pair of
    elements listed at each node, and forced membership, which reads the
    frame's member labels, on every ordered pair."""
    checks, bad, memo = 0, [], {}
    for sigma in f.nodes:
        elems = s.universe[sigma]
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                checks += 1
                if forced_member(f, sigma, x, y) != oracle_member(f, memo, sigma, x, y):
                    bad.append(("member", sigma, x, y))
                if j >= i:
                    checks += 1
                    same = class_at(x, sigma) == class_at(y, sigma)
                    if same != oracle_equal(f, memo, sigma, x, y):
                        bad.append(("label", sigma, x, y))
    return checks, bad


def _schemas(s) -> tuple[int, list]:
    checks, bad = 0, []
    for schema in SchemaId:
        for bounds in SCHEMA_BOUNDS:
            checks += 1
            if check_schema(s, schema, bounds) != reference_check(s, schema, bounds):
                bad.append(("check_schema", schema.value, bounds))
    return checks, bad


def _harvests(f: Frame, pair, rng: random.Random, configs) -> tuple[int, list]:
    """At every birth node of both structures: the harvest at each of
    `configs` against the full closure, compared set by set by class
    labels, with both flags; and the engine's cone operations, on one
    random draw, against the oracle."""
    checks, bad = 0, []
    for s in pair:
        for sigma in f.nodes:
            for cfg in configs:
                checks += 1
                got = harvest_at(s, sigma, cfg)
                want = reference_harvest.harvest(s, sigma, cfg)
                if harvest_classes(got) != harvest_classes(want):
                    bad.append(("harvest", s.uid, sigma, cfg.formula_depth))
            checks += 1
            off = oracle_disagreements(s, sigma, rng, draws=1)
            if off:
                bad.append(("cone operations", s.uid, sigma, off))
    return checks, bad


def induction(seeds) -> tuple[int, list[str]]:
    """The epsilon-induction reports of both structures of each seed whose
    larger one lists at most SCHEMA_ELEMENTS elements, at each of
    SCHEMA_BOUNDS, against the per-instance reference sweep: the checks
    made and one message per disagreeing seed.  The check counts the swept
    instances that the reference forces one by one."""
    checks, failures = 0, []
    for seed in seeds:
        rng = random.Random(seed)
        f = random_frame(rng)
        pair = structures(f, rng)
        if len(pair[1].listing) > SCHEMA_ELEMENTS:
            continue
        for s in pair:
            for bounds in SCHEMA_BOUNDS:
                checks += 1
                got = check_schema(s, SchemaId.EPSILON_INDUCTION, bounds)
                if got != reference_check(s, SchemaId.EPSILON_INDUCTION, bounds):
                    failures.append(f"seed {seed}, frame {dump_frame(f)!r}: {bounds}")
    return checks, failures


def fuzz(seeds, schema_seeds=(), harvest_seeds=()) -> tuple[int, list[str]]:
    """The checks made and one message per disagreeing seed, which names the
    seed and its frame: the forcing and label checks over `seeds`, the
    schema comparison over `schema_seeds`, the harvest and cone-operation
    checks over `harvest_seeds`."""
    checks, failures = 0, []
    schema_seeds, harvest_seeds = set(schema_seeds), set(harvest_seeds)
    for seed in sorted(set(seeds) | schema_seeds | harvest_seeds):
        rng = random.Random(seed)
        f = random_frame(rng)
        bad = []
        try:  # an error is a disagreement of its seed too
            pair = structures(f, rng)
            if seed in seeds:
                for n, got in (_forcing(seed, f, pair, rng), _labels(f, pair[1])):
                    checks, bad = checks + n, bad + got
            if seed in schema_seeds and len(pair[1].listing) <= SCHEMA_ELEMENTS:
                n, got = _schemas(pair[1])
                checks, bad = checks + n, bad + got
            if seed in harvest_seeds:
                n, got = _harvests(f, pair, rng, HARVEST_CONFIGS[: 2 - seed % 2])
                checks, bad = checks + n, bad + got
        except Exception as e:
            bad.append(("raised", repr(e)))
        if bad:
            failures.append(f"seed {seed}, frame {dump_frame(f)!r}: {len(bad)} off, first {bad[0]}")
    return checks, failures


def test_random_frames_and_structures_agree_with_the_references():
    t0 = time.monotonic()
    checks, failures = fuzz(FORCING_SEEDS, SCHEMA_SEEDS, HARVEST_SEEDS)
    elapsed = time.monotonic() - t0
    assert failures == [], "\n".join(failures)
    assert checks > 50_000
    assert elapsed < BUDGET_S, f"runtime {elapsed:.1f}s exceeds the {BUDGET_S}s budget"
