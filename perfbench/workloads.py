"""The four workloads of the kripkelab benchmark.

Each workload is a closed loop with one client: one operation at a time, in
one process, no threads.  A workload has

* `setup(tracer)`: imports are done by then; this builds the fixtures that
  every operation shares;
* `rounds(rng)`: an endless stream of rounds, each a list of operations
  drawn from the seed.  A round is a fixed mix, so the mix measured does not
  depend on the seed, only the order and the sampled members do;
* `ROUND_S`: the share of `--seconds` one round counts for, about its wall
  time with output checks and host-speed samples at the commit the
  benchmark was defined on (2 cores, x86_64, Python 3.11).
  A run of `--seconds S` executes round(S / ROUND_S) rounds, at least one,
  so every run of a commit does the same amount of work;
* `CALIBRATION`: the kind of host-speed sample taken between operations
  and the least seconds between two samples (see hostspeed.py);
* `trace_ops(rng)`: the fixed operation list of a traced run;
* `run(op, tracer)`: the timed operation;
* `check(op, out, tracer)`: the untimed output check.  It returns None when
  the output is right, `(KNOWN, message)` for a documented defect of the
  program, and `(WRONG, message)` otherwise;
* `probe(op, out, tracer)`: per-operation layer probes, traced runs only;
* `pins_errors`: set where the pins hold errors the program raised, so a
  raising operation goes to `check` instead of failing outright;
* `collect_between_ops`: set where every operation builds a fresh frame.
  A frame's caches and the sets on it form reference cycles, so the garbage
  of one operation waits for the cycle collector.  Collecting before each
  operation, untimed, keeps that garbage out of the next operation's time
  and out of the peak RSS, which would otherwise move with the seeded
  order.

The library is reached only through the public functions of `frame`,
`formula`, `semantics`, `construct`, `hierarchy`, `schema`, `specfile` and
`cli`.  No private cache is read or cleared.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

from kripkelab import cli
from kripkelab.construct import (
    alpha_forest,
    branch_from_bits,
    externalize,
    is_branch,
    make_xi,
    monotone_t_families,
    one_sigma,
    p_hat,
    subset_of_t,
    t_family,
    with_zero,
)
from kripkelab.formula import enumerate_delta0, enumerate_pi, enumerate_sigma, parse
from kripkelab.frame import chain, fan, forest, leq, parse_frame_spec, tree, up_set
from kripkelab.hierarchy import (
    DefConfig,
    constructible,
    def_along,
    def_step,
    empty_structure,
    harvest_at,
)
from kripkelab.schema import CheckBounds, SchemaId, check_schema
from kripkelab.semantics import forced_equal, forced_member
from kripkelab.specfile import canonical_structure, load_structure

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pins"
FIXTURES = ROOT / "tests" / "fixtures"

KNOWN = "known"
WRONG = "wrong"

# the definability depth the acceptance criteria use for towers
CFG = DefConfig(formula_depth=1)


def load_pins(name: str) -> dict:
    with open(PINS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def same_classes(f, sigma, xs, ys) -> bool:
    """The two collections carve the same forced-equality classes at sigma."""
    return all(any(forced_equal(f, sigma, x, y) for y in ys) for x in xs) and all(
        any(forced_equal(f, sigma, y, x) for x in xs) for y in ys
    )


def sizes_of(structure) -> dict[str, int]:
    return {tau: len(structure.universe[tau]) for tau in structure.frame.nodes}


# ------------------------------------------------------------ branch_sweep


def _maximal_cone_chain(f, tau, picked) -> bool:
    nodes = set(picked)
    if tau not in nodes:
        return False
    if any(not (leq(f, a, b) or leq(f, b, a)) for a in nodes for b in nodes):
        return False
    return not any(
        cand not in nodes and all(leq(f, cand, b) or leq(f, b, cand) for b in nodes)
        for cand in up_set(f, tau)
    )


class BranchSweep:
    """`is_branch` at every node of tree(3) for one monotone family, on a
    fresh empty structure per family.  One fixed Pi-heavy formula over many
    fresh parameter sets: almost all time is in `semantics.forces`."""

    name = "branch_sweep"
    ROUND_S = 0.31
    CALIBRATION = ("python", 0.2)
    # a round draws one family from each of 16 blocks of families ordered by
    # total extension size, which tracks the cost of the operation
    BLOCKS = 16
    TRACE_ROUNDS = 6

    def setup(self, T) -> None:
        self.f = T.call("frame.build", tree, 3)
        self.families = T.call("construct.families", monotone_t_families, self.f)
        self.q = p_hat(self.f)
        self.bottom_one = one_sigma(self.f, self.f.bottom)

    def rounds(self, rng):
        n = len(self.families)
        by_size = sorted(range(n), key=lambda i: (sum(map(len, self.families[i].ext.values())), i))
        edges = [n * k // self.BLOCKS for k in range(self.BLOCKS + 1)]
        blocks = [by_size[lo:hi] for lo, hi in zip(edges, edges[1:])]
        for block in blocks:
            rng.shuffle(block)
        for k in itertools.count():
            picks = [block[k % len(block)] for block in blocks]
            rng.shuffle(picks)
            yield picks

    def trace_ops(self, rng):
        stream = self.rounds(rng)
        return [i for _ in range(self.TRACE_ROUNDS) for i in next(stream)]

    def run(self, i, T):
        es = empty_structure(self.f)
        b = self.families[i]
        return tuple(
            T.call("construct.is_branch", is_branch, es, sigma, b, self.q)
            for sigma in self.f.nodes
        )

    def check(self, i, verdicts, T):
        # criterion 6: internal branch-hood iff the family externalizes to a
        # maximal chain through every cone above the node
        f, b = self.f, self.families[i]
        chains = {tau: _maximal_cone_chain(f, tau, externalize(f, b, tau)) for tau in f.nodes}
        want = tuple(
            forced_member(f, sigma, self.bottom_one, b)
            and all(chains[tau] for tau in up_set(f, sigma))
            for sigma in f.nodes
        )
        T.count("branch.positive_verdicts", sum(verdicts))
        if verdicts != want:
            return WRONG, f"family {i}: is_branch {verdicts} but oracle {want}"
        return None

    def probe(self, i, out, T):
        pass


# ------------------------------------------------------------- tower_build


def _selection_build(kind: str, mask: int):
    f = tree(2) if kind == "tree2" else tree(3)
    fam = t_family(f)
    members = tuple(m for j, m in enumerate(fam) if mask >> j & 1)
    sel = subset_of_t(f, {tau: members for tau in f.nodes}, label=f"sel{mask}")
    that0 = with_zero(sel)
    return def_along(that0, CFG), that0


def _staged_branches(depth: int, bits: tuple[str, ...]):
    f = tree(depth)
    return make_xi(tuple(with_zero(branch_from_bits(f, b)) for b in bits))


_DEF_STEP_FRAMES = {
    "chain3": lambda: chain(3),
    "fan3": lambda: fan(3),
    "tree2": lambda: tree(2),
    "tree3": lambda: tree(3),
}
_STAGES = {
    "tree2-0-1": (2, ("0", "1")),
    "tree3-00-11": (3, ("00", "11")),
    "tree3-all": (3, ("00", "01", "10", "11")),
}
TOWER_CATALOGUE = (
    [f"def_step/{k}" for k in _DEF_STEP_FRAMES]
    + [f"constructible/{k}" for k in _STAGES]
    + ["def_along/alpha_forest"]
    + [f"def_along/sel-tree2-{m}" for m in range(8)]
    + [f"def_along/sel-tree3-{m}" for m in range(128)]
)


class TowerBuild:
    """One tower per operation, from a fresh frame, so no frame cache is
    warm: `def_step` over canonical structures, `constructible` over staged
    branch ordinals, `def_along` over zero-added selections and over the
    forest staging ordinal.  Time goes to the definability engine and to
    forced-equality deduplication."""

    name = "tower_build"
    # under half a round's wall time, so that the default 16 s gives three rounds:
    # the tail latency, the eleventh-longest operation, is then the middle
    # one of the three fan(3) builds rather than the longest of two builds
    # each of tree(2) and chain(3), which moved by 30 % from run to run
    ROUND_S = 5.3
    CALIBRATION = ("python", 0.2)
    collect_between_ops = True

    def setup(self, T) -> None:
        self.pins = load_pins(self.name)

    def rounds(self, rng):
        while True:
            ops = list(TOWER_CATALOGUE)
            rng.shuffle(ops)
            yield ops

    def trace_ops(self, rng):
        return next(self.rounds(rng))

    def run(self, key, T):
        """Returns the tower and, for a zero-added selection, the selection."""
        kind, _, arg = key.partition("/")
        span = f"hierarchy.{kind}"
        if kind == "def_step":
            f = T.call("frame.build", _DEF_STEP_FRAMES[arg])
            base = T.call("specfile.load", canonical_structure, f)
            return T.call(span, def_step, base, CFG), None
        if kind == "constructible":
            return T.call(span, constructible, _staged_branches(*_STAGES[arg]), CFG), None
        if arg == "alpha_forest":
            ff = T.call("frame.build", forest, 2, 2)
            return T.call(span, def_along, alpha_forest(ff, 3), CFG), None
        _, tree_kind, mask = arg.split("-")
        return T.call(span, _selection_build, tree_kind, int(mask))

    def check(self, key, out, T):
        tower, that0 = out
        pin = self.pins[key]
        got = {
            "sizes": sizes_of(tower),
            "truncated": bool(tower.meta.get("truncated")),
            "stabilized": bool(tower.meta.get("stabilized")),
        }
        T.count("hierarchy.universe_elems", sum(got["sizes"].values()))
        T.count("hierarchy.truncated_builds", int(got["truncated"]))
        if got != pin:
            return WRONG, f"{key}: built {got}, pinned {pin}"
        if that0 is not None:
            # criterion 3: a zero-added selection is a fixed point of its tower
            f = tower.frame
            for tau in f.nodes:
                if not same_classes(f, tau, tower.universe[tau], that0.ext[tau]):
                    return WRONG, f"{key}: tower at {tau} is not the selection"
        return None

    def probe(self, key, out, T):
        tower, _ = out
        forced_equal_probe(tower, T)
        kind, _, arg = key.partition("/")
        if kind == "def_step":
            harvest_probe(canonical_structure(_DEF_STEP_FRAMES[arg]()), T)


def forced_equal_probe(structure, T) -> None:
    """All pairs of each node's universe, one span per node."""
    f = structure.frame
    for tau in f.nodes:
        pairs = list(itertools.combinations(structure.universe[tau], 2))
        with T.span("semantics.forced_equal", weight=max(1, len(pairs))):
            for a, b in pairs:
                forced_equal(f, tau, a, b)


def harvest_probe(base, T) -> None:
    for tau in base.frame.nodes:
        born, _, _ = T.call("hierarchy.harvest_at", harvest_at, base, tau, CFG)
        T.count("hierarchy.harvested_sets", len(born))


# ------------------------------------------------------------ schema_sweep

SCHEMA_STRUCTURES = {
    "tree2": lambda: canonical_structure(tree(2)),
    "chain3": lambda: canonical_structure(chain(3)),
    "fan3": lambda: canonical_structure(fan(3)),
    "corpus/gap": lambda: load_structure(str(FIXTURES / "corpus" / "gap.struct")),
    "corpus/level2": lambda: load_structure(str(FIXTURES / "corpus" / "level2.struct")),
    "corpus/markers": lambda: load_structure(str(FIXTURES / "corpus" / "markers.struct")),
    "uniformity_gap": lambda: load_structure(str(FIXTURES / "uniformity_gap.struct")),
}
SCHEMA_BOUNDS = {
    "d1p1": CheckBounds(formula_depth=1, max_params=1, node_scope="all"),
    "d1p2": CheckBounds(formula_depth=1, max_params=2, node_scope="all"),
    "d2p1b": CheckBounds(formula_depth=2, max_params=1, node_scope="bottom"),
}


def sweep_enumeration(schema: SchemaId, bounds: CheckBounds):
    """The enumerator call `check_schema` makes for a schema, as documented
    per schema; None for the axioms, which have no formula slot."""
    d = bounds.formula_depth
    extra = ("p",) if bounds.max_params >= 2 else ()
    pool = ("p",) if bounds.max_params >= 1 else ()
    table = {
        SchemaId.DELTA0_COMPREHENSION: (enumerate_delta0, ("x",), extra),
        SchemaId.DELTA0_BOUNDING: (enumerate_delta0, ("x", "y"), extra),
        SchemaId.DELTA0_UNIFORMITY: (enumerate_delta0, ("x", "y"), extra),
        SchemaId.PI2_REFLECTION: (enumerate_delta0, ("x", "y"), extra),
        SchemaId.PI_UNIFORMITY: (enumerate_pi, ("x", "y"), extra),
        SchemaId.SIGMA_REFLECTION: (enumerate_sigma, (), pool),
        SchemaId.PI_PERSISTENCE: (enumerate_pi, (), pool),
        SchemaId.EPSILON_INDUCTION: (enumerate_delta0, ("a",), extra),
    }
    if schema not in table:
        return None
    fn, variables, params = table[schema]
    return fn, (d, variables, params)


def schema_key(structure: str, schema: SchemaId, bounds: str) -> str:
    return f"{structure}|{schema.value}|{bounds}"


def report_summary(report) -> dict:
    cex = report.counterexample
    return {
        "holds": report.holds,
        "counterexample": json.loads(json.dumps(cex)) if cex is not None else None,
        "instances": report.stats["instances"],
    }


class SchemaSweep:
    """One `check_schema` call on a freshly loaded structure.  Every schema
    at depth 1 with one and two parameters over every structure, plus each
    schema once at depth 2 on a structure that rotates per round: thousands of distinct
    short-lived formulas over a few nodes, and the eager depth-2 formula
    enumeration."""

    name = "schema_sweep"
    ROUND_S = 24.0
    CALIBRATION = ("python", 0.2)
    collect_between_ops = True
    pins_errors = True  # some operations raise at the pinned commit

    def setup(self, T) -> None:
        self.pins = load_pins(self.name)

    def rounds(self, rng):
        names = list(SCHEMA_STRUCTURES)
        for k in itertools.count():
            ops = [
                (s, sc, b) for b in ("d1p1", "d1p2") for sc in SchemaId for s in names
            ]
            # each schema once at depth 2, on a structure that moves on by one
            # per round: the depth-2 operations are most of a round's time,
            # so the seed only orders them and every run does the same work
            ops += [(names[(i + k) % len(names)], sc, "d2p1b") for i, sc in enumerate(SchemaId)]
            rng.shuffle(ops)
            yield ops

    def trace_ops(self, rng):
        return next(self.rounds(rng))

    def run(self, op, T):
        structure, schema, bounds = op
        s = T.call("specfile.load", SCHEMA_STRUCTURES[structure])
        return T.call("schema.check", check_schema, s, schema, SCHEMA_BOUNDS[bounds])

    def check(self, op, out, T):
        key = schema_key(*op)
        pin = self.pins[key]
        if isinstance(out, Exception):
            got = f"{type(out).__name__}: {out}"
            if pin.get("error") == got:
                return KNOWN, f"{key}: {got}"
            return WRONG, f"{key}: raised {got}"
        T.count("schema.instances", out.stats["instances"])
        T.count("schema.formulas", out.stats["formulas"])
        if "error" in pin:
            # the program raised here when the pins were taken, so there is
            # no pinned verdict; a report that comes back is unverified
            return None
        got = report_summary(out)
        if got != pin:
            return WRONG, f"{key}: got {got}, pinned {pin}"
        return None

    def probe(self, op, out, T):
        _, schema, bounds = op
        call = sweep_enumeration(schema, SCHEMA_BOUNDS[bounds])
        if call is not None:
            fn, args = call
            formulas = T.call("formula.enumerate", fn, *args)
            T.count("formula.formulas", len(formulas))


# ---------------------------------------------------------------- cli_cold

_GAP = "tests/fixtures/uniformity_gap.struct"
_MARKERS = "tests/fixtures/corpus/markers.struct"
CLI_MIX = {
    "frame-tree3": ["frame", "--frame", "tree depth=3"],
    "frame-forest": ["frame", "--frame", "forest copies=2 depth=2"],
    "eval-tree2": ["eval", "--frame", "tree depth=2", "~(#one_0 = #zero)"],
    "eval-fan3-node": ["eval", "--frame", "fan width=3", "--node", "1", "~(#one_1 = #zero)"],
    "check-chain3": ["check", "--frame", "chain length=3", "--schema", "Delta0Uniformity"],
    "check-gap": [
        "check", "--structure", _GAP, "--schema", "Delta0Uniformity", "--scope", "bottom",
    ],
    "dump-structure": ["dump", "--what", "structure", "--structure", _MARKERS],
    "dump-frame": ["dump", "--what", "frame", "--frame", "forest copies=2 depth=2"],
    "L-tree2": ["L", "--frame", "tree depth=2", "--ordinal", "two"],
    "powerset-chain1": ["powerset", "--frame", "chain length=1"],
    "lfp-chain1": [
        "lfp", "--frame", "chain length=1", "--set", "three",
        "--formula", "(x = #zero \\/ exists w in #Y . w in x)",
    ],
}


def cli_argv(key: str) -> list[str]:
    cmd, *rest = CLI_MIX[key]
    return [cmd, "--format", "structured", *rest]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("KRIPKELAB_FORMAT", None)
    return env


def run_kripkelab(argv: list[str]) -> tuple[int, str]:
    """One fresh `kripkelab` process, as the console script runs it."""
    proc = subprocess.run(
        [sys.executable, "-m", "kripkelab.cli", *argv],
        cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout


def main_in_process(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _option(argv: list[str], flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


class CliCold:
    """One fresh `kripkelab` process per operation, one at a time, over a
    fixed mix of subcommands on small frames with structured output.
    Interpreter start and `import kripkelab` are paid on every operation."""

    name = "cli_cold"
    ROUND_S = 3.3
    CALIBRATION = ("spawn", 0.0)

    def setup(self, T) -> None:
        self.pins = load_pins(self.name)

    def rounds(self, rng):
        while True:
            ops = list(CLI_MIX)
            rng.shuffle(ops)
            yield ops

    def trace_ops(self, rng):
        return next(self.rounds(rng))

    def run(self, key, T):
        return run_kripkelab(cli_argv(key))

    def check(self, key, out, T):
        pin = self.pins[key]
        if pin["argv"] != cli_argv(key):
            return WRONG, f"{key}: pinned for another command line"
        code, stdout = out
        if code != pin["exit"] or stdout != pin["stdout"]:
            return WRONG, f"{key}: exit {code}, stdout {stdout!r}"
        return None

    def probe(self, key, out, T):
        argv = cli_argv(key)
        # the same command in process, to split the cold run into its parts
        T.call("cli.main", main_in_process, argv)
        if argv[0] in ("eval", "lfp"):
            text = argv[-1] if argv[0] == "eval" else _option(argv, "--formula")
            T.call("formula.parse", parse, text)
        spec, path = _option(argv, "--frame"), _option(argv, "--structure")
        if spec is not None:
            f = T.call("frame.build", parse_frame_spec, spec)
            if argv[0] not in ("frame", "dump"):
                T.call("specfile.load", canonical_structure, f)
        elif argv[0] != "dump":
            T.call("specfile.load", load_structure, str(ROOT / path))
        T.call("cli.import", import_kripkelab_cold)


def import_kripkelab_cold() -> None:
    # no timeout, as for the host-speed samples: `wait` with a timeout polls
    # in growing sleeps and rounds the time up
    subprocess.run([sys.executable, "-c", "import kripkelab"], cwd=ROOT, env=cli_env(), check=True)


# ------------------------------------------------------------ probe battery


def probe_battery(T) -> None:
    """A fixed, small call into every layer, run at the end of every traced
    run, so that each per-layer metric is measured on every workload.  On a
    workload that calls a layer itself, these calls are a small share."""
    f = T.call("frame.build", tree, 2)
    families = T.call("construct.families", monotone_t_families, f)
    q = p_hat(f)
    for b in families[:8]:
        es = empty_structure(f)
        for sigma in f.nodes:
            verdict = T.call("construct.is_branch", is_branch, es, sigma, b, q)
            T.count("branch.positive_verdicts", int(verdict))
    for text in ("~(#one_0 = #zero)", "forall z in x . exists w in y . z = w"):
        T.call("formula.parse", parse, text)
    formulas = T.call("formula.enumerate", enumerate_delta0, 1, ("x", "y"), ())
    T.count("formula.formulas", len(formulas))
    base = T.call("specfile.load", canonical_structure, T.call("frame.build", chain, 2))
    report = T.call("schema.check", check_schema, base, SchemaId.DELTA0_UNIFORMITY, CheckBounds())
    T.count("schema.instances", report.stats["instances"])
    T.count("schema.formulas", report.stats["formulas"])
    towers = [
        T.call("hierarchy.def_step", def_step, base, CFG),
        T.call("hierarchy.constructible", constructible, _staged_branches(2, ("0", "1")), CFG),
        T.call("hierarchy.def_along", _selection_build, "tree2", 5)[0],
    ]
    for tower in towers:
        T.count("hierarchy.universe_elems", sum(sizes_of(tower).values()))
        T.count("hierarchy.truncated_builds", int(bool(tower.meta.get("truncated"))))
        forced_equal_probe(tower, T)
    harvest_probe(canonical_structure(chain(2)), T)
    T.call("cli.main", main_in_process, cli_argv("frame-tree3"))
    T.call("cli.import", import_kripkelab_cold)


WORKLOADS = {w.name: w for w in (BranchSweep, TowerBuild, SchemaSweep, CliCold)}
