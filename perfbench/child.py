"""One workload process of the kripkelab benchmark.

Started by `run.py`, never by hand:

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --t0 T [--setup-only]

`--t0` is the launcher's `time.monotonic()` just before it started this
process (the clock is system-wide on Linux), so set-up time runs from
process start to the first timed operation and covers interpreter start,
imports and fixture building.  The process prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time

import hostspeed
import spans
import workloads  # imports kripkelab


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.known = 0
        self.wrong = 0
        self.messages: list[str] = []

    def record(self, verdict) -> None:
        self.attempted += 1
        if verdict is None:
            return
        kind, message = verdict
        if kind == workloads.KNOWN:
            self.known += 1
        else:
            self.wrong += 1
        if len(self.messages) < 20:
            self.messages.append(f"{kind}: {message}")

    def summary(self) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.known + self.wrong,
            "known_defects": self.known,
            "messages": self.messages,
        }


def execute(wl, op, T):
    """Run one operation; returns (seconds, output or the exception)."""
    if getattr(wl, "collect_between_ops", False):
        gc.collect()
    t = time.perf_counter()
    try:
        out = wl.run(op, T)
    except Exception as err:  # a raising operation is a failed operation
        out = err
    return time.perf_counter() - t, out


def verdict_of(wl, op, out, T):
    if isinstance(out, Exception) and not getattr(wl, "pins_errors", False):
        return workloads.WRONG, f"{op}: raised {type(out).__name__}: {out}"
    return wl.check(op, out, T)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it:
    (seconds, percentile, sample count).  Below eleven samples, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def new_host(wl) -> hostspeed.HostSpeed:
    kind, every_s = wl.CALIBRATION
    return hostspeed.HostSpeed(kind, every_s, cwd=workloads.ROOT, env=workloads.cli_env())


def timed_run(wl, rng, seconds: float) -> dict:
    """round(seconds / ROUND_S) whole rounds, fewer only if the run has
    already taken three times `seconds`.  Host-speed samples are taken
    between operations, and the timing metrics are operation times scaled
    to reference host speed (see hostspeed.py); the raw figures go to the
    details."""
    T = spans.NullTracer()
    tally = Tally()
    lat: list[float] = []
    mids: list[float] = []
    host = new_host(wl)
    host.sample(force=True)
    planned = max(1, round(seconds / wl.ROUND_S))
    start = time.monotonic()
    rounds = 0
    for ops in wl.rounds(rng):
        for op in ops:
            dt, out = execute(wl, op, T)
            lat.append(dt)
            mids.append(time.perf_counter() - dt / 2)
            tally.record(verdict_of(wl, op, out, T))
            host.sample()
        rounds += 1
        if rounds == planned or time.monotonic() - start > 3 * seconds:
            break
    host.sample(force=True)
    scaled = [dt / host.slowdown_at(t) for dt, t in zip(lat, mids)]
    timings = {"raw": timing_metrics(lat, tally), "scaled": timing_metrics(scaled, tally)}
    # for cli_cold the children's peak; the bare interpreters of the
    # host-speed samples stay far below any kripkelab process
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
    succeeded = tally.attempted - tally.known - tally.wrong
    return {
        **tally.summary(),
        "rounds": rounds,
        "metrics": {
            **timings["scaled"].pop("metrics"),
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
            "ok_ratio": succeeded / tally.attempted,
        },
        "tail": timings["scaled"].pop("tail"),
        "raw": timings["raw"]["metrics"],
        "host": {
            "kind": host.kind,
            "samples": len(host.slowdowns),
            "median_slowdown": statistics.median(host.slowdowns),
            "seconds": host.spent_s,
        },
    }


def timing_metrics(lat: list[float], tally: Tally) -> dict:
    succeeded = tally.attempted - tally.known - tally.wrong
    value, pct, n = tail(lat)
    return {
        "metrics": {
            "ops_per_s": succeeded / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": value * 1e3,
        },
        "tail": {"percentile": pct, "samples": n},
    }


LAYER_MS = (
    "frame.build",
    "formula.parse",
    "formula.enumerate",
    "construct.families",
    "construct.is_branch",
    "semantics.forced_equal",
    "hierarchy.def_step",
    "hierarchy.def_along",
    "hierarchy.constructible",
    "hierarchy.harvest_at",
    "schema.check",
    "specfile.load",
    "cli.main",
    "cli.import",
)
LAYER_COUNTS = (
    "formula.formulas",
    "branch.positive_verdicts",
    "hierarchy.universe_elems",
    "hierarchy.harvested_sets",
    "hierarchy.truncated_builds",
    "schema.instances",
    "schema.formulas",
)


def traced_run(wl, rng, T) -> dict:
    """The fixed trace list, each operation once untraced and once traced,
    then the probes.  The two runs of an operation alternate which goes
    first, so caches the first one warms favour neither side."""
    untraced = spans.NullTracer()
    tally = Tally()
    plain = traced = 0.0
    for k, op in enumerate(wl.trace_ops(rng)):
        for side in (k % 2, 1 - k % 2):
            if side:
                with T.operation(k):
                    dt, out = execute(wl, op, T)
                traced += dt
            else:
                dt, _ = execute(wl, op, untraced)
                plain += dt
        tally.record(verdict_of(wl, op, out, T))
        with T.operation(k):
            wl.probe(op, out, T)
    workloads.probe_battery(T)
    self_s = T.self_seconds()
    metrics = {}
    for name in LAYER_MS:
        total, calls = self_s[name]
        metrics[f"{name}_ms"] = total / calls * 1e3
    for name in LAYER_COUNTS:
        metrics[name] = T.counts[name]
    checks = self_s["schema.check"][0]
    metrics["schema.instances_per_s"] = T.counts["schema.instances"] / checks
    metrics["trace.overhead_ratio"] = traced / plain
    return {**tally.summary(), "metrics": metrics, "spans": len(T.spans)}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", help="traced runs: file to write the spans to")
    args = p.parse_args()

    wl = workloads.WORKLOADS[args.workload]()
    T = spans.Tracer() if args.trace else spans.NullTracer()
    wl.setup(T)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    rng = random.Random(args.seed)
    if args.trace:
        result = traced_run(wl, rng, T)
        if args.spans_out:
            T.dump(args.spans_out)
    else:
        result = timed_run(wl, rng, args.seconds)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
