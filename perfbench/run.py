"""Run one workload of the kripkelab benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the library is taken
from `src/` of that checkout, so nothing needs installing.  Workloads:
branch_sweep, tower_build, schema_sweep, cli_cold (see perfbench/README.md).

With `--trace 0` the workload runs untraced in its own process and the last
line of standard output holds the end-to-end metrics: ops_per_s, op_p50_ms,
op_tail_ms, setup_s, peak_rss_mb and ok_ratio.  Timings are scaled to
reference host speed by samples taken between operations (hostspeed.py).
Set-up is also run in four more processes that stop before the first
operation; each set-up time is scaled by host-speed samples taken just
before it, and `setup_s` is the median of the five.  With `--trace 1` the workload runs a fixed operation
list once untraced and once with spans around every library call, and the
last line holds the per-layer metrics.  All processes run on one CPU.

The line before the last one holds the details: the machine (nproc, Python,
platform), the commit, the seed, the tail percentile and its sample count,
and the first failure messages.  A copy of both goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NEEDED = ("src/kripkelab/__init__.py", "tests/fixtures/uniformity_gap.struct")
WORKLOADS = ("branch_sweep", "tower_build", "schema_sweep", "cli_cold")
SETUP_PROCESSES = 5
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    return "ratio" if name.endswith("_ratio") else "count"


def child(args, started: float, setup_only: bool = False, spans_out: str | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # fixed string hashing, so that set order, and with it every count of a
    # traced run, repeats exactly for a seed
    env["PYTHONHASHSEED"] = "0"
    left = DEADLINE_S - (time.monotonic() - started)
    t0 = time.monotonic()
    # own session, so a timeout also ends the kripkelab processes it started
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, left))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("workload process ran out of time")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU, the
    highest-numbered it may use.  The host-speed samples then see the same
    core as the operations, and a started process does not wake on the other
    core, whose speed can differ by a third at the same moment."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kripkelab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    missing = [rel for rel in NEEDED if not (ROOT / rel).is_file()]
    if missing:
        print(f"error: not a kripkelab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    started = time.monotonic()
    pin_to_one_cpu()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        res = child(args, started, spans_out=str(out_dir / f"{stem}-spans.json"))
        values = res.pop("metrics")
    else:
        # set-up time at reference host speed, as the operation times: each
        # set-up is scaled by host-speed samples taken in this process just
        # before it, on the same CPU; set-up is mostly imports and fixtures,
        # plain interpreter work
        host = hostspeed.HostSpeed("python", 0.0)
        for _ in range(SETUP_SAMPLES):
            hostspeed.python_work()  # warm-up, untimed
        setups, slowdowns = [], []
        for k in range(SETUP_PROCESSES):
            for _ in range(SETUP_SAMPLES):
                host.sample()
            slowdowns.append(statistics.median(host.slowdowns[-SETUP_SAMPLES:]))
            if k < SETUP_PROCESSES - 1:
                setups.append(child(args, started, setup_only=True)["setup_s"])
            else:
                res = child(args, started)
                setups.append(res.pop("setup_s"))
        values = res.pop("metrics")
        values["setup_s"] = statistics.median(s / d for s, d in zip(setups, slowdowns))
        res["setup_samples_s"] = setups
        res["setup_slowdowns"] = slowdowns
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(),
        "source_digest": source_digest(),
        **{k: v for k, v in res.items() if k not in ("correct", "attempted", "failed")},
    }
    final = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": final}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
