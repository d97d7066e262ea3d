"""Repeat the benchmark over several seeds and summarize the spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs `run.py` untraced once per seed and workload, one run at a time, and
prints per workload and end-to-end metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the distance
between the quartiles as a share of the median.  With `--out` it also makes
one traced run per workload, on the first seed, and writes the summary, the
runs, the per-layer metrics and the machine as JSON: one point of the
trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(wl: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line), json.loads(result_line)


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seeds_of(args.seeds)
    summary, runs, per_layer, machine = {}, {}, {}, None
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs[wl] = []
        for seed in seeds:
            detail, result = run_once(wl, seed, args.seconds, 0)
            machine = {k: detail[k] for k in ("nproc", "python", "platform", "commit", "source_digest")}
            runs[wl].append({"seed": seed, **{k: detail[k] for k in ("tail", "raw", "host")}, **result})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[wl] = {}
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{wl:13s} {name:12s} median {med:12.4f}  spread {spread:7.4f}  bound {bounds[name]}{flag}")
        sys.stdout.flush()
        if args.out:
            _, traced = run_once(wl, seeds[0], args.seconds, 1)
            per_layer[wl] = traced
    if args.out:
        Path(args.out).write_text(
            json.dumps({"machine": machine, "seconds": args.seconds, "seeds": args.seeds,
                        "summary": summary, "runs": runs, "per_layer": per_layer}, indent=1) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
