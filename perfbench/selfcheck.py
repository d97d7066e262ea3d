"""Self-check of the benchmark's output checks.

    PYTHONPATH=src python3 perfbench/selfcheck.py

For each pinned workload, one operation runs twice through the same
execute/check/tally path as a measured run: once against its pin, which must
pass, and once against a copy of the pin with one value changed, which must
be reported as a failed operation with `correct` false.  For branch_sweep,
whose check is an oracle rather than a pin, one verdict of a real output is
flipped instead.  Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import sys

import spans
import workloads as W
from child import Tally, execute, verdict_of


def corrupt_tower(pin):
    pin["sizes"][sorted(pin["sizes"])[0]] += 1


def corrupt_schema(pin):
    pin["instances"] += 1


def corrupt_cli(pin):
    pin["stdout"] = pin["stdout"].replace(":", ": ", 1)


CASES = (
    (W.TowerBuild, "def_along/sel-tree2-3", corrupt_tower),
    (W.SchemaSweep, ("chain3", W.SchemaId.UNION, "d1p1"), corrupt_schema),
    (W.CliCold, "frame-tree3", corrupt_cli),
)


def tally_of(wl, op, out) -> dict:
    tally = Tally()
    tally.record(verdict_of(wl, op, out, spans.NullTracer()))
    return tally.summary()


def main() -> int:
    T = spans.NullTracer()
    bad = 0
    for cls, op, corrupt in CASES:
        wl = cls()
        wl.setup(T)
        _, out = execute(wl, op, T)
        clean = tally_of(wl, op, out)
        key = W.schema_key(*op) if cls is W.SchemaSweep else op
        corrupt(wl.pins[key])
        dirty = tally_of(wl, op, out)
        caught = clean["correct"] and clean["failed"] == 0 and not dirty["correct"] and dirty["failed"] == 1
        bad += not caught
        print(f"{wl.name}: {'caught' if caught else 'MISSED'} a corrupted pin for {key}")

    wl = W.BranchSweep()
    wl.setup(T)
    op = 4105
    _, out = execute(wl, op, T)
    flipped = (not out[0],) + out[1:]
    caught = tally_of(wl, op, out)["correct"] and not tally_of(wl, op, flipped)["correct"]
    bad += not caught
    print(f"{wl.name}: {'caught' if caught else 'MISSED'} a flipped verdict for family {op}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
