"""Write the pinned expected outputs in perfbench/pins/ from the program as
it is now.

    PYTHONPATH=src python3 perfbench/pin.py tower_build|schema_sweep|cli_cold

The pins hold what the program computed at the commit they were taken from:
universe sizes and flags of every tower, the verdict, counterexample and
instance count of every schema check (or the error it raised), and the exit
code and standard output of every command.  Re-pin only when a change of
verdict is intended and explained; a run that disagrees with its pins counts
failed operations, and re-pinning to make it pass hides the change.
"""

from __future__ import annotations

import json
import sys

import spans
import workloads as W


def pin_tower() -> dict:
    wl, T = W.TowerBuild(), spans.NullTracer()
    pins = {}
    for key in W.TOWER_CATALOGUE:
        tower, _ = wl.run(key, T)
        pins[key] = {
            "sizes": W.sizes_of(tower),
            "truncated": bool(tower.meta.get("truncated")),
            "stabilized": bool(tower.meta.get("stabilized")),
        }
    return pins


def pin_schema() -> dict:
    wl, T = W.SchemaSweep(), spans.NullTracer()
    pins = {}
    for bounds in W.SCHEMA_BOUNDS:
        for schema in W.SchemaId:
            for structure in W.SCHEMA_STRUCTURES:
                key = W.schema_key(structure, schema, bounds)
                try:
                    pins[key] = W.report_summary(wl.run((structure, schema, bounds), T))
                except ValueError as err:
                    pins[key] = {"error": f"{type(err).__name__}: {err}"}
    return pins


def pin_cli() -> dict:
    pins = {}
    for key in W.CLI_MIX:
        argv = W.cli_argv(key)
        code, stdout = W.run_kripkelab(argv)
        pins[key] = {"argv": argv, "exit": code, "stdout": stdout}
    return pins


PINNERS = {"tower_build": pin_tower, "schema_sweep": pin_schema, "cli_cold": pin_cli}

if __name__ == "__main__":
    name = sys.argv[1]
    pins = PINNERS[name]()
    with open(W.PINS / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{name}: {len(pins)} pins")
