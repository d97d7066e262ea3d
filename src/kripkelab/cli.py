"""Command-line surface for frames, forcing, hierarchies, and the checkers.

Subcommands: frame, eval, def, L, powerset, lfp, gfp, check, prop1, lemmas,
dump.  Output is human text by default; KRIPKELAB_FORMAT=structured (or
--format structured) switches to stable-key JSON so identical runs are
byte-identical.  Exit codes: 0 pass, 1 check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# each subcommand imports the library modules it runs, and no others
if TYPE_CHECKING:
    from .semantics import Structure


def _format(args: argparse.Namespace) -> str:
    if getattr(args, "format", None):
        return args.format
    fmt = os.environ.get("KRIPKELAB_FORMAT", "text")
    if fmt not in ("text", "structured"):
        raise ValueError(f"KRIPKELAB_FORMAT must be 'text' or 'structured', got {fmt!r}")
    return fmt


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if _format(args) == "structured":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _load(args: argparse.Namespace) -> Structure:
    from .frame import parse_frame_spec
    from .specfile import SpecError, canonical_structure, load_structure

    if getattr(args, "structure", None):
        return load_structure(Path(args.structure))
    if getattr(args, "frame", None):
        return canonical_structure(parse_frame_spec(args.frame))
    raise SpecError("need --frame SPEC or --structure FILE")


def _input_flags(p: argparse.ArgumentParser) -> None:
    given = p.add_mutually_exclusive_group()
    given.add_argument("--frame", help="frame spec, e.g. 'tree depth=2'")
    given.add_argument("--structure", help="structure spec file")


def _named_set(s: Structure, name: str):
    from .specfile import SpecError

    if name not in s.names:
        raise SpecError(f"unknown set name {name!r}; structure names: {sorted(s.names)}")
    return s.names[name]


# ------------------------------------------------------------- subcommands


def cmd_frame(args: argparse.Namespace) -> int:
    from .frame import parse_frame_spec

    f = parse_frame_spec(args.frame)
    edges = sorted((a, b) for (a, b) in f.order if a != b)
    _emit(
        args,
        {
            "cmd": "frame",
            "kind": f.kind,
            "bottom": f.bottom,
            "nodes": list(f.nodes),
            "edges": [list(e) for e in edges],
        },
        [
            f"kind: {f.kind}",
            f"bottom: {f.bottom}",
            f"nodes: {' '.join(f.nodes)}",
            "order: " + " ".join(f"{a}<{b}" for a, b in edges),
        ],
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .formula import parse, render
    from .semantics import forces
    from .specfile import SpecError

    s = _load(args)
    phi = parse(args.formula)
    f = s.frame
    nodes = [args.node] if args.node else list(f.nodes)
    if args.node and args.node not in f.pos:
        raise SpecError(f"unknown node {args.node!r}")
    results = {sigma: forces(s, sigma, phi) for sigma in nodes}
    anchor = args.node or f.bottom
    forced = results[anchor]
    _emit(
        args,
        {
            "cmd": "eval",
            "formula": render(phi),
            "node": anchor,
            "results": results,
            "forced": forced,
        },
        [f"{sigma}: {'forced' if v else 'unforced'}" for sigma, v in results.items()],
    )
    return 0 if forced else 1


def _emit_sizes(args: argparse.Namespace, cmd: str, s: Structure, extra: dict, flags=()) -> None:
    """Emit s's universe size at each node, after the payload's `extra`
    keys, then each of the meta `flags` as a boolean in both formats."""
    sizes = {tau: len(s.universe[tau]) for tau in s.frame.nodes}
    shown = {flag: bool(s.meta.get(flag)) for flag in flags}
    _emit(
        args,
        {"cmd": cmd, **extra, "sizes": sizes, **shown},
        [f"{tau}: {n}" for tau, n in sizes.items()]
        + [f"{flag}: {v}" for flag, v in shown.items()],
    )


def cmd_def(args: argparse.Namespace) -> int:
    from .hierarchy import DefConfig, iterate_def

    out = iterate_def(_load(args), args.steps, DefConfig(formula_depth=args.depth))
    extra = {"steps": args.steps, "depth": args.depth}
    _emit_sizes(args, "def", out, extra, ("truncated", "stabilized"))
    return 0


def cmd_L(args: argparse.Namespace) -> int:
    from .hierarchy import DefConfig, constructible

    x = _named_set(_load(args), args.ordinal)
    tower = constructible(x, DefConfig(formula_depth=args.depth))
    extra = {"ordinal": args.ordinal, "depth": args.depth}
    _emit_sizes(args, "L", tower, extra, ("truncated",))
    return 0


def cmd_powerset(args: argparse.Namespace) -> int:
    from .construct import powerset

    _emit_sizes(args, "powerset", powerset(_load(args)), {})
    return 0


def _stage_line(head: str, x) -> str:
    """`head: tau=size ...`: the size of x's extension at each node, by name."""
    return f"{head}: " + " ".join(f"{tau}={len(x.ext[tau])}" for tau in sorted(x.ext))


def _fixpoint(args: argparse.Namespace, mode: str):
    """The operator formula, and the `mode` fixed point of it carved from
    the named set with its trace of stages."""
    from .formula import parse
    from .construct import gfp, lfp

    s = _load(args)
    x = _named_set(s, args.set)
    psi = parse(args.formula)
    return (psi, *(lfp if mode == "lfp" else gfp)(s, x, psi))


def cmd_fixpoint(args: argparse.Namespace) -> int:
    from .formula import render

    psi, fix, trace = _fixpoint(args, args.command)
    _emit(
        args,
        {
            "cmd": args.command,
            "set": args.set,
            "formula": render(psi),
            "sizes": {tau: len(fix.ext[tau]) for tau in sorted(fix.ext)},
            "stages": len(trace),
        },
        [_stage_line(f"stage {i}", st) for i, st in enumerate(trace)]
        + [_stage_line("fixpoint", fix)],
    )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .schema import CheckBounds, SchemaId, check_schema
    from .specfile import SpecError

    s = _load(args)
    try:
        schema = SchemaId(args.schema)
    except ValueError as err:
        valid = ", ".join(sc.value for sc in SchemaId)
        raise SpecError(f"unknown schema {args.schema!r}; valid: {valid}") from err
    bounds = CheckBounds(
        formula_depth=args.depth, max_params=args.params, node_scope=args.scope
    )
    report = check_schema(s, schema, bounds)
    cex = None
    if report.counterexample:
        cex = [list(c) if isinstance(c, tuple) else c for c in report.counterexample]
    _emit(
        args,
        {
            "cmd": "check",
            "schema": schema.value,
            "holds": report.holds,
            "counterexample": cex,
            "note": report.note,
            "stats": dict(sorted(report.stats.items())),
        },
        [
            f"{schema.value}: {'holds' if report.holds else 'fails'}"
            + (f" ({report.note})" if report.note else ""),
            f"instances: {report.stats['instances']}",
        ]
        + ([f"counterexample: {report.counterexample}"] if cex else []),
    )
    return 0 if report.holds else 1


def cmd_prop1(args: argparse.Namespace) -> int:
    from .schema import CheckBounds, proposition1_crosscheck
    from .specfile import SpecError, load_structure

    corpus_dir = Path(args.corpus)
    if not corpus_dir.is_dir():
        raise SpecError(f"corpus directory not found: {corpus_dir}")
    paths = sorted(corpus_dir.glob("*.struct"))
    structures = [load_structure(p) for p in paths]
    bounds = CheckBounds(formula_depth=args.depth, max_params=args.params)
    report = proposition1_crosscheck(structures, bounds)
    rows_json = []
    lines: list[str] = []
    for p, row in zip(paths, report.rows):
        rows_json.append(
            {
                "file": p.name,
                "label": row.label,
                "trio": [[n, h] for n, h in row.trio],
                "agreement": row.agreement,
            }
        )
        trio = " ".join(f"{n}={'holds' if h else 'fails'}" for n, h in row.trio)
        lines.append(f"{p.name}: {trio}")
    lines.append(
        f"agreements: {report.agreements}  disagreements: {report.disagreements}"
    )
    _emit(
        args,
        {
            "cmd": "prop1",
            "rows": rows_json,
            "agreements": report.agreements,
            "disagreements": report.disagreements,
        },
        lines,
    )
    return 0


def cmd_lemmas(args: argparse.Namespace) -> int:
    from .lemmas import lemma_suite

    rows = lemma_suite(
        tree_depth=args.tree_depth,
        def_depth=args.depth,
        seed=args.seed,
        samples=args.samples,
    )
    ok = all(r.status != "fails" for r in rows)
    _emit(
        args,
        {
            "cmd": "lemmas",
            "ok": ok,
            "rows": [
                {"tag": r.tag, "status": r.status, "checked": r.checked, "note": r.note}
                for r in rows
            ],
        },
        [
            f"{r.tag}: {r.status} ({r.checked} checked)"
            + (f" -- {r.note}" if r.note else "")
            for r in rows
        ]
        + [f"suite: {'pass' if ok else 'FAIL'}"],
    )
    return 0 if ok else 1


def cmd_dump(args: argparse.Namespace) -> int:
    if args.what == "frame":
        from .frame import dump_frame, parse_frame_spec

        if args.frame:
            f = parse_frame_spec(args.frame)
        else:
            f = _load(args).frame
        text = dump_frame(f)
        _emit(args, {"cmd": "dump", "what": "frame", "text": text}, [text])
        return 0
    from .specfile import SpecError, dump_structure_spec, parse_structure_spec

    if args.what == "structure":
        if not args.structure:
            raise SpecError("dump --what structure needs --structure FILE")
        raw = Path(args.structure).read_text(encoding="utf-8")
        text = dump_structure_spec(parse_structure_spec(raw))
        _emit(
            args,
            {"cmd": "dump", "what": "structure", "text": text},
            [text.rstrip("\n")],
        )
        return 0
    if args.what == "trace":
        if not (args.set and args.formula):
            raise SpecError("dump --what trace needs --set and --formula")
        _, _, trace = _fixpoint(args, args.mode)
        _emit(
            args,
            {
                "cmd": "dump",
                "what": "trace",
                "mode": args.mode,
                "stages": [
                    {tau: len(st.ext[tau]) for tau in sorted(st.ext)} for st in trace
                ],
            },
            [_stage_line(f"stage {i}", st) for i, st in enumerate(trace)],
        )
        return 0
    raise SpecError(f"unknown dump target {args.what!r}")


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("text", "structured"),
        default=argparse.SUPPRESS,
        help="output format; default from KRIPKELAB_FORMAT or text",
    )
    top = argparse.ArgumentParser(
        prog="kripkelab",
        description="Workbench for forcing semantics over finite frames.",
        parents=[fmt],
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frame", help="parse and describe a frame spec", parents=[fmt])
    p.add_argument("--frame", required=True)
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("eval", help="force a formula", parents=[fmt])
    _input_flags(p)
    p.add_argument("--node", help="single node; default reports every node")
    p.add_argument("formula")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("def", help="iterate the definability step", parents=[fmt])
    _input_flags(p)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--depth", type=int, default=1, help="formula depth per step")
    p.set_defaults(func=cmd_def)

    p = sub.add_parser("L", help="constructible tower over a named ordinal", parents=[fmt])
    _input_flags(p)
    p.add_argument("--ordinal", required=True, help="names-table entry to index by")
    p.add_argument("--depth", type=int, default=1)
    p.set_defaults(func=cmd_L)

    p = sub.add_parser("powerset", help="all monotone selections, per node", parents=[fmt])
    _input_flags(p)
    p.set_defaults(func=cmd_powerset)

    for which in ("lfp", "gfp"):
        p = sub.add_parser(which, help=f"{which} of a positive operator", parents=[fmt])
        _input_flags(p)
        p.add_argument("--set", required=True, help="names-table entry to carve from")
        p.add_argument("--formula", required=True)
        p.set_defaults(func=cmd_fixpoint)

    p = sub.add_parser("check", help="sweep one axiom schema", parents=[fmt])
    _input_flags(p)
    p.add_argument("--schema", required=True)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--params", type=int, default=1)
    p.add_argument("--scope", choices=("all", "bottom"), default="all")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("prop1", help="three-way schema verdict table over a corpus", parents=[fmt])
    p.add_argument("--corpus", required=True, help="directory of .struct files")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--params", type=int, default=1)
    p.set_defaults(func=cmd_prop1)

    p = sub.add_parser("lemmas", help="run the full lemma battery", parents=[fmt])
    p.add_argument("--tree-depth", type=int, default=2, choices=(2, 3))
    p.add_argument("--depth", type=int, default=1, help="definability depth; 0 skips")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--samples", type=int, default=150)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("dump", help="canonical dump of a frame, structure, or trace", parents=[fmt])
    _input_flags(p)
    p.add_argument("--what", choices=("frame", "structure", "trace"), default="structure")
    p.add_argument("--set", help="trace: names-table entry")
    p.add_argument("--formula", help="trace: operator formula")
    p.add_argument("--mode", choices=("lfp", "gfp"), default="lfp")
    p.set_defaults(func=cmd_dump)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.format = _format(args)
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
