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

from .formula import parse, render
from .frame import dump_frame, parse_frame_spec
from .hierarchy import (
    DefConfig,
    constructible,
    gfp,
    iterate_def,
    lfp,
    powerset,
)
from .schema import CheckBounds, SchemaId, check_schema, lemma_suite, proposition1_crosscheck
from .semantics import Structure, forces
from .specfile import (
    SpecError,
    canonical_structure,
    dump_structure_spec,
    load_structure,
    parse_structure_spec,
)


def _format(args: argparse.Namespace) -> str:
    if getattr(args, "format", None):
        return args.format
    return os.environ.get("KRIPKELAB_FORMAT", "text")


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if _format(args) == "structured":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _load(args: argparse.Namespace) -> Structure:
    if getattr(args, "structure", None):
        return load_structure(Path(args.structure))
    if getattr(args, "frame", None):
        return canonical_structure(parse_frame_spec(args.frame))
    raise SpecError("need --frame SPEC or --structure FILE")


def _input_flags(p: argparse.ArgumentParser) -> None:
    given = p.add_mutually_exclusive_group()
    given.add_argument("--frame", help="frame spec, e.g. 'tree depth=2'")
    given.add_argument("--structure", help="structure spec file")


def _sizes(s: Structure) -> dict[str, int]:
    return {tau: len(s.universe[tau]) for tau in s.frame.nodes}


def _named_set(s: Structure, name: str):
    if name not in s.names:
        raise SpecError(f"unknown set name {name!r}; structure names: {sorted(s.names)}")
    return s.names[name]


# ------------------------------------------------------------- subcommands


def cmd_frame(args: argparse.Namespace) -> int:
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


def cmd_def(args: argparse.Namespace) -> int:
    s = _load(args)
    cfg = DefConfig(formula_depth=args.depth)
    out = iterate_def(s, args.steps, cfg)
    _emit(
        args,
        {
            "cmd": "def",
            "steps": args.steps,
            "depth": args.depth,
            "sizes": _sizes(out),
            "truncated": bool(out.meta.get("truncated")),
            "stabilized": bool(out.meta.get("stabilized")),
        },
        [f"{tau}: {len(out.universe[tau])}" for tau in out.frame.nodes]
        + [
            f"truncated: {bool(out.meta.get('truncated'))}",
            f"stabilized: {bool(out.meta.get('stabilized'))}",
        ],
    )
    return 0


def cmd_L(args: argparse.Namespace) -> int:
    s = _load(args)
    x = _named_set(s, args.ordinal)
    cfg = DefConfig(formula_depth=args.depth)
    tower = constructible(x, cfg)
    _emit(
        args,
        {
            "cmd": "L",
            "ordinal": args.ordinal,
            "depth": args.depth,
            "sizes": _sizes(tower),
            "truncated": bool(tower.meta.get("truncated")),
        },
        [f"{tau}: {len(tower.universe[tau])}" for tau in tower.frame.nodes]
        + [f"truncated: {bool(tower.meta.get('truncated'))}"],
    )
    return 0


def cmd_powerset(args: argparse.Namespace) -> int:
    s = _load(args)
    out = powerset(s)
    _emit(
        args,
        {"cmd": "powerset", "sizes": _sizes(out)},
        [f"{tau}: {len(out.universe[tau])}" for tau in out.frame.nodes],
    )
    return 0


def _stage_line(head: str, x) -> str:
    """`head: tau=size ...`: the size of x's extension at each node, by name."""
    return f"{head}: " + " ".join(f"{tau}={len(x.ext[tau])}" for tau in sorted(x.ext))


def _fixpoint(args: argparse.Namespace, which: str) -> int:
    s = _load(args)
    x = _named_set(s, args.set)
    psi = parse(args.formula)
    fix, trace = (lfp if which == "lfp" else gfp)(s, x, psi)
    _emit(
        args,
        {
            "cmd": which,
            "set": args.set,
            "formula": render(psi),
            "sizes": {tau: len(fix.ext[tau]) for tau in sorted(fix.ext)},
            "stages": len(trace),
        },
        [_stage_line(f"stage {i}", st) for i, st in enumerate(trace)]
        + [_stage_line("fixpoint", fix)],
    )
    return 0


def cmd_lfp(args: argparse.Namespace) -> int:
    return _fixpoint(args, "lfp")


def cmd_gfp(args: argparse.Namespace) -> int:
    return _fixpoint(args, "gfp")


def cmd_check(args: argparse.Namespace) -> int:
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
                "base": [[n, h] for n, h in row.base],
                "agreement": row.agreement,
                "hypothesis_met": row.hypothesis_met,
                "note": row.note,
            }
        )
        trio = " ".join(f"{n}={'holds' if h else 'fails'}" for n, h in row.trio)
        base = " ".join(f"{n}={'holds' if h else 'fails'}" for n, h in row.base)
        mark = "" if not row.note else f"  [{row.note}]"
        lines.append(f"{p.name}: {trio}{mark}")
        lines.append(f"  base: {base}")
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
        if args.frame:
            f = parse_frame_spec(args.frame)
        else:
            f = _load(args).frame
        text = dump_frame(f)
        _emit(args, {"cmd": "dump", "what": "frame", "text": text}, [text])
        return 0
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
        s = _load(args)
        x = _named_set(s, args.set)
        psi = parse(args.formula)
        _, trace = (lfp if args.mode == "lfp" else gfp)(s, x, psi)
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
        p.set_defaults(func=cmd_lfp if which == "lfp" else cmd_gfp)

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
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
