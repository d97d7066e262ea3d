"""Plain-text structure descriptions.

A structure file names a frame, then binds names to built sets, one per
line.  Names starting with an underscore go to the names table only; every
other named set joins the universe together with its members, hereditarily.
An optional `universe` directive seeds the universe from the extensions of
the listed names instead of the sets themselves, which is how a universe can
grow along the order without a container set floating in it.  `designate`
lines attach schema instances for the checkers to pick up.  Each value
owns its checks, in its constructor, whether built by hand or read here: a
`StructSpec` checks its entries and the names they read, and a
`schema.DesignatedInstance` its formula, template and keys.  The parser
refuses what only text can get wrong (a bad token, a key given twice) and
adds the line number to their refusals.

    frame fan width=3
    _stages = staged_nats bot:1 1:2 2:3 3:4
    _W = staged_nats bot:2 1:3 2:4 3:5
    universe _stages
    designate Delta0Uniformity phi="y in x" A=_W node=bot label="cofinal stages"

Parsing and dumping round-trip exactly.
"""

from __future__ import annotations

import shlex
from collections.abc import Callable
from typing import TYPE_CHECKING

from . import construct as C
from .frame import Frame, _Record, parse_frame_spec
from .semantics import (
    KripkeSet,
    Structure,
    alive,
    empty_structure,
    hereditary_closure,
    structure_from_sets,
)

# schema is imported where `designate` lines are parsed, and hierarchy where
# an `L` line is built, so that reading a file without them loads neither the
# checkers nor the definability engine
if TYPE_CHECKING:
    from .schema import DesignatedInstance

# the largest numeral times node count (`nat k`, and the largest count of
# `staged_nats`): building the numeral and reading it took 0.7 s at k = 1024
# on chain length=1 and 2.3 s at 2048, and 14-16 s at k = 1024 on chain
# length=32, so the cost grows with both
NAT_CAP = 1024
# the largest `L k`, and the largest k times node count: eight levels took
# 0.5 s on chain length=2, nine 0.8 s and ten 1.8 s; eight took 0.7 s on tree
# depth=2, 1.9 s on chain length=4, 2.7 s on tree depth=3 and 5.7 s on chain
# length=8, and on chain length=32 three took 0.1 s and four 1.9 s (2 cores,
# Python 3.11)
LEVEL_CAP = 8
LEVEL_NODE_CAP = 24


class StructSpec(_Record):
    __slots__ = ("frame_text", "entries", "universe_seeds", "designations")

    def __init__(
        self,
        frame_text: str,
        entries: tuple[tuple[str, str, tuple[str, ...]], ...],
        universe_seeds: tuple[str, ...] = (),
        designations: tuple[DesignatedInstance, ...] = (),
    ):
        # a spec built by hand gets the checks a parsed line gets; each
        # designation checked itself when it was built
        names_seen: set[str] = set()
        for i, entry in enumerate(entries, start=1):
            _check_entry(entry, names_seen, f"entry {i}")
        refs = [("universe", nm) for nm in universe_seeds]
        refs += [(f"designate {d.schema.value}", nm) for d in designations for _, nm in d.params]
        for where, nm in refs:
            if nm not in names_seen:
                raise SpecError(f"{where}: unknown name {nm!r}")
        self._fill(frame_text, entries, universe_seeds, designations)


class SpecError(ValueError):
    pass


def parse_structure_spec(text: str) -> StructSpec:
    frame_text: str | None = None
    entries: list[tuple[str, str, tuple[str, ...]]] = []
    seeds: tuple[str, ...] = ()
    designations: list[DesignatedInstance] = []
    names_seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            toks = shlex.split(raw, comments=True)
        except ValueError as err:
            raise SpecError(f"line {lineno}: {err}") from None
        if not toks:
            continue
        if frame_text is None:
            if toks[0] != "frame":
                raise SpecError(f"line {lineno}: the first entry must name the frame")
            frame_text = " ".join(toks[1:])
            if not frame_text:
                raise SpecError(f"line {lineno}: empty frame description")
            continue
        if toks[0] == "frame":
            raise SpecError(f"line {lineno}: duplicate frame line")
        if toks[0] == "universe":
            if seeds:
                raise SpecError(f"line {lineno}: duplicate universe directive")
            if len(toks) < 2:
                raise SpecError(f"line {lineno}: universe directive needs names")
            for nm in toks[1:]:
                if nm not in names_seen:
                    raise SpecError(f"line {lineno}: unknown name {nm!r}")
            seeds = tuple(toks[1:])
            continue
        if toks[0] == "designate":
            designations.append(_parse_designation(toks[1:], names_seen, lineno))
            continue
        if len(toks) < 3 or toks[1] != "=":
            raise SpecError(f"line {lineno}: expected `name = builder args...`")
        entry = (toks[0], toks[2], tuple(toks[3:]))
        _check_entry(entry, names_seen, f"line {lineno}")
        entries.append(entry)
    if frame_text is None:
        raise SpecError("no frame line found")
    return StructSpec(frame_text, tuple(entries), seeds, tuple(designations))


def _check_entry(
    entry: tuple[str, str, tuple[str, ...]], names_seen: set[str], where: str
) -> None:
    """Refuse a rebound name, a directive's name, an unknown builder, a
    wrong argument count or a reference to a name not bound before; then
    add the entry's name to names_seen.  Messages start with `where`."""
    name, builder, args = entry
    if name in names_seen:
        raise SpecError(f"{where}: name {name!r} bound twice")
    if name in ("frame", "universe", "designate"):  # a line starting so is a directive
        raise SpecError(f"{where}: name {name!r} is a directive")
    spec = _BUILDERS.get(builder)
    if spec is None:
        raise SpecError(f"{where}: unknown builder {builder!r}")
    if spec.arity is not None and len(args) != spec.arity:
        raise SpecError(f"{where}: builder {builder!r} takes {spec.arity} argument(s)")
    for ref in args if spec.refs else ():
        if ref not in names_seen:
            raise SpecError(f"{where}: unknown name {ref!r}")
    names_seen.add(name)


def _parse_designation(
    toks: list[str], names_seen: set[str], lineno: int
) -> DesignatedInstance:
    from .schema import DesignatedInstance, SchemaId

    if not toks:
        raise SpecError(f"line {lineno}: designate needs a schema name")
    try:
        schema = SchemaId(toks[0])
    except ValueError:
        raise SpecError(f"line {lineno}: unknown schema {toks[0]!r}") from None
    phi: str | None = None
    params: list[tuple[str, str]] = []
    node: str | None = None
    label = ""
    keys: set[str] = set()
    for tok in toks[1:]:
        if "=" not in tok:
            raise SpecError(f"line {lineno}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key in keys:
            raise SpecError(f"line {lineno}: designate {schema.value}: key {key!r} given twice")
        keys.add(key)
        if key == "phi":
            phi = val
        elif key == "node":
            node = val
        elif key == "label":
            label = val
        else:
            if val not in names_seen:
                raise SpecError(f"line {lineno}: unknown name {val!r}")
            params.append((key, val))
    # the record checks its formula and keys, so every command that reads
    # the file refuses a bad one, not only `check`
    try:
        return DesignatedInstance(schema, phi, tuple(params), node, label)
    except ValueError as err:
        raise SpecError(f"line {lineno}: designate {schema.value}: {err}") from None


def _cap_numeral(f: Frame, k: int, what: str) -> None:
    """Refuse k once k times the node count is past NAT_CAP; `what` names k."""
    n = len(f.nodes)
    if k * n > NAT_CAP:
        raise SpecError(
            f"{what} is past NAT_CAP ({NAT_CAP}) on a {n}-node frame (at most {NAT_CAP // n})"
        )


def _number(text: str, what: str, noun: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"{what}: bad {noun} {text!r}") from None


def _nat(f: Frame, args: tuple[str, ...], named: dict, what: str) -> KripkeSet:
    k = _number(args[0], what, "numeral")
    _cap_numeral(f, k, f"{what}: numeral {k}")
    return C.internal_nat(f, k)


def _one_sigma(f: Frame, args: tuple[str, ...], named: dict, what: str) -> KripkeSet:
    if args[0] not in f.nodes:
        raise SpecError(f"{what}: unknown node {args[0]!r}")
    return C.one_sigma(f, args[0])


def _pair(f: Frame, args: tuple[str, ...], named: dict, what: str) -> KripkeSet:
    x, y = named[args[0]], named[args[1]]
    # sets compare by identity, so a dict keeps each one's first occurrence
    ext = {tau: tuple(dict.fromkeys(m for m in (x, y) if alive(m, tau))) for tau in f.nodes}
    return KripkeSet(f, f.bottom, ext, f"pair({args[0]},{args[1]})")


def _union(f: Frame, args: tuple[str, ...], named: dict, what: str) -> KripkeSet:
    a = named[args[0]]
    ext = {tau: tuple(dict.fromkeys(i for m in a.ext[tau] for i in m.ext[tau])) for tau in a.ext}
    return KripkeSet(f, a.birth, ext, f"union({args[0]})")


def _levels(f: Frame, args: tuple[str, ...], named: dict, what: str) -> KripkeSet:
    levels = _number(args[0], what, "level count")
    if levels < 0:
        raise SpecError(f"{what}: level count must be >= 0")
    if levels > LEVEL_CAP:
        raise SpecError(f"{what}: level count {levels} is past LEVEL_CAP ({LEVEL_CAP})")
    n = len(f.nodes)
    if levels * n > LEVEL_NODE_CAP:
        raise SpecError(
            f"{what}: level count {levels} is past LEVEL_NODE_CAP ({LEVEL_NODE_CAP}) "
            f"on a {n}-node frame (at most {LEVEL_NODE_CAP // n})"
        )
    from .hierarchy import DefConfig, iterate_def

    stepped = iterate_def(empty_structure(f), levels, DefConfig(formula_depth=2))
    return KripkeSet(f, f.bottom, dict(stepped.universe), f"L{levels}")


def _staged_nats(f: Frame, args: tuple[str, ...], named: dict, what: str) -> KripkeSet:
    counts: dict[str, int] = {}
    for a in args:
        if ":" not in a:
            raise SpecError(f"{what}: expected node:count, got {a!r}")
        node, _, num = a.partition(":")
        if node not in f.nodes:
            raise SpecError(f"{what}: unknown node {node!r}")
        if node in counts:
            raise SpecError(f"{what}: node {node!r} listed twice")
        counts[node] = _number(num, what, "count")
        if counts[node] < 0:
            raise SpecError(f"{what}: counts must be >= 0")
    missing = [n for n in f.nodes if n not in counts]
    if missing:
        raise SpecError(f"{what}: missing counts for nodes {missing}")
    # growth is transitive, so checking each cover checks the order
    if any(counts[a] > counts[b] for a in f.nodes for b in f.succ[a]):
        raise SpecError(f"{what}: counts must grow along the order")
    top = max(counts.values())
    _cap_numeral(f, top, f"{what}: count {top}")
    ext = {
        tau: tuple(C.internal_nat(f, k) for k in range(counts[tau])) for tau in f.nodes
    }
    return KripkeSet(f, f.bottom, ext, "staged")


class _Builder(_Record):
    """A builder's argument count (None takes any), checked when the line is
    read; its build(frame, args, sets named so far, what names the entry);
    and whether its arguments name earlier entries, also checked then."""

    __slots__ = ("arity", "build", "refs")

    def __init__(self, arity: int | None, build: Callable[..., KripkeSet], refs: bool = False):
        self._fill(arity, build, refs)


_BUILDERS = {
    "empty": _Builder(0, lambda f, *_: C.empty_set(f)),
    "nat": _Builder(1, _nat),
    "one_sigma": _Builder(1, _one_sigma),
    "pair": _Builder(2, _pair, refs=True),
    "union": _Builder(1, _union, refs=True),
    "branch": _Builder(1, lambda f, args, *_: C.branch_from_bits(f, args[0])),
    "phat": _Builder(0, lambda f, *_: C.p_hat(f)),
    "phat0": _Builder(0, lambda f, *_: C.with_zero(C.p_hat(f))),
    "L": _Builder(1, _levels),
    "staged_nats": _Builder(None, _staged_nats),
}


def build_structure(spec: StructSpec) -> Structure:
    f = parse_frame_spec(spec.frame_text)
    for d in spec.designations:
        if d.node is not None and d.node not in f.nodes:
            raise SpecError(f"designate {d.schema.value}: unknown node {d.node!r}")
    named: dict[str, KripkeSet] = {}
    for name, builder, args in spec.entries:
        named[name] = _BUILDERS[builder].build(f, args, named, f"name {name!r}")
    public = tuple(x for nm, x in named.items() if not nm.startswith("_"))
    seeds = tuple(named[nm] for nm in spec.universe_seeds)
    universe = hereditary_closure(f, public, seeds)
    return Structure(frame=f, universe=universe, names=dict(named), notes=spec.designations)


def load_structure(path: str) -> Structure:
    with open(path, encoding="utf-8") as fh:
        return build_structure(parse_structure_spec(fh.read()))


# what shlex reads specially: whitespace, quotes, the escape and comments
_SPECIAL = frozenset(" \t\r\n\"'\\#")


def _quote(value: str, always: bool = False) -> str:
    """value as one token that shlex reads back as is: bare if it can be,
    else (or if `always`) double-quoted with `\\` and `"` escaped."""
    if value and not always and not _SPECIAL & set(value):
        return value
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dump_structure_spec(spec: StructSpec) -> str:
    lines = [f"frame {spec.frame_text}"]
    for name, builder, args in spec.entries:
        lines.append(" ".join(map(_quote, (name, "=", builder, *args))))
    if spec.universe_seeds:
        lines.append(" ".join(map(_quote, ("universe", *spec.universe_seeds))))
    for d in spec.designations:
        parts = ["designate", d.schema.value]
        if d.phi is not None:
            parts.append("phi=" + _quote(d.phi, always=True))
        parts += (f"{_quote(k)}={_quote(v)}" for k, v in d.params)
        if d.node is not None:
            parts.append("node=" + _quote(d.node))
        if d.label:
            parts.append("label=" + _quote(d.label, always=True))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- fixtures


UNIFORMITY_GAP_TEXT = """\
frame fan width=3
_stages = staged_nats bot:1 1:2 2:3 3:4
_W = staged_nats bot:2 1:3 2:4 3:5
universe _stages
designate Delta0Uniformity phi="y in x" A=_W node=bot label="cofinal stage family"
"""


def uniformity_gap() -> Structure:
    """A fan whose universes grow one numeral per spoke while the names
    table holds a faster-growing family: each universe set is eventually
    covered by some family member, no single member covers everything."""
    return build_structure(parse_structure_spec(UNIFORMITY_GAP_TEXT))


def canonical_structure(f: Frame) -> Structure:
    """Default named sets for frames given on the command line without a
    structure file: small numerals, the node markers, their collection, and
    the collection with the empty set attached."""
    names: dict[str, KripkeSet] = {
        "zero": C.empty_set(f),
        "one": C.internal_nat(f, 1),
        "two": C.internal_nat(f, 2),
        "three": C.internal_nat(f, 3),
        "phat": C.p_hat(f),
        "phat0": C.with_zero(C.p_hat(f)),
    }
    for node in f.nodes:
        names[f"one_{node}"] = C.one_sigma(f, node)
    return structure_from_sets(f, tuple(names.values()), names)
