"""Plain-text structure descriptions.

A structure file names a frame, then binds names to built sets, one per
line.  Names starting with an underscore go to the names table only; every
other named set joins the universe together with its members, hereditarily.
An optional `universe` directive seeds the universe from the extensions of
the listed names instead of the sets themselves, which is how a universe can
grow along the order without a container set floating in it.  `designate`
lines attach schema instances for the checkers to pick up.

    frame fan width=3
    _stages = staged_nats bot:1 1:2 2:3 3:4
    _W = staged_nats bot:2 1:3 2:4 3:5
    universe _stages
    designate Delta0Uniformity phi="y in x" A=_W node=bot label="cofinal stages"

Parsing and dumping round-trip exactly.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass

from . import construct as C
from .frame import Frame, parse_frame_spec
from .hierarchy import (
    DefConfig,
    _shared_empty,
    hereditary_closure,
    iterate_def,
    structure_from_sets,
)
from .schema import DesignatedInstance, SchemaId
from .semantics import KripkeSet, Structure, alive

_BUILDERS = (
    "empty",
    "nat",
    "one_sigma",
    "pair",
    "union",
    "branch",
    "phat",
    "phat0",
    "L",
    "staged_nats",
)


@dataclass(frozen=True)
class StructSpec:
    frame_text: str
    entries: tuple[tuple[str, str, tuple[str, ...]], ...]
    universe_seeds: tuple[str, ...] = ()
    designations: tuple[DesignatedInstance, ...] = ()


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
        name, builder, args = toks[0], toks[2], tuple(toks[3:])
        if name in names_seen:
            raise SpecError(f"line {lineno}: name {name!r} bound twice")
        if builder not in _BUILDERS:
            raise SpecError(f"line {lineno}: unknown builder {builder!r}")
        for ref in _name_refs(builder, args):
            if ref not in names_seen:
                raise SpecError(f"line {lineno}: unknown name {ref!r}")
        names_seen.add(name)
        entries.append((name, builder, args))
    if frame_text is None:
        raise SpecError("no frame line found")
    return StructSpec(frame_text, tuple(entries), seeds, tuple(designations))


def _name_refs(builder: str, args: tuple[str, ...]) -> tuple[str, ...]:
    if builder in ("pair", "union"):
        return args
    return ()


def _parse_designation(
    toks: list[str], names_seen: set[str], lineno: int
) -> DesignatedInstance:
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
    for tok in toks[1:]:
        if "=" not in tok:
            raise SpecError(f"line {lineno}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
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
    return DesignatedInstance(schema, phi, tuple(params), node, label)


def _staged_nats(f: Frame, args: tuple[str, ...], what: str) -> KripkeSet:
    from .frame import leq

    counts: dict[str, int] = {}
    for a in args:
        if ":" not in a:
            raise SpecError(f"{what}: expected node:count, got {a!r}")
        node, _, num = a.partition(":")
        if node not in f.nodes:
            raise SpecError(f"{what}: unknown node {node!r}")
        if node in counts:
            raise SpecError(f"{what}: node {node!r} listed twice")
        try:
            counts[node] = int(num)
        except ValueError:
            raise SpecError(f"{what}: bad count {num!r}") from None
        if counts[node] < 0:
            raise SpecError(f"{what}: counts must be >= 0")
    missing = [n for n in f.nodes if n not in counts]
    if missing:
        raise SpecError(f"{what}: missing counts for nodes {missing}")
    for a in f.nodes:
        for b in f.nodes:
            if leq(f, a, b) and counts[a] > counts[b]:
                raise SpecError(f"{what}: counts must grow along the order")
    ext = {
        tau: tuple(C.internal_nat(f, k) for k in range(counts[tau])) for tau in f.nodes
    }
    return KripkeSet(f, f.bottom, ext, "staged")


def _build_one(
    f: Frame, builder: str, args: tuple[str, ...], named: dict[str, KripkeSet], what: str
) -> KripkeSet:
    def arity(n: int) -> None:
        if len(args) != n:
            raise SpecError(f"{what}: builder {builder!r} takes {n} argument(s)")

    if builder == "empty":
        arity(0)
        return C.empty_set(f)
    if builder == "nat":
        arity(1)
        try:
            k = int(args[0])
        except ValueError:
            raise SpecError(f"{what}: bad numeral {args[0]!r}") from None
        return C.internal_nat(f, k)
    if builder == "one_sigma":
        arity(1)
        if args[0] not in f.nodes:
            raise SpecError(f"{what}: unknown node {args[0]!r}")
        return C.one_sigma(f, args[0])
    if builder == "pair":
        arity(2)
        x, y = named[args[0]], named[args[1]]
        ext = {}
        for tau in f.nodes:
            members = tuple(m for m in (x, y) if alive(m, tau))
            if len(members) == 2 and members[0].uid == members[1].uid:
                members = members[:1]
            ext[tau] = members
        return KripkeSet(f, f.bottom, ext, f"pair({args[0]},{args[1]})")
    if builder == "union":
        arity(1)
        a = named[args[0]]
        ext = {}
        for tau in a.ext:
            seen: dict[int, KripkeSet] = {}
            for m in a.ext[tau]:
                for inner in m.ext[tau]:
                    seen.setdefault(inner.uid, inner)
            ext[tau] = tuple(seen.values())
        return KripkeSet(f, a.birth, ext, f"union({args[0]})")
    if builder == "branch":
        arity(1)
        return C.branch_from_bits(f, args[0])
    if builder == "phat":
        arity(0)
        return C.p_hat(f)
    if builder == "phat0":
        arity(0)
        return C.with_zero(C.p_hat(f))
    if builder == "L":
        arity(1)
        try:
            levels = int(args[0])
        except ValueError:
            raise SpecError(f"{what}: bad level count {args[0]!r}") from None
        if levels < 0:
            raise SpecError(f"{what}: level count must be >= 0")
        stepped = iterate_def(_shared_empty(f), levels, DefConfig(formula_depth=2))
        return KripkeSet(f, f.bottom, dict(stepped.universe), f"L{levels}")
    if builder == "staged_nats":
        return _staged_nats(f, args, what)
    raise SpecError(f"{what}: unknown builder {builder!r}")


def build_structure(spec: StructSpec) -> Structure:
    f = parse_frame_spec(spec.frame_text)
    named: dict[str, KripkeSet] = {}
    for name, builder, args in spec.entries:
        named[name] = _build_one(f, builder, args, named, f"name {name!r}")
    public = tuple(x for nm, x in named.items() if not nm.startswith("_"))
    seeds = tuple(named[nm] for nm in spec.universe_seeds)
    universe = (
        hereditary_closure(public, seeds)
        if public or seeds
        else {tau: () for tau in f.nodes}
    )
    return Structure(
        frame=f, universe=universe, names=dict(named), notes=spec.designations
    )


def load_structure(path: str) -> Structure:
    with open(path, encoding="utf-8") as fh:
        return build_structure(parse_structure_spec(fh.read()))


def dump_structure_spec(spec: StructSpec) -> str:
    lines = [f"frame {spec.frame_text}"]
    for name, builder, args in spec.entries:
        lines.append(f"{name} = {builder}" + ("" if not args else " " + " ".join(args)))
    if spec.universe_seeds:
        lines.append("universe " + " ".join(spec.universe_seeds))
    for d in spec.designations:
        parts = [f"designate {d.schema.value}"]
        if d.phi is not None:
            parts.append(f'phi="{d.phi}"')
        for k, v in d.params:
            parts.append(f"{k}={v}")
        if d.node is not None:
            parts.append(f"node={d.node}")
        if d.label:
            parts.append(f'label="{d.label}"')
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
