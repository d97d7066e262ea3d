"""The frame construction that closes the order by rescanning every pair of
pairs and then validates it pair by pair, kept as an oracle for
`kripkelab.frame.Frame`.

It is quartic in the number of nodes, so it only suits small frames.  The
family node lists and covering pairs come from the same recipes as
`kripkelab.frame.build_frame`; what this module checks is the closure, the
validation, the bottom, the up-sets, the covering pairs, the linear
extension and the dump.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from kripkelab.frame import FrameKind, _tree_nodes


@dataclass(frozen=True, eq=False)
class ReferenceFrame:
    nodes: tuple[str, ...]
    order: frozenset[tuple[str, str]]
    bottom: str
    kind: str = "explicit"
    up: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen = set(self.nodes)
        if len(seen) != len(self.nodes):
            raise ValueError("duplicate node identifiers")
        for a, b in self.order:
            if a not in seen or b not in seen:
                raise ValueError(f"order mentions unknown node in ({a!r}, {b!r})")
        for a in self.nodes:
            if (a, a) not in self.order:
                raise ValueError(f"order not reflexive at {a!r}")
        for a, b in self.order:
            if a != b and (b, a) in self.order:
                raise ValueError(f"order not antisymmetric on {a!r}, {b!r}")
        for a, b in self.order:
            for c in self.nodes:
                if (b, c) in self.order and (a, c) not in self.order:
                    raise ValueError(f"order not transitive via {a!r} <= {b!r} <= {c!r}")
        for n in self.nodes:
            if (self.bottom, n) not in self.order:
                raise ValueError(f"{self.bottom!r} is not below {n!r}")
        pos = {n: i for i, n in enumerate(self.nodes)}
        for a in self.nodes:
            ups = tuple(sorted((b for b in self.nodes if (a, b) in self.order), key=pos.get))
            self.up[a] = ups

    def index(self, a: str) -> int:
        return self.nodes.index(a)


def _closure(nodes: list[str], covers: set[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    rel = {(n, n) for n in nodes} | set(covers)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(rel), tuple(rel)):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return frozenset(rel)


def _make(nodes: list[str], covers: set[tuple[str, str]], bottom: str, kind: str):
    return ReferenceFrame(nodes=tuple(nodes), order=_closure(nodes, covers), bottom=bottom, kind=kind)


def reference_family(kind: FrameKind) -> ReferenceFrame:
    name, sizes = kind.name, kind.sizes
    if name == "chain":
        (n,) = sizes
        nodes = [str(i) for i in range(n)]
        covers = {(str(i), str(i + 1)) for i in range(n - 1)}
        return _make(nodes, covers, "0", f"chain({n})")
    if name == "tree":
        (d,) = sizes
        nodes, covers = _tree_nodes(d, prefix="")
        return _make(nodes, covers, "e", f"tree({d})")
    if name == "fan":
        (w,) = sizes
        nodes = ["bot"] + [str(i) for i in range(1, w + 1)]
        covers = {("bot", str(i)) for i in range(1, w + 1)}
        return _make(nodes, covers, "bot", f"fan({w})")
    c, d = sizes
    nodes = ["bb", "b"]
    covers = {("bb", "b")}
    for i in range(1, c + 1):
        sub, subcov = _tree_nodes(d, prefix=f"{i}:")
        nodes.extend(sub)
        covers |= subcov
        covers.add(("b", f"{i}:e"))
    return _make(nodes, covers, "bb", f"forest({c},{d})")


def reference_explicit(text: str) -> ReferenceFrame:
    """An explicit `nodes: ... / order: ...` spec, closed and validated."""
    sections = [s.strip() for s in text.replace("\n", " / ").split("/") if s.strip()]
    nodes: list[str] = []
    covers: set[tuple[str, str]] = set()
    for sec in sections:
        if sec.startswith("nodes:"):
            nodes.extend(sec[len("nodes:"):].split())
        else:
            covers.update(tuple(tok.split("<", 1)) for tok in sec[len("order:"):].split())
    order = _closure(nodes, covers)
    bottoms = [n for n in nodes if all((n, m) in order for m in nodes)]
    if len(bottoms) != 1:
        raise ValueError("explicit frame must have exactly one bottom element")
    return ReferenceFrame(nodes=tuple(nodes), order=order, bottom=bottoms[0], kind="explicit")


def linear_extension(f: ReferenceFrame) -> list[str]:
    return sorted(f.nodes, key=lambda n: (-len(f.up[n]), f.index(n)))


def leaves(f: ReferenceFrame) -> tuple[str, ...]:
    return tuple(n for n in f.nodes if len(f.up[n]) == 1)


def covering_pairs(f: ReferenceFrame) -> list[tuple[str, str]]:
    """The pairs a < b with no node strictly between, sorted."""
    return [
        (a, b)
        for a, b in sorted(f.order)
        if a != b
        and not any((a, c) in f.order and (c, b) in f.order and c not in (a, b) for c in f.nodes)
    ]


def dump_frame(f: ReferenceFrame) -> str:
    covers = " ".join(f"{a}<{b}" for a, b in covering_pairs(f))
    return f"nodes: {' '.join(f.nodes)} / order: {covers}"
