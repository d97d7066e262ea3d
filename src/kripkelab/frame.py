"""Finite partial orders with a bottom element, used as Kripke frames.

A frame is immutable once built.  Node identifiers are plain strings chosen
deterministically per family so that dumps and error messages are diffable:

  chain(n)      "0" < "1" < ... < str(n-1)
  tree(d)       binary strings of length < d; the root is "e"
  fan(w)        "bot" below the incomparable leaves "1" .. str(w)
  forest(c, d)  "bb" < "b" below c copies of tree(d); copy i's nodes are
                "i:e", "i:0", "i:1", ...
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


# each frame family's size parameters, in order, as frame specs name them
_FAMILIES = {
    "chain": ("length",),
    "tree": ("depth",),
    "fan": ("width",),
    "forest": ("copies", "depth"),
}

MAX_NODES = 1024  # the most nodes a frame may have


def _node_count(name: str, sizes: tuple[int, ...]) -> int:
    """How many nodes the family's frame has, computed without building it;
    tree depths past 64 count as 64, which is already far over MAX_NODES,
    so a huge depth costs no huge power."""

    def tree(d: int) -> int:
        return (1 << min(d, 64)) - 1

    if name == "chain":
        return sizes[0]
    if name == "tree":
        return tree(sizes[0])
    if name == "fan":
        return sizes[0] + 1
    copies, depth = sizes
    return 2 + copies * tree(depth)


@dataclass(frozen=True)
class FrameKind:
    """A frame family name plus its size parameters."""

    name: str
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.name not in _FAMILIES:
            raise ValueError(f"unknown frame kind {self.name!r}")
        arity = len(_FAMILIES[self.name])
        if len(self.sizes) != arity:
            raise ValueError(f"{self.name} takes {arity} size parameter(s)")
        if any(s < 1 for s in self.sizes):
            raise ValueError(f"{self.name} size parameters must be >= 1, got {self.sizes}")
        if _node_count(self.name, self.sizes) > MAX_NODES:
            raise ValueError(f"{self.name} frame {self.sizes} has more than {MAX_NODES} nodes")


@dataclass(frozen=True, eq=False)
class Frame:
    """A finite poset with bottom.  `order` holds all pairs (a, b) with a <= b."""

    nodes: tuple[str, ...]
    order: frozenset[tuple[str, str]]
    bottom: str
    kind: str = "explicit"
    # Per-frame tables, excluded from equality/repr: the up-sets, the
    # intern table of forced-equality class labels (semantics; node names and
    # ints only, no sets), the forcing verdicts of all structures on the frame
    # keyed by formula serial (semantics; no formulas), and the interned
    # constructions (construct).  The intern table grows with the number of
    # distinct classes ever labelled and is never reset: labels stored on
    # sets point into it.
    up: dict = field(default_factory=dict, repr=False, compare=False)
    classes: dict = field(default_factory=dict, repr=False, compare=False)
    memo: dict = field(default_factory=dict, repr=False, compare=False)
    caches: dict = field(default_factory=dict, repr=False, compare=False)

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


def _require(f: Frame, *nodes: str) -> None:
    for n in nodes:
        if n not in f.up:
            raise ValueError(f"unknown node {n!r}")


def leq(f: Frame, a: str, b: str) -> bool:
    _require(f, a, b)
    return (a, b) in f.order


def up_set(f: Frame, a: str) -> tuple[str, ...]:
    _require(f, a)
    return f.up[a]


def linear_extension(f: Frame) -> list[str]:
    """The nodes ordered so that each one follows every node below it."""
    # strictly below implies a strictly larger up-set
    return sorted(f.nodes, key=lambda n: (-len(f.up[n]), f.index(n)))


def leaves(f: Frame) -> tuple[str, ...]:
    return tuple(n for n in f.nodes if len(f.up[n]) == 1)


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


def _make(nodes: list[str], covers: set[tuple[str, str]], bottom: str, kind: str) -> Frame:
    return Frame(nodes=tuple(nodes), order=_closure(nodes, covers), bottom=bottom, kind=kind)


def build_frame(kind: FrameKind) -> Frame:
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
    if name == "forest":
        c, d = sizes
        nodes = ["bb", "b"]
        covers = {("bb", "b")}
        for i in range(1, c + 1):
            sub, subcov = _tree_nodes(d, prefix=f"{i}:")
            nodes.extend(sub)
            covers |= subcov
            covers.add(("b", f"{i}:e"))
        return _make(nodes, covers, "bb", f"forest({c},{d})")
    raise ValueError(f"unknown frame kind {name!r}")


def _tree_nodes(depth: int, prefix: str) -> tuple[list[str], set[tuple[str, str]]]:
    # Binary strings of length < depth; "" is rendered as "e".
    def name(s: str) -> str:
        return prefix + (s if s else "e")

    strings = [""]
    for ln in range(1, depth):
        strings.extend("".join(bits) for bits in itertools.product("01", repeat=ln))
    covers = set()
    for s in strings:
        for bit in "01":
            if len(s) + 1 < depth:
                covers.add((name(s), name(s + bit)))
    return [name(s) for s in strings], covers


def chain(n: int) -> Frame:
    return build_frame(FrameKind("chain", (n,)))


def tree(d: int) -> Frame:
    return build_frame(FrameKind("tree", (d,)))


def fan(w: int) -> Frame:
    return build_frame(FrameKind("fan", (w,)))


def forest(c: int, d: int) -> Frame:
    return build_frame(FrameKind("forest", (c, d)))


def parse_frame_spec(text: str) -> Frame:
    """Parse the frame mini-language.

    Either a family form like `tree depth=3`, `fan width=4`, `chain length=2`,
    `forest copies=2 depth=2`, or an explicit poset
    `nodes: a b c / order: a<b a<c` (reflexive-transitive closure is taken,
    then validated).
    """
    text = text.strip()
    if text.startswith("nodes:"):
        return _parse_explicit(text)
    parts = text.split()
    if not parts:
        raise ValueError("empty frame spec")
    name, kv = parts[0], {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ValueError(f"bad frame parameter {tok!r}, expected key=value")
        k, v = tok.split("=", 1)
        if not v.isdigit():
            raise ValueError(f"frame parameter {k!r} must be a positive integer")
        kv[k] = int(v)
    if name not in _FAMILIES:
        raise ValueError(f"unknown frame kind {name!r}")
    keys = _FAMILIES[name]
    if set(kv) != set(keys):
        raise ValueError(f"{name} needs parameters {', '.join(keys)}")
    return build_frame(FrameKind(name, tuple(kv[k] for k in keys)))


def _parse_explicit(text: str) -> Frame:
    sections = [s.strip() for s in text.replace("\n", " / ").split("/") if s.strip()]
    nodes: list[str] = []
    covers: set[tuple[str, str]] = set()
    for sec in sections:
        if sec.startswith("nodes:"):
            nodes.extend(sec[len("nodes:"):].split())
        elif sec.startswith("order:"):
            for tok in sec[len("order:"):].split():
                if "<" not in tok:
                    raise ValueError(f"bad order token {tok!r}, expected a<b")
                a, b = tok.split("<", 1)
                covers.add((a, b))
        else:
            raise ValueError(f"unknown frame spec section {sec!r}")
    if not nodes:
        raise ValueError("explicit frame spec has no nodes")
    if len(nodes) > MAX_NODES:
        raise ValueError(f"explicit frame has more than {MAX_NODES} nodes")
    order = _closure(nodes, covers)
    bottoms = [n for n in nodes if all((n, m) in order for m in nodes)]
    if len(bottoms) != 1:
        raise ValueError("explicit frame must have exactly one bottom element")
    return Frame(nodes=tuple(nodes), order=order, bottom=bottoms[0], kind="explicit")


def dump_frame(f: Frame) -> str:
    """Canonical dump; parses back through parse_frame_spec."""
    covers = []
    for a, b in sorted(f.order):
        if a == b:
            continue
        # keep only covering pairs so the dump stays readable
        if any((a, c) in f.order and (c, b) in f.order and c not in (a, b) for c in f.nodes):
            continue
        covers.append(f"{a}<{b}")
    return f"nodes: {' '.join(f.nodes)} / order: {' '.join(covers)}"
