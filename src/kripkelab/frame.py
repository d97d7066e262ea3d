"""Finite partial orders with a bottom element, used as Kripke frames.

A frame is built from its nodes and covering pairs and is immutable once
built.  Node identifiers are plain strings chosen deterministically per
family so that dumps and error messages are diffable:

  chain(n)      "0" < "1" < ... < str(n-1)
  tree(d)       binary strings of length < d; the root is "e"
  fan(w)        "bot" below the incomparable leaves "1" .. str(w)
  forest(c, d)  "bb" < "b" below c copies of tree(d); copy i's nodes are
                "i:e", "i:0", "i:1", ...
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable
from dataclasses import InitVar, dataclass, field


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
    """A finite poset with bottom, built from its nodes and covering pairs.

    The pairs are closed reflexively and transitively once, on one bit mask
    per node (Warshall's closure), so the order is reflexive and transitive
    by construction.  Building checks the rest: every pair names known
    nodes, no two nodes lie on a cycle, and one node lies below all others.
    `bottom` is that node, `succ[a]` the nodes that cover a (the edges of
    the Hasse diagram) in node order, and `order` all pairs (a, b) with
    a <= b, built on first read.  Every covering pair is a given pair, so
    a given successor of a covers it unless it lies strictly above another.
    """

    nodes: tuple[str, ...]
    covers: InitVar[Iterable[tuple[str, str]]]
    kind: str = "explicit"
    bottom: str = field(init=False)
    # Per-frame tables, excluded from equality/repr: the up-sets read so far
    # (`up_set` fills it), the intern table of forced-equality class labels
    # (semantics; node names and ints only, no sets), the forcing masks of
    # all structures on the frame keyed by formula serial (semantics; no
    # formulas), and the interned constructions (construct).  The intern
    # table grows with the number of distinct classes ever labelled and is
    # never reset: labels stored on sets point into it.
    up: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    classes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    caches: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # bit j of masks[i] is set iff nodes[i] <= nodes[j], pos[nodes[i]] == i,
    # and succ[a] holds the nodes that cover a
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    pos: dict = field(init=False, repr=False, compare=False)
    succ: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self, covers: Iterable[tuple[str, str]]) -> None:
        nodes = self.nodes
        pos = {n: i for i, n in enumerate(nodes)}
        if len(pos) != len(nodes):
            dup = next(n for i, n in enumerate(nodes) if pos[n] != i)
            raise ValueError(f"duplicate node {dup!r}")
        masks = [1 << i for i in range(len(nodes))]
        for a, b in covers:
            if a not in pos or b not in pos:
                raise ValueError(f"order mentions unknown node in {a}<{b}")
            masks[pos[a]] |= 1 << pos[b]
        given = [m & ~(1 << i) for i, m in enumerate(masks)]
        for k in range(len(nodes)):
            bit = 1 << k
            for i, m in enumerate(masks):
                if m & bit:
                    masks[i] = m | masks[k]
        owner: dict[int, int] = {}
        for i, m in enumerate(masks):
            j = owner.setdefault(m, i)
            if j != i:
                raise ValueError(f"order has a cycle through {nodes[j]!r} and {nodes[i]!r}")
        full = (1 << len(nodes)) - 1
        if full not in owner:
            raise ValueError("order has no bottom element: no node lies below all others")
        succ = {}
        for n, g in zip(nodes, given):
            beyond = 0
            for j in _bits(g):
                beyond |= masks[j] & ~(1 << j)
            succ[n] = tuple(nodes[j] for j in _bits(g & ~beyond))
        object.__setattr__(self, "masks", tuple(masks))
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "succ", succ)
        object.__setattr__(self, "bottom", nodes[owner[full]])

    @functools.cached_property
    def order(self) -> frozenset[tuple[str, str]]:
        # n(n+1)/2 pairs on a chain, so only the readers that need every
        # pair build it; `leq` reads one bit of `masks`
        nodes = self.nodes
        return frozenset((a, nodes[j]) for a, m in zip(nodes, self.masks) for j in _bits(m))


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, lowest first."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _require(f: Frame, *nodes: str) -> None:
    for n in nodes:
        if n not in f.pos:
            raise ValueError(f"unknown node {n!r}")


def leq(f: Frame, a: str, b: str) -> bool:
    _require(f, a, b)
    return bool(f.masks[f.pos[a]] >> f.pos[b] & 1)


def up_set(f: Frame, a: str) -> tuple[str, ...]:
    """The nodes >= a in node order, built from a's mask on first read."""
    ups = f.up.get(a)
    if ups is None:
        _require(f, a)
        ups = f.up[a] = tuple(f.nodes[j] for j in _bits(f.masks[f.pos[a]]))
    return ups


def linear_extension(f: Frame) -> list[str]:
    """The nodes ordered so that each one follows every node below it."""
    # strictly below implies a strictly larger up-set; the sort is stable
    return sorted(f.nodes, key=lambda n: -f.masks[f.pos[n]].bit_count())


def leaves(f: Frame) -> tuple[str, ...]:
    return tuple(n for n in f.nodes if not f.succ[n])


def build_frame(kind: FrameKind) -> Frame:
    name, sizes = kind.name, kind.sizes
    if name == "chain":
        nodes = [str(i) for i in range(sizes[0])]
        covers = set(zip(nodes, nodes[1:]))
    elif name == "tree":
        nodes, covers = _tree_nodes(sizes[0], prefix="")
    elif name == "fan":
        nodes = ["bot"] + [str(i) for i in range(1, sizes[0] + 1)]
        covers = {("bot", n) for n in nodes[1:]}
    else:
        nodes, covers = ["bb", "b"], {("bb", "b")}
        for i in range(1, sizes[0] + 1):
            sub, subcov = _tree_nodes(sizes[1], prefix=f"{i}:")
            nodes.extend(sub)
            covers |= subcov | {("b", sub[0])}
    return Frame(tuple(nodes), covers, f"{name}({','.join(map(str, sizes))})")


def _tree_nodes(depth: int, prefix: str) -> tuple[list[str], set[tuple[str, str]]]:
    # Binary strings of length < depth; "" is rendered as "e".
    def name(s: str) -> str:
        return prefix + (s if s else "e")

    strings = [""]
    for ln in range(1, depth):
        strings.extend("".join(bits) for bits in itertools.product("01", repeat=ln))
    covers = {(name(s), name(s + bit)) for s in strings if len(s) + 1 < depth for bit in "01"}
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
    `nodes: a b c / order: a<b a<c` (the pairs are closed into an order; see
    Frame).
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
        if k in kv:
            raise ValueError(f"frame parameter {k!r} given twice")
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
    return Frame(tuple(nodes), covers)


def dump_frame(f: Frame) -> str:
    """Canonical dump; parses back through parse_frame_spec.  Only covering
    pairs are listed."""
    covers = sorted((a, b) for a in f.nodes for b in f.succ[a])
    pairs = " ".join(f"{a}<{b}" for a, b in covers)
    return f"nodes: {' '.join(f.nodes)} / order: {pairs}"
