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
import operator
from collections.abc import Iterable


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


class _Record:
    """The one value base of formula nodes and records.  A class's fields
    are the slots it and its bases declare whose names do not start with
    `_`, base classes first, listed once as `_fields`.  A record equals only
    a record of its own class with equal fields, hashes its fields, prints
    as `Name(field=value, ...)` and refuses assignment and deletion, like a
    frozen dataclass; constructors fill their slots past `__setattr__`.
    Importing `dataclasses` would cost a cold run more than its own work."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        slots = [vars(klass).get("__slots__", ()) for klass in reversed(cls.__mro__)]
        cls._fields = fields = tuple(n for names in slots for n in names if not n.startswith("_"))
        if fields:
            cls._values = operator.attrgetter(*fields)

    def _fill(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FrameKind(_Record):
    """A frame family name plus its size parameters."""

    __slots__ = ("name", "sizes")

    def __init__(self, name: str, sizes: tuple[int, ...]):
        if name not in _FAMILIES:
            raise ValueError(f"unknown frame kind {name!r}")
        arity = len(_FAMILIES[name])
        if len(sizes) != arity:
            raise ValueError(f"{name} takes {arity} size parameter(s)")
        if any(s < 1 for s in sizes):
            raise ValueError(f"{name} size parameters must be >= 1, got {sizes}")
        if _node_count(name, sizes) > MAX_NODES:
            raise ValueError(f"{name} frame {sizes} has more than {MAX_NODES} nodes")
        self._fill(name, sizes)


class Frame:
    """A finite poset with bottom, built from its nodes and covering pairs.

    The pairs are closed reflexively and transitively once, on one bit mask
    per node: each pass ORs every node's given successors' masks into its
    own, nodes in reverse order, until a pass changes nothing.  A frame
    listed bottom first closes in one pass and checks it with a second; any
    order closes in at most one pass per node.  So the order is reflexive
    and transitive by construction.  Building checks the rest: every pair
    names known nodes, no two nodes lie on a cycle, and one node lies below
    all others.  `bottom` is that node, `succ[a]` the nodes that cover a
    (the edges of the Hasse diagram) in node order, and `order` all pairs
    (a, b) with a <= b, built on first read.  Every covering pair is a given
    pair, so a given successor of a covers it unless it lies strictly above
    another.  Frames compare by identity and do not change once built.
    """

    def __init__(
        self, nodes: tuple[str, ...], covers: Iterable[tuple[str, str]], kind: str = "explicit"
    ):
        self.nodes, self.kind = nodes, kind
        # Per-frame tables: the up-sets read so far (`up_set` fills it), the
        # intern table of forced-equality class labels and, per label, the
        # sorted labels of its members, the tuple its key holds (semantics;
        # node names and ints only, no sets), the forcing masks of all
        # structures on the frame keyed by formula serial (semantics; no
        # formulas), and the one pool of interned sets, harvests and towers
        # (construct and hierarchy, through `_intern` below).  The intern
        # tables grow with the number of distinct classes ever labelled and
        # are never reset: labels stored on sets point into them.
        self.up, self.classes, self.members, self.memo, self.constructs = {}, {}, [], {}, {}
        pos = {n: i for i, n in enumerate(nodes)}
        if len(pos) != len(nodes):
            dup = next(n for i, n in enumerate(nodes) if pos[n] != i)
            raise ValueError(f"duplicate node {dup!r}")
        masks = [1 << i for i in range(len(nodes))]
        for a, b in covers:
            if a not in pos or b not in pos:
                raise ValueError(f"order mentions unknown node in {a}<{b}")
            masks[pos[a]] |= 1 << pos[b]
        given = [_bits(m & ~(1 << i)) for i, m in enumerate(masks)]
        changed = True
        while changed:
            changed = False
            for i in reversed(range(len(nodes))):
                m = masks[i]
                for j in given[i]:
                    m |= masks[j]
                if m != masks[i]:
                    masks[i], changed = m, True
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
            for j in g:
                beyond |= masks[j] & ~(1 << j)
            succ[n] = tuple(nodes[j] for j in g if not beyond >> j & 1)
        # top nodes first: a node strictly above has a strictly smaller up-set
        top = sorted(range(len(nodes)), key=lambda i: masks[i].bit_count())
        # bit j of masks[i] is set iff nodes[i] <= nodes[j], pos[nodes[i]] == i,
        # and runs holds one (pos[a], 1, pos[b]) per covering pair a < b, top
        # nodes first (see hits)
        self.masks, self.pos, self.succ = tuple(masks), pos, succ
        self.runs = tuple((i, 1, pos[b]) for i in top for b in succ[nodes[i]])
        self.bottom = nodes[owner[full]]

    @functools.cached_property
    def order(self) -> frozenset[tuple[str, str]]:
        # n(n+1)/2 pairs on a chain, so only the readers that need every
        # pair build it; `leq` reads one bit of `masks`
        nodes = self.nodes
        return frozenset((a, nodes[j]) for a, m in zip(nodes, self.masks) for j in _bits(m))


def _intern(f: Frame, key: tuple, build):
    if key not in f.constructs:
        f.constructs[key] = build()
    return f.constructs[key]


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, lowest first."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def hits(runs, bad: int) -> int:
    """The positions whose image at some node at or above theirs lies in bad.
    Each (src, width, tgt) run pulls one covering pair's bits down from the
    cover, and runs come top nodes first, so every node strictly above a
    source is hit, through a cover, before the source reads it."""
    hit = bad
    if hit:
        for src, width, tgt in runs:
            hit |= (hit >> tgt & width) << src
    return hit


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
