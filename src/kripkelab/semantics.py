"""Kripke sets over a frame and the forcing relation.

A Kripke set is born at a node and assigns to every node of the birth cone a
finite extension (a tuple of previously built Kripke sets).  Transitions are
inclusions: the extension can only grow along the order.  Equality between
Kripke sets is not identity but the forced, hereditarily extensional one
computed by `forced_equal`.

Forced equality is hereditary coextensionality over the cone, a
bisimulation, so it has a canonical labelling: at each node tau where x is
alive, x's class label interns tau, the set of its members' labels at tau
and x's own labels at the nodes that cover tau (`Frame.succ`).  Two sets
alive at tau are forced equal there iff their labels agree: by induction
from the top, labels that agree at every cover agree at every node above.
A set's labels are computed the first time a question needs them, top
nodes first, and the intern table is one per frame (`Frame.classes`),
holding node names and ints only.

`forces` runs compiled code, not an interpreter, and decides a set of nodes
at once (global model checking).  Each formula node is compiled once, the
first time it is forced, into its memoized function `(ctx, env) -> mask`:
bit i is set iff `Frame.nodes[i]` forces the formula, over the nodes where
the values of its free variables and parameters are all alive.  And and or
are & and |; negation, implication and forall keep the domain's nodes whose
cone misses a bad mask, `d & ~hits(ctx.runs, bad)`, as the definability
engine does; a quantifier walks the (element, nodes where listed) pairs
that the context lists for its bound, or for the universe.  The function is
kept in the node's `_code` slot and holds no node; no frame, sweep or module
table holds code.

Forcing masks are kept per frame (`Frame.memo`), one per binding, keyed by
the formula's serial (`formula.facts`), which no other formula ever gets,
then the uids of the values of its free variables and parameters.  A
bounded formula reads extensions and labels but never a universe, so one
mask serves every structure on the frame; unbounded keys carry the
structure's uid.  Each key is built by code written for its shape.  A call
drops the memo on entry once it holds MEMO_CAP masks.

A `Sweep` decides every assignment of some parameters at once: each
parameter is an axis over the structure's distinct universe elements, and
a sweep mask holds one block of len(nodes) bits per tuple of values, axis
0 least significant.  The one compiled function per node serves both: a
single binding (`_Ctx`) and a sweep (its subclass `Sweep`) are two contexts
of the same clauses, and each supplies the three things that differ.  The
atom: one binding walks the domain's nodes over class labels, a sweep reads
a node-mask relation per pair of values, spread over the blocks.  A
quantifier's range: one binding lists the members of its bound (of the
universe) with their nodes (`KripkeSet.listing`, `Structure.listing`), a
sweep spreads that listing over the blocks, or for an axis walks each
member of each value with its per-block listing mask.  A value's cone: the
context's `pattern` spreads it over the domain (1 for one binding; an
axis's cone already covers the blocks).  A sweep's `runs` have the
block-stride pattern as their width, so `hits` pulls every block down in
one pass.  The sweep owns its masks, in a memo dropped on entry once it
holds SWEEP_BITS bits and in value tables dropped before they pass that,
and they go with it: a sweep never writes the frame's memo.

Structures are assembled here too: `hereditary_closure` closes sets under
membership node by node, and `structure_from_sets` and `empty_structure`
build a `Structure` on it.
"""

from __future__ import annotations

import functools
import itertools

from .formula import (
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    And,
    Or,
    Member,
    Not,
    Term,
    Var,
    facts,
    is_delta0,
    parse,
    render,
)
from .frame import Frame, _require, hits, up_set

_uid_counter = itertools.count()


class KripkeSet:
    """Immutable by convention; build the extension map fully, then freeze."""

    __slots__ = ("frame", "birth", "ext", "uid", "label", "cone", "classes", "member_labels", "listing")

    def __init__(
        self,
        frame: Frame,
        birth: str,
        ext: dict[str, tuple["KripkeSet", ...]],
        label: str = "",
    ):
        cone = up_set(frame, birth)
        if set(ext) != set(cone):
            raise ValueError(f"extension map must cover exactly the cone of {birth!r}")
        for tau in cone:
            for m in ext[tau]:
                if m.frame is not frame:
                    raise ValueError("member belongs to a different frame")
                if tau not in m.ext:
                    raise ValueError(
                        f"member born at {m.birth!r} is not alive at {tau!r}"
                    )
        # inclusion is transitive, so the covering pairs decide it, and a
        # tuple a node shares with its cover is included in it; sets compare
        # by identity, so a set of the members stands for their uids
        for tau in cone:
            here, members = ext[tau], None
            for rho in frame.succ[tau]:
                if ext[rho] is here:
                    continue
                if members is None:
                    members = set(here)
                if not members.issubset(ext[rho]):
                    raise ValueError(
                        f"extension shrinks from {tau!r} to {rho!r}; transitions are inclusions"
                    )
        self.frame = frame
        self.birth = birth
        self.ext = {tau: tuple(ext[tau]) for tau in cone}
        self.uid = next(_uid_counter)
        self.label = label
        self.cone = frame.masks[frame.pos[birth]]
        # class labels per node, filled by `class_at` on first use (members
        # predate this set, so the recursion there always ends), and what
        # `forces` reads of a bound, filled on first use
        self.classes = self.member_labels = self.listing = None

    def __repr__(self) -> str:
        tag = self.label or f"k{self.uid}"
        return f"<{tag}@{self.birth}>"


def alive(x: KripkeSet, sigma: str) -> bool:
    # a set's cone is exactly its extension's keys
    _require(x.frame, sigma)
    return sigma in x.ext


# ------------------------------------------------------- forced equality


def _labels(x: KripkeSet) -> dict[str, int]:
    """x's class label at each node of its cone."""
    if x.classes is None:
        f, lab = x.frame, {}
        # covers have strictly smaller up-sets, so they come first
        for tau in sorted(x.ext, key=lambda t: f.masks[f.pos[t]].bit_count()):
            members = tuple(sorted({class_at(m, tau) for m in x.ext[tau]}))
            above = tuple(lab[rho] for rho in f.succ[tau])
            lab[tau] = f.classes.setdefault((tau, members, above), len(f.classes))
        x.classes = lab
    return x.classes


def class_at(x: KripkeSet, sigma: str) -> int:
    """x's forced-equality class label at sigma: sets alive at sigma are
    forced equal there iff their labels agree."""
    if sigma not in _labels(x):
        raise ValueError(f"set born at {x.birth!r} is not alive at {sigma!r}")
    return x.classes[sigma]


def _fresh(cands, sigma: str, old=()) -> list[KripkeSet]:
    """The earliest candidate of each forced-equality class at sigma that no
    set in `old` belongs to."""
    known = {class_at(o, sigma) for o in old}
    out = []
    for cand in cands:
        c = class_at(cand, sigma)
        if c not in known:
            known.add(c)
            out.append(cand)
    return out


def forced_equal(f: Frame, sigma: str, x: KripkeSet, y: KripkeSet) -> bool:
    """Hereditary coextensionality over the cone of sigma.

    x and y are forced equal at sigma iff at every tau >= sigma each member of
    either extension is forced equal at tau to a member of the other.
    """
    # labels are interned per frame object, so they only compare within one
    if x.frame is not y.frame:
        raise ValueError("sets live on different frames")
    return class_at(x, sigma) == class_at(y, sigma)


def forced_member(f: Frame, sigma: str, x: KripkeSet, y: KripkeSet) -> bool:
    """x is forced to belong to y at sigma iff some listed member of y at
    sigma is forced equal to x there."""
    if x.frame is not y.frame:
        raise ValueError("sets live on different frames")
    c = class_at(x, sigma)
    if sigma not in y.ext:
        raise ValueError(f"set born at {y.birth!r} is not alive at {sigma!r}")
    return c in _member_labels(y)


# ------------------------------------------------------------- structure


_structure_uids = itertools.count()


class Structure:
    """A frame, a monotone universe map, and a table of named sets.

    Universe members must be alive where listed and closed under membership.
    Named sets only need to be alive somewhere on the frame; they are not
    required to sit inside the universe.  Structures compare by identity and
    are not changed once built, except for the flags kept in `meta`.
    """

    def __init__(
        self,
        frame: Frame,
        universe: dict[str, tuple[KripkeSet, ...]],
        names: dict[str, KripkeSet],
        notes: tuple = (),
    ):
        self.frame, self.universe, self.names, self.notes = frame, universe, names, notes
        self.meta = {}  # the flags a builder sets: truncated, stabilized
        # `uid` tells this structure's unbounded verdicts apart in the frame's
        # forcing memo (see `forces`); definability harvests are interned per
        # frame by cone universe (see `hierarchy.harvest_at`), not kept here.
        self.uid = next(_structure_uids)
        if set(universe) != set(frame.nodes):
            raise ValueError("universe must assign a tuple to every node")
        listed: dict[str, set[int]] = {}
        for tau, elems in universe.items():
            uids = listed[tau] = set()
            for x in elems:
                if tau not in x.ext:
                    raise ValueError(f"universe element {x!r} not alive at {tau!r}")
                if x.uid in uids:
                    raise ValueError(f"duplicate universe element {x!r} at {tau!r}")
                uids.add(x.uid)
            for x in elems:
                for m in x.ext[tau]:
                    if m.uid not in uids:
                        raise ValueError(
                            f"universe at {tau!r} is not membership-closed: "
                            f"{m!r} in {x!r} is missing"
                        )
        for tau in frame.nodes:
            for rho in frame.succ[tau]:
                if not listed[tau] <= listed[rho]:
                    raise ValueError(f"universe shrinks from {tau!r} to {rho!r}")
        for name, x in names.items():
            if x.frame is not frame:
                raise ValueError(f"named set {name!r} lives on a different frame")

    @functools.cached_property
    def listing(self) -> tuple[tuple[KripkeSet, int], ...]:  # see `forces`
        return _listed(self.universe, self.frame.pos)


def universe_at(s: Structure, sigma: str) -> tuple[KripkeSet, ...]:
    return s.universe[sigma]


# ------------------------------------------------------ structure assembly


def hereditary_closure(
    sets: tuple[KripkeSet, ...], seeds: tuple[KripkeSet, ...] = ()
) -> dict[str, tuple[KripkeSet, ...]]:
    """Per-node universe holding the given sets and all members, recursively.

    The members of each seed (not the seed itself) come first, node by node.
    """
    if not sets and not seeds:
        raise ValueError("need at least one set")
    f = (seeds + sets)[0].frame
    per_node: dict[str, dict[int, KripkeSet]] = {tau: {} for tau in f.nodes}

    def add(x: KripkeSet, tau: str) -> None:
        if x.uid in per_node[tau]:
            return
        per_node[tau][x.uid] = x
        for m in x.ext[tau]:
            add(m, tau)

    for tau in f.nodes:
        for x in seeds:
            if alive(x, tau):
                for m in x.ext[tau]:
                    add(m, tau)
        for x in sets:
            if alive(x, tau):
                add(x, tau)
    return {tau: tuple(per_node[tau].values()) for tau in f.nodes}


def structure_from_sets(
    f: Frame, sets: tuple[KripkeSet, ...], names: dict[str, KripkeSet] | None = None
) -> Structure:
    universe = hereditary_closure(sets) if sets else {tau: () for tau in f.nodes}
    return Structure(frame=f, universe=universe, names=dict(names or {}))


def empty_structure(f: Frame) -> Structure:
    return structure_from_sets(f, ())


# ---------------------------------------------------------------- forces


class EvalError(ValueError):
    pass


# forcing masks a frame's memo holds before a call drops it on entry: a
# reset also drops the verdicts a schema sweep keeps reusing, so the bound
# trades re-forcing those against holding dead ones
MEMO_CAP = 1 << 14
# mask bits in each of a `Sweep`'s two tables: its memo is dropped on entry
# to a call once it holds this many, its value tables before they would
# pass it.  Delta0 Comprehension at depth 1 with two parameters over V_3 on
# fan(2) (5,329 blocks of 3 bits) peaked at 20.9 MB RSS in 1.0-1.3 s with
# this bound, 19.4 MB in 1.0-1.2 s with half of it and 232 MB in 1.3-1.5 s
# with none (2 cores, Python 3.11)
SWEEP_BITS = 1 << 24


def forces(
    s: Structure,
    sigma: str,
    phi: Formula,
    env: dict[str, KripkeSet] | None = None,
    extra_names: dict[str, KripkeSet] | None = None,
) -> bool:
    """The forcing relation at a node.

    Conjunction and disjunction are local; negation, implication and
    universal quantification sweep the cone; existentials are witnessed at
    the node itself.  Bounded quantifiers range over the bound's extension.

    Each free term of phi must be bound and alive at sigma: `EvalError` says
    which is not, even if no clause would read it.  The verdict is one bit
    of `forcing_mask`, which is 0 wherever a term is dead.
    """
    _require(s.frame, sigma)
    if forcing_mask(s, phi, env, extra_names) >> s.frame.pos[sigma] & 1:
        return True
    _, _, variables, names = facts(phi)
    params = {**s.names, **(extra_names or {})}
    for x in (*(env[v] for v in variables), *(params[p] for p in names)):
        if sigma not in x.ext:
            raise EvalError(f"parameter born at {x.birth!r} is dead at {sigma!r}")
    return False


def forcing_mask(
    s: Structure,
    phi: Formula,
    env: dict[str, KripkeSet] | None = None,
    extra_names: dict[str, KripkeSet] | None = None,
) -> int:
    """The nodes that force phi under one binding: bit i is set iff
    `Frame.nodes[i]` forces phi.  Bits outside the domain, the meet of the
    cones of the values of phi's free variables and parameters, are 0.
    An unbound variable, an unknown parameter or a value from another frame
    raises before anything is forced."""
    extra_names = extra_names or {}
    return _force(_Ctx(s, extra_names), phi, env or {}, extra_names.values())


def _force(ctx: _Ctx, phi: Formula, env: dict[str, KripkeSet], extra=()) -> int:
    """phi's mask in ctx, one binding or a sweep, after the checks that
    `forcing_mask` promises.  The memo is dropped on entry once it holds
    `ctx.cap` masks, never in the middle of a call, whose masks are read
    again."""
    # class labels only compare within one frame object
    for x in (*env.values(), *extra):
        if x.frame is not ctx.structure.frame:
            raise ValueError("bound set lives on a different frame")
    if len(ctx.memo) >= ctx.cap:
        ctx.memo.clear()
    try:
        _, _, variables, names = facts(phi)
        missing = [f"unbound variable {v!r}" for v in variables if v not in env]
        missing += [f"unknown parameter #{p}" for p in names if p not in ctx.params]
        if missing:
            raise EvalError(missing[0])
        return _code(phi)(ctx, env)
    except RecursionError:
        raise EvalError("formula nests too deeply to evaluate") from None


class _Ctx:
    """The state of one top-level `forces` call: the structure, its uid and
    parameters (its names, overridden by the extra ones), and frame tables.
    It supplies what the compiled clauses read of a binding: the atom, a
    quantifier's range, and `pattern`, by which a value's cone is spread
    over the domain (1: one block of nodes)."""

    __slots__ = ("structure", "uid", "params", "nodes", "runs", "full", "memo", "cap")
    pattern = 1

    def __init__(self, s: Structure, extra: dict):
        f = s.frame
        self.structure, self.uid, self.params = s, s.uid, {**s.names, **extra}
        self.nodes, self.runs, self.memo, self.cap = f.nodes, f.runs, f.memo, MEMO_CAP
        self.full = f.masks[f.pos[f.bottom]]

    def atom(self, member: bool, x: KripkeSet, y: KripkeSet, d: int) -> int:
        """The nodes of d where x is a member of (equal to) y."""
        # a label is interned with its node, so x's label at tau is one of
        # y's own labels (of its members' labels) iff x = y (x in y) at tau
        x, y = _labels(x), (_member_labels if member else _own_labels)(y)
        nodes, out = self.nodes, 0
        while d:
            low = d & -d
            if x[nodes[low.bit_length() - 1]] in y:
                out |= low
            d ^= low
        return out

    def listing(self, y: KripkeSet | None):
        """A quantifier's range: each member of y (each universe element
        for None) with the nodes where it is listed."""
        if y is None:
            return self.structure.listing
        if y.listing is None:
            y.listing = _listed(y.ext, y.frame.pos)
        return y.listing


class _Axis:
    """One swept parameter, j-th of `axes`: its values are the sweep's
    elements, and as `cone` it holds the bits where its value is alive."""

    __slots__ = ("uid", "cone", "elems", "low", "high", "step")

    def __init__(self, elems: list[KripkeSet], j: int, axes: int, n: int):
        m = len(elems)
        stride = m**j  # blocks from one value of the axis to the next
        self.elems, self.step = elems, stride * n
        # the blocks below one stride, and one bit per run of m strides
        self.low, self.high = _spaced(stride, n), _spaced(m ** (axes - j - 1), stride * m * n)
        self.cone = self.spread([x.cone for x in elems])
        self.uid = next(_uid_counter)

    def spread(self, masks: list[int]) -> int:
        """Node mask i of masks in every block where the axis takes its
        i-th element."""
        return _concat([mask * self.low for mask in masks], self.step) * self.high

    def blocks(self, i: int) -> int:
        """Bit 0 of every block where the axis takes its i-th element."""
        return (self.low << i * self.step) * self.high


def _spaced(count: int, step: int) -> int:
    """count set bits, step apart from bit 0 up."""
    return ((1 << count * step) - 1) // ((1 << step) - 1) if count > 1 else count


def _concat(chunks: list[int], width: int) -> int:
    """Chunk i shifted to bit i * width, each below 1 << width; joined in
    pairs, so each round copies the bits once."""
    while len(chunks) > 1:
        if len(chunks) % 2:
            chunks.append(0)
        chunks = [a | b << width for a, b in zip(chunks[::2], chunks[1::2])]
        width *= 2
    return chunks[0] if chunks else 0


def _nodes_where(member: bool, x: KripkeSet, y: KripkeSet, pos: dict[str, int]) -> int:
    """The nodes where x is a member of (equal to) y, read as `_Ctx.atom` does."""
    heads, out = (_member_labels if member else _own_labels)(y), 0
    for tau, c in _labels(x).items():
        if c in heads:
            out |= 1 << pos[tau]
    return out


class Sweep(_Ctx):
    """Forcing under every assignment of some parameters at once.

    Each name is an axis over the structure's distinct universe elements, in
    `Structure.listing` order.  A sweep mask holds one block of len(nodes)
    bits per tuple of values, axis 0 least significant, and bit
    `position(values, sigma)` is what `forcing_mask` with the names bound to
    values gives at sigma.  A sweep is a context of the same compiled
    clauses as one binding, over wider masks: `hits` pulls every block down
    at once through runs whose width is the block-stride pattern; an atom
    reads a node-mask relation per pair of values, spread over the blocks
    where the axes take them; a quantifier whose bound is an axis walks
    every member of every value with its per-block listing mask; and a
    set's cone is spread over every block by `pattern`.

    The sweep keeps formula masks in `memo`, dropped on entry to a call once
    it holds `cap` masks (SWEEP_BITS bits), and the masks built from values
    alone (relations, axis ranges, node scopes) in `tables`, dropped when
    they would pass SWEEP_BITS bits; neither is the frame's memo, and both
    go with the sweep.  With no names a sweep is one `forcing_mask` call, on
    the frame's memo."""

    __slots__ = ("names", "pattern", "width", "index", "tables", "held")

    def __init__(self, s: Structure, names: tuple[str, ...]):
        f, elems = s.frame, [x for x, _ in s.listing]
        n, k = len(f.nodes), len(names)
        super().__init__(s, {name: _Axis(elems, j, k, n) for j, name in enumerate(names)})
        self.names = names
        self.pattern = pattern = _spaced(len(elems) ** k, n)
        self.width = len(elems) ** k * n
        self.runs = tuple((src, pattern, tgt) for src, _, tgt in f.runs)
        self.full *= pattern
        self.index = {x: i for i, x in enumerate(elems)}
        # formula masks, each `width` bits, and the masks built from values
        # alone: relations, axis ranges and node scopes
        self.memo, self.cap = {}, max(1, SWEEP_BITS // max(1, self.width))
        self.tables, self.held = {}, 0

    def forcing_mask(self, phi: Formula, env: dict[str, KripkeSet] | None = None) -> int:
        """phi's sweep mask; raises as `forcing_mask` does."""
        if not self.names:
            return forcing_mask(self.structure, phi, env)
        return _force(self, phi, env or {})

    def atom(self, member: bool, x, y, d: int) -> int:
        """The bits of d where x is a member of (equal to) y."""
        return d & self.relation(member, x, y)

    def position(self, values: tuple[KripkeSet, ...], sigma: str) -> int:
        """The bit of sigma under the names bound to values."""
        block, stride = 0, 1
        for x in values:
            block += self.index[x] * stride
            stride *= len(self.index)
        return block * len(self.structure.frame.nodes) + self.structure.frame.pos[sigma]

    def scope(self, sigma: str) -> tuple[int, int]:
        """How many assignments sigma's universe gives the names, and their
        bits at sigma."""
        got = self.tables.get(sigma)
        if got is None:
            s, listed = self.structure, self.pattern
            here = set(s.universe[sigma])
            for name in self.names:
                axis = self.params[name]
                listed &= axis.spread([x in here for x in axis.elems])
            got = (len(here) ** len(self.names), listed << s.frame.pos[sigma])
            self._table(sigma, got, self.width)
        return got

    def _table(self, key, value, bits: int):
        """Keep a mask built from values alone, dropping every such mask
        first if they would pass SWEEP_BITS bits."""
        if self.held + bits > SWEEP_BITS:
            self.tables.clear()
            self.held = 0
        self.held += bits
        self.tables[key] = value

    def relation(self, member: bool, x, y) -> int:
        """The bits where x is a member of (equal to) y: for each pair of
        values, the nodes where the first is in (equals) the second, spread
        over the blocks where x and y take them."""
        key = ("in" if member else "=", x.uid, y.uid)
        got = self.tables.get(key)
        if got is None:
            pos = self.structure.frame.pos
            if x.__class__ is not _Axis:
                if y.__class__ is not _Axis:
                    got = _nodes_where(member, x, y, pos) * self.pattern
                else:
                    got = y.spread([_nodes_where(member, x, b, pos) for b in y.elems])
            elif y.__class__ is not _Axis or x is y:
                got = x.spread([_nodes_where(member, a, a if x is y else y, pos) for a in x.elems])
            else:
                got = 0
                for i, a in enumerate(x.elems):
                    row = y.spread([_nodes_where(member, a, b, pos) for b in y.elems])
                    got |= row & x.blocks(i) * ((1 << len(pos)) - 1)
            self._table(key, got, self.width)
        return got

    def listing(self, y):
        """A quantifier's range: each member of y's values (each universe
        element for None) with the bits where it is listed.  The range of an
        axis is gathered once and kept; a set's is spread as it is read."""
        if y.__class__ is not _Axis:
            return ((x, nodes * self.pattern) for x, nodes in super().listing(y))
        got = self.tables.get(y.uid)
        if got is None:
            # each member's node masks, one per value of the axis
            table: dict[KripkeSet, list[int]] = {}
            for i, b in enumerate(y.elems):
                for x, nodes in super().listing(b):
                    table.setdefault(x, [0] * len(y.elems))[i] = nodes
            got = tuple((x, y.spread(masks)) for x, masks in table.items())
            self._table(y.uid, got, len(got) * self.width)
        return got


def _code(phi: Formula):
    """phi's memoized forcing function `(ctx, env) -> mask`: bit i is set
    iff bit i lies in phi's domain, the meet of the cones of the values of
    its free variables and parameters, and forces phi.  One function serves
    a single binding (`_Ctx`, bit i is `nodes[i]`) and a `Sweep` (a block
    of nodes per assignment).  Compiled from its children's functions the
    first time it is asked for and kept on the node; it holds no node, so
    it is freed with phi."""
    try:
        return phi._code
    except AttributeError:
        pass
    serial, bounded, variables, names = facts(phi)
    make = _memoized(bounded, len(variables), len(names))
    code = make(_body(phi), serial, *variables, *names)
    object.__setattr__(phi, "_code", code)
    return code


@functools.cache
def _memoized(bounded: bool, nvars: int, nparams: int):
    """The maker of memoized forcing functions for one key shape.

    A key is phi's serial, the context's structure uid unless phi is
    bounded, then the uids of the values of phi's sorted free variables and
    parameters, whose cones meet in the domain.  A set's cone is spread by
    `ctx.pattern`; an axis's `cone` already covers every block.  The maker
    is written out as source once per shape, as `dataclasses` writes
    `__init__`: no loop over names."""
    vs = [f"v{i}" for i in range(nvars)]
    ps = [f"p{i}" for i in range(nparams)]
    values = [f"env[{v}]" for v in vs] + [f"params[{p}]" for p in ps]
    key = ["serial"] + ([] if bounded else ["ctx.uid"])
    key += [f"a{i}.uid" for i in range(len(values))]
    cones = [
        f"(a{i}.cone if a{i}.__class__ is Axis else a{i}.cone * ctx.pattern)"
        for i in range(len(values))
    ]
    source = (
        f"def make({', '.join(['body', 'serial', *vs, *ps])}):\n"
        "    def code(ctx, env):\n"
        + ("        params = ctx.params\n" if ps else "")
        + "".join(f"        a{i} = {value}\n" for i, value in enumerate(values))
        + f"        key = ({', '.join(key)},)\n"
        "        memo = ctx.memo\n"
        "        hit = memo.get(key)\n"
        "        if hit is None:\n"
        f"            hit = memo[key] = body(ctx, env, {' & '.join(cones) or 'ctx.full'})\n"
        "        return hit\n"
        "    return code\n"
    )
    scope: dict = {"Axis": _Axis}
    exec(source, scope)
    return scope["make"]


def _body(phi: Formula):
    """The forcing clause of phi's kind over its children's compiled
    functions, without the memo: `(ctx, env, domain) -> mask`.  The context
    supplies the atom and a quantifier's range."""
    if isinstance(phi, (Member, Eq)):
        left, right, member = _term(phi.left), _term(phi.right), isinstance(phi, Member)
        return lambda ctx, env, d: ctx.atom(member, left(ctx, env), right(ctx, env), d)
    if isinstance(phi, (And, Or, Implies)):
        left, right = _code(phi.left), _code(phi.right)
        if isinstance(phi, And):
            return lambda ctx, env, d: (got := left(ctx, env)) and got & right(ctx, env)
        if isinstance(phi, Or):
            return lambda ctx, env, d: (
                got if (got := left(ctx, env) & d) == d else (got | right(ctx, env)) & d
            )
        return lambda ctx, env, d: d & ~hits(
            ctx.runs, (bad := left(ctx, env) & d) and bad & ~right(ctx, env)
        )
    if isinstance(phi, Not):
        sub = _code(phi.body)
        return lambda ctx, env, d: d & ~hits(ctx.runs, sub(ctx, env))
    if isinstance(phi, (Forall, Exists)):
        var, sub = phi.var, _code(phi.body)
        bound = None if phi.bound is None else _term(phi.bound)  # None: the universe
        # each element strikes off the nodes it is listed at and witnesses
        # (exists) or refutes (forall, whose verdict is then an interior)
        flip = -1 if isinstance(phi, Forall) else 0

        def quantifier(ctx, env, d):
            # one dict per call, rebound per element: no callee keeps it
            inner, todo = env.copy(), d
            for inner[var], where in ctx.listing(bound and bound(ctx, env)):
                where &= todo
                if where:
                    todo ^= where & (sub(ctx, inner) ^ flip)
                    if not todo:
                        break
            return d & ~hits(ctx.runs, d ^ todo) if flip else d ^ todo

        return quantifier
    raise EvalError(f"unknown formula node {phi!r}")


def _listed(ext: dict[str, tuple[KripkeSet, ...]], pos: dict[str, int]):
    """Each set listed in ext with the mask of the nodes it is listed at."""
    where: dict[KripkeSet, int] = {}
    for tau, elems in ext.items():
        for x in elems:
            where[x] = where.get(x, 0) | 1 << pos[tau]
    return tuple(where.items())


def _member_labels(y: KripkeSet) -> frozenset[int]:
    if y.member_labels is None:
        y.member_labels = frozenset(class_at(m, t) for t, ms in y.ext.items() for m in ms)
    return y.member_labels


def _own_labels(y: KripkeSet) -> frozenset[int]:
    return frozenset(_labels(y).values())


def _term(t: Term):
    """t's value; `forces` checked on entry that every term is bound."""
    name = t.name
    if isinstance(t, Var):
        return lambda ctx, env: env[name]
    return lambda ctx, env: ctx.params[name]


# ----------------------------------------------------- structure relations


def is_end_extension(m: Structure, n: Structure) -> bool:
    """n end-extends m: every m-universe element persists into n's universe,
    and n forces no new members into old sets.

    The second half needs no check of its own: a member that n forces into
    an old set y at sigma is forced equal to a listed member of y there,
    and m's universe is membership-closed (`Structure`), so that member's
    class at sigma is already one of m's."""
    if m.frame is not n.frame:
        raise ValueError("structures live on different frames")
    return all(
        {class_at(x, sigma) for x in m.universe[sigma]}
        <= {class_at(x, sigma) for x in n.universe[sigma]}
        for sigma in m.frame.nodes
    )


def delta0_absolute(
    m: Structure,
    n: Structure,
    phi: Formula,
    env: dict[str, KripkeSet] | None = None,
) -> bool:
    """Whether a bounded formula with m-side parameters gets the same verdict
    in both structures at every node.

    A bounded verdict is keyed with no structure slot, so on one frame n
    would read m's memo entries; each side forces its own fresh copy of phi
    instead, whose serials no verdict is keyed by yet."""
    if not is_delta0(phi):
        raise ValueError("delta0_absolute needs a bounded formula")
    phi_m, phi_n = parse(render(phi)), parse(render(phi))
    return all(
        forces(m, sigma, phi_m, env) == forces(n, sigma, phi_n, env)
        for sigma in m.frame.nodes
    )


@functools.cache
def _transitivity() -> tuple[Formula, Formula]:
    return (
        parse("forall u in a . forall w in u . w in a"),
        parse("forall u in a . forall w in u . forall v in w . v in u"),
    )


def is_ordinal(s: Structure, x: KripkeSet) -> bool:
    """A transitive set of transitive sets, judged by forcing at the birth
    node (and hence on the whole cone)."""
    env = {"a": x}
    return all(forces(s, x.birth, phi, env) for phi in _transitivity())
