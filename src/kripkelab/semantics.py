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
holding node names and ints only.  Beside it, `Frame.members` keeps each
label's sorted member labels, the tuple its key holds: the one place that
membership between classes is read.  `forced_member`, the atoms of a sweep
(`_nodes_where`) and the layout's tables (`_Layout`) all look it up.

`forces` runs compiled code, not an interpreter, and decides a set of nodes
at once (global model checking).  Each formula node is compiled once, the
first time it is forced, into its memoized function `(ctx, env) -> mask`:
a bit is set iff its node forces the formula, within the domain where the
values of its free variables and parameters are all alive.  And and or are
& and |; negation, implication and forall keep the domain's bits whose
cone misses a bad mask, `d & ~hits(ctx.runs, bad)`; a quantifier walks the
(element, bits where listed) pairs that the context lists for its bound,
or for the universe.  The function is kept in the node's `_code` slot and
holds no node; no frame, sweep or module table holds code.

Every call is made in a `Sweep`, the one context of the compiled clauses.
With no parameters a sweep is one binding: bit i is `Frame.nodes[i]`.  A
sweep with parameters decides all their assignments at once, one digit of a
`_Layout` per parameter: node tau owns one bit per tuple over its own
universe.  The definability engines over one structure share one layout of
two digits, which serves their maps of one and two digits, so an engine
map is the sweep mask of its formula within the engine's cone.  The context
supplies what the clauses read: the atom (`_nodes_where` over class labels,
or the layout's position tables where an axis is involved), a quantifier's
range (`KripkeSet.listing`, `Structure.listing`, or an axis's
`_Layout.members`) and the `runs`.  A node mask, such as a set's cone, is
spread over the layout once per sweep through its `tables`, and a set's
range once per bound, which keeps spreads off the hot path of short
formulas.

Each context's masks are keyed by the formula's serial (`formula.facts`),
which no other formula ever gets, then the uids of the values of its free
variables and parameters.  A bounded formula reads extensions and labels
but never a universe, so one mask serves every structure on the frame;
unbounded keys carry the structure's uid.  Each key is built by code
written for its shape.  Every formula is forced through one entry,
`Sweep.forcing_mask`, which checks the binding and bounds the memo.  Who
holds the masks is settled in one place: `forcing_mask`, and so `forces`,
gives its one-binding context the frame's memo (`Frame.memo`), which later
calls on the frame read again; every other sweep owns its memo, and its
tables, and they go with it, so a schema check, designated instances
included, never writes the frame's memo.

A template built once around a `formula.Hole` is forced with one formula
after another in its place: env binds the hole's name to a `Fill` of the
formula, as it binds a variable to a set.  A fill's fresh uid keys the
masks of every node above the hole, and its cone is the whole frame, so it
narrows no domain.  The hole's function is not memoized: it meets the
formula's own mask, kept under the formula's serial, with its domain, so
no mask is kept twice.

Structures are assembled here too: `hereditary_closure` closes sets under
membership node by node, and `structure_from_sets` and `empty_structure`
build a `Structure` on it.  `_grow` adds sets born at every node, one per
class new there: a definability step's harvests (`hierarchy.def_step`) or
a powerset's selections (`construct.powerset`).
"""

from __future__ import annotations

import functools
import itertools

from .formula import (
    Eq,
    Exists,
    Forall,
    Formula,
    Hole,
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
    relativize,
    render,
)
from .frame import Frame, _require, hits, leq, linear_extension, up_set

_uid_counter = itertools.count()


class KripkeSet:
    """Immutable by convention; build the extension map fully, then freeze.

    Every member predates its set, so its `uid` is smaller and membership
    is well founded: `_labels` recurses into members and always ends, and
    `schema` reports epsilon induction forced without a sweep.  A set keeps
    its class label per node (`classes`); which classes its members fall
    in is read from the frame's table by that label (`Frame.members`)."""

    __slots__ = ("frame", "birth", "ext", "uid", "label", "cone", "classes", "listing")

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
        self.classes = self.listing = None

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
        # covers have strictly smaller up-sets, so they come first; a member
        # is alive wherever it is listed
        for tau in sorted(x.ext, key=lambda t: f.masks[f.pos[t]].bit_count()):
            members = tuple(sorted({(m.classes or _labels(m))[tau] for m in x.ext[tau]}))
            above = tuple(lab[rho] for rho in f.succ[tau])
            c = lab[tau] = f.classes.setdefault((tau, members, above), len(f.classes))
            if c == len(f.members):  # a new label keeps the tuple its key holds
                f.members.append(members)
        x.classes = lab
    return x.classes


def class_at(x: KripkeSet, sigma: str) -> int:
    """x's forced-equality class label at sigma: sets alive at sigma are
    forced equal there iff their labels agree."""
    labels = x.classes or _labels(x)
    if sigma not in labels:
        _require(x.frame, sigma)
        raise ValueError(f"set born at {x.birth!r} is not alive at {sigma!r}")
    return labels[sigma]


def _fresh(cands, sigma: str, known: set[int] | None = None) -> list[KripkeSet]:
    """The earliest candidate of each forced-equality class at sigma whose
    class label is not in `known`; the labels of those kept join it."""
    known = set() if known is None else known
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
    if x.frame is not f or y.frame is not f:
        raise _foreign(f, x, y)
    return class_at(x, sigma) == class_at(y, sigma)


def forced_member(f: Frame, sigma: str, x: KripkeSet, y: KripkeSet) -> bool:
    """x is forced to belong to y at sigma iff some listed member of y at
    sigma is forced equal to x there, that is iff x's label is one of the
    member labels of y's (`Frame.members`)."""
    if x.frame is not f or y.frame is not f:
        raise _foreign(f, x, y)
    return class_at(x, sigma) in f.members[class_at(y, sigma)]


def _foreign(f: Frame, x: KripkeSet, y: KripkeSet) -> ValueError:
    """The error for sets that do not both live on f: labels are interned
    per frame object, so they only compare within one."""
    if x.frame is not y.frame:
        return ValueError("sets live on different frames")
    return ValueError("sets do not live on the given frame")


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
        # `uid` tells this structure's unbounded verdicts apart in a forcing
        # memo, the frame's or a sweep's (see `Sweep`); definability
        # harvests are interned per frame by cone universe (see
        # `hierarchy.harvest_at`), not kept here, but the set-up all its
        # definability engines share is, built on the first harvest that
        # needs an engine (`hierarchy._engine_setup`)
        self.uid, self._engine_setup = next(_structure_uids), None
        if set(universe) != set(frame.nodes):
            raise ValueError("universe must assign a tuple to every node")
        listed: dict[str, set[int]] = {}
        for tau, elems in universe.items():
            uids = listed[tau] = set()
            for x in elems:
                # class labels are interned per frame object (see `_foreign`)
                if x.frame is not frame:
                    raise ValueError(f"universe element {x!r} lives on a different frame")
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
    f: Frame, sets: tuple[KripkeSet, ...], seeds: tuple[KripkeSet, ...] = ()
) -> dict[str, tuple[KripkeSet, ...]]:
    """Per-node universe on f holding the given sets and all members,
    recursively; empty at every node for no sets.

    The members of each seed (not the seed itself) come first, node by node.
    A set or seed must live on f, as a `Structure`'s universe elements must.
    """
    for x in seeds + sets:
        if x.frame is not f:
            raise ValueError(f"universe element {x!r} lives on a different frame")
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
    return Structure(frame=f, universe=hereditary_closure(f, sets), names=dict(names or {}))


def empty_structure(f: Frame) -> Structure:
    return structure_from_sets(f, ())


def _grow(s: Structure, candidates) -> Structure:
    """s with new sets born at every node.  Along a linear extension, node
    sigma keeps the earliest of `candidates(sigma)` in each forced-equality
    class at sigma that is new there: in neither s's universe at sigma nor
    the sets kept below and alive at sigma.  Each kept set joins the
    universe at sigma and at every node above."""
    f = s.frame
    new_by_node: dict[str, list[KripkeSet]] = {}
    carried: list[KripkeSet] = []
    for sigma in linear_extension(f):
        cands = candidates(sigma)
        old = s.universe[sigma] + tuple(c for c in carried if alive(c, sigma))
        new_by_node[sigma] = _fresh(cands, sigma, {class_at(o, sigma) for o in old})
        carried += new_by_node[sigma]
    universe = {
        tau: s.universe[tau]
        + tuple(x for rho in f.nodes if leq(f, rho, tau) for x in new_by_node[rho])
        for tau in f.nodes
    }
    return Structure(frame=f, universe=universe, names=dict(s.names), notes=s.notes)


# ---------------------------------------------------------------- forces


class EvalError(ValueError):
    pass


# forcing masks a memo with no axes, the frame's or a schema check's own,
# holds before a call drops it on entry: a reset also drops the verdicts
# later calls keep reusing, so the bound trades re-forcing those against
# holding dead ones
MEMO_CAP = 1 << 14
# mask bits, a mask as wide as its layout, in each of the two tables of a
# `Sweep` with axes: its memo is dropped on entry to a call once it holds
# this many, its value tables before they would pass it.  Delta0 Comprehension
# at depth 1 with two parameters over V_3 on fan(2) (3 nodes of 73^2 bits)
# peaked at 20.9 MB RSS in 1.0-1.3 s with this bound, 19.4 MB in 1.0-1.2 s
# with half of it and 232 MB in 1.3-1.5 s with none (2 cores, Python 3.11)
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
    _require_alive(phi, sigma, env or {}, {**s.names, **(extra_names or {})})
    return False


def _require_alive(phi: Formula, sigma: str, env: dict, params: dict) -> None:
    """Raise `EvalError` if the value of a free term of phi is dead at sigma."""
    _, _, variables, names = facts(phi)
    for x in (*(env[v] for v in variables), *(params[p] for p in names)):
        if sigma not in x.ext:
            raise EvalError(f"parameter born at {x.birth!r} is dead at {sigma!r}")


def forcing_mask(
    s: Structure,
    phi: Formula,
    env: dict[str, KripkeSet] | None = None,
    extra_names: dict[str, KripkeSet] | None = None,
) -> int:
    """The nodes that force phi under one binding: bit i is set iff
    `Frame.nodes[i]` forces phi.  Bits outside the domain, the meet of the
    cones of the values of phi's free variables and parameters, are 0.
    This is `Sweep.forcing_mask` in a sweep with no names, which raises
    before anything is forced."""
    ctx = Sweep(s, (), extra_names)
    # the one context whose masks outlive it: they serve later calls on the
    # frame, such as `is_branch` at each node of one family
    ctx.memo = s.frame.memo
    return ctx.forcing_mask(phi, env)


class _Axis:
    """One swept parameter: a digit of its sweep's layout.  Its values are
    read where a universe lists them, so its cone is the whole frame."""

    __slots__ = ("uid", "cone", "digit")

    def __init__(self, digit: int, cone: int):
        self.uid, self.cone, self.digit = next(_uid_counter), cone, digit


@functools.cache
def _digits(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Per digit d of k over n elements: its stride, and its period, one
    bit per n strides."""
    return tuple(
        (n ** (k - 1 - d), ((1 << n**k) - 1) // ((1 << n ** (k - d)) - 1) if n > 1 else n)
        for d in range(k)
    )


def _fill(x: int, digit: tuple[int, int]) -> int:
    """The positions of a node whose digit is in x."""
    stride, period = digit
    if stride > 1:  # each element's bit becomes a stride of bits
        x = int(f"{x:b}".translate({48: "0" * stride, 49: "1" * stride}), 2)
    return x * period


class _Layout:
    """The masks of every sweep with names, and the maps of every
    definability engine over one structure: over the frame, node tau owns
    one bit per d-tuple over its universe U(tau) in a map of d digits, for
    each d up to k.  Digit 0 of a tuple is the most significant, so a block
    runs in `itertools.product` order.  `cells` maps node tau to |U(tau)|,
    its offset in a map of each digit count d (at d - 1) and its k digits'
    patterns.  Per digit count d (at d - 1) a map has `bits` positions,
    `full` sets them all, and `runs` are `hits` runs per covering pair in
    `Frame.runs` order, each carrying consecutive positions to consecutive
    images at the cover.  Per node, one bit per element: `index` places an
    element; `same` maps a class label to the elements of that class, and
    `holders` to the elements with a member of it, read from the frame's
    member labels (`Frame.members`); `listed` maps a set to the
    elements that list it, for quantifier ranges and binder domains.  `row`
    reads the elements equal to a class, in it or holding a member of it,
    so every table that `relation` and the engine's atoms read is keyed by
    class."""

    __slots__ = (
        "frame", "universe", "k", "cells", "bits", "full", "runs",
        "index", "same", "holders", "listed",
    )

    def __init__(self, frame: Frame, universe: dict, k: int):
        self.frame, self.universe, self.k = frame, universe, k
        self.cells, self.index, self.same, self.holders, self.listed = {}, {}, {}, {}, {}
        width = (0,) * k
        for tau in frame.nodes:
            index = self.index[tau] = {x: i for i, x in enumerate(universe[tau])}
            n = len(index)
            self.cells[tau] = n, width, _digits(n, k)
            width = tuple(w + n ** (d + 1) for d, w in enumerate(width))
            same, holders, listed = self.same[tau], self.holders[tau], self.listed[tau] = {}, {}, {}
            for x, i in index.items():
                c, bit = _labels(x)[tau], 1 << i
                same[c] = same.get(c, 0) | bit
                for m in frame.members[c]:
                    holders[m] = holders.get(m, 0) | bit
                for m in x.ext[tau]:
                    listed[m] = listed.get(m, 0) | bit
        self.bits, self.full = width, tuple((1 << w) - 1 for w in width)
        self.runs = [[] for _ in range(k)]
        for a, _, b in frame.runs:
            tau, rho = frame.nodes[a], frame.nodes[b]
            img = [self.index[rho][x] for x in universe[tau]]
            src, tgt = self.cells[tau][1], self.cells[rho][1]
            cut, step, above = [[0, 0, 1]], 1, 1
            for d in range(k):
                segments, cut = cut, []
                for j, c in enumerate(img):
                    for p, q, w in segments:
                        p, q = j * step + p, c * above + q
                        if cut and p - cut[-1][0] == q - cut[-1][1] == cut[-1][2]:
                            cut[-1][2] += w
                        else:
                            cut.append([p, q, w])
                step, above = step * len(img), above * len(universe[rho])
                self.runs[d] += [(src[d] + p, (1 << w) - 1, tgt[d] + q) for p, q, w in cut]

    def position(self, values: tuple[KripkeSet, ...], sigma: str) -> int:
        """The bit of the tuple of values, each listed at sigma, at sigma."""
        index, block = self.index[sigma], 0
        for x in values:
            block = block * len(index) + index[x]
        return self.cells[sigma][1][-1] + block

    def spread(self, nodes: int, d: int = 0) -> int:
        """Every position of d digits (k for 0) at the nodes of a node mask
        (bit i: `Frame.nodes[i]`)."""
        out, pos, d = 0, self.frame.pos, d or self.k
        for tau, (n, offs, _) in self.cells.items():
            if nodes >> pos[tau] & 1:
                out |= (1 << n**d) - 1 << offs[d - 1]
        return out

    def lift(self, col: int, digit: int) -> int:
        """The positions of k digits whose digit is in col, a map of one
        digit."""
        out = 0
        for n, offs, digits in self.cells.values():
            x = col >> offs[0] & (1 << n) - 1
            if x:
                out |= _fill(x, digits[digit]) << offs[-1]
        return out

    def row(self, tau: str, c: int, how: str) -> int:
        """The elements at tau equal to class c ("="), in it ("in": the
        union of `same` over c's member labels) or holding it ("has")."""
        if how != "in":
            return (self.same if how == "=" else self.holders)[tau].get(c, 0)
        same, out = self.same[tau], 0
        for m in self.frame.members[c]:
            out |= same.get(m, 0)
        return out

    def rows(self, labels: dict[str, int], how: str) -> int:
        """A map of one digit: at each node of labels, the `row` of the
        class labelled there."""
        return sum(self.row(tau, c, how) << self.cells[tau][1][0] for tau, c in labels.items())

    def relation(self, member: bool, x, y) -> int:
        """The positions of k digits where x is a member of (equal to) y,
        each of x and y a set or a digit, not both sets.  Per node, the
        fixed side, a set or the higher digit's element, reads the `row` of
        its class over the other side's elements."""
        if x.__class__ is int and y.__class__ is int and x == y:
            # a class label is interned after its members': no set is in itself
            return 0 if member else self.full[-1]
        flip = y.__class__ is not int or x.__class__ is int and y < x
        fixed, free = (y, x) if flip else (x, y)
        how = "in" if member and flip else "has" if member else "="
        if fixed.__class__ is not int:  # one class per node
            return self.lift(self.rows(_labels(fixed), how), free)
        out = 0  # per value of the higher digit, a column over the lower
        for tau, (_, offs, digits) in self.cells.items():
            stride, unit = digits[fixed][0], _fill(1, digits[fixed])
            for i, a in enumerate(self.universe[tau]):
                col = self.row(tau, a.classes[tau], how)
                if col:
                    out |= (_fill(col, digits[free]) & unit << i * stride) << offs[-1]
        return out

    def members(self, digit: int) -> tuple[tuple[KripkeSet, int], ...]:
        """Each set an element lists, with the positions whose digit lists
        it."""
        cols: dict[KripkeSet, int] = {}
        for tau, (_, offs, _) in self.cells.items():
            for m, col in self.listed[tau].items():
                cols[m] = cols.get(m, 0) | col << offs[0]
        return tuple((m, self.lift(col, digit)) for m, col in cols.items())


class _Tables(dict):
    """A sweep's masks built from values alone, keyed by what they are
    built from; an int key is a node mask (bit i: `Frame.nodes[i]`) and
    reads as its positions in the layout, spread on first read.  `keep`
    drops every mask first when they would pass SWEEP_BITS bits."""

    __slots__ = ("layout", "held")

    def __init__(self, layout: _Layout | None):
        self.layout, self.held = layout, 0

    def __missing__(self, nodes: int) -> int:
        return self.keep(nodes, self.layout.spread(nodes), self.layout.bits[-1])

    def keep(self, key, value, bits: int):
        if self.held + bits > SWEEP_BITS:
            self.clear()
            self.held = 0
        self.held += bits
        self[key] = value
        return value


def _nodes_where(member: bool, x: KripkeSet, y: KripkeSet, f: Frame) -> int:
    """The nodes where x is a member of (equal to) y: those where x's label
    is one of the member labels of y's label (is y's label)."""
    ys, classes, out = _labels(y), f.members, 0
    for tau, c in _labels(x).items():
        d = ys.get(tau)
        if d is not None and (c in classes[d] if member else c == d):
            out |= 1 << f.pos[tau]
    return out


class Sweep:
    """Forcing under every assignment of some parameters at once: the one
    context the compiled clauses are called with (see the module notes).

    With names, its masks are the maps of k = len(names) digits of one
    `_Layout` over the frame, a digit per name, `names[0]` the most
    significant: bit `position(values, sigma)`, for values listed at sigma,
    is what `forcing_mask` with the names bound to values gives at sigma.
    With no names a sweep is one binding, with no layout: bit i is
    `nodes[i]`.  `extra` is laid over the structure's names either way.

    A sweep keeps formula masks in its own `memo`, of at most `cap` masks:
    MEMO_CAP with no names, SWEEP_BITS bits with them; `forcing_mask` alone
    hands it the frame's memo instead.  The masks built from values alone
    go in `tables`.  Both go with it.  A set in `extra` from another frame
    raises here."""

    __slots__ = ("structure", "uid", "params", "layout", "runs", "full", "memo", "cap", "tables")

    def __init__(self, s: Structure, names: tuple[str, ...], extra: dict | None = None):
        f = s.frame
        self.structure, self.uid = s, s.uid
        self.params = {**s.names, **(extra or {})}
        # class labels only compare within one frame object
        for x in (extra or {}).values():
            if x.frame is not f:
                raise ValueError("bound set lives on a different frame")
        self.layout, self.runs, self.full = None, f.runs, f.masks[f.pos[f.bottom]]
        self.memo, self.cap = {}, MEMO_CAP
        if names:
            self.params.update((name, _Axis(d, self.full)) for d, name in enumerate(names))
            self.layout = lay = _Layout(f, s.universe, len(names))
            self.runs, self.full = lay.runs[-1], lay.full[-1]
            self.cap = max(1, SWEEP_BITS // max(1, lay.bits[-1]))
        self.tables = _Tables(self.layout)

    def forcing_mask(self, phi: Formula, env: dict[str, KripkeSet] | None = None) -> int:
        """phi's mask in this sweep, the one entry to forcing.  Before
        anything is forced, a set in env from another frame raises
        `ValueError`, then an unbound variable or an unknown parameter
        `EvalError`.  The memo is dropped on entry once it holds `cap`
        masks, never in the middle of a call, whose masks are read again."""
        env = env or {}
        for x in env.values():
            if x.frame is not self.structure.frame:
                raise ValueError("bound set lives on a different frame")
        if len(self.memo) >= self.cap:
            self.memo.clear()
        try:
            _, _, variables, names = facts(phi)
            missing = [f"unbound variable {v!r}" for v in variables if v not in env]
            missing += [f"unknown parameter #{p}" for p in names if p not in self.params]
            if missing:
                raise EvalError(missing[0])
            return _code(phi)(self, env)
        except RecursionError:
            raise EvalError("formula nests too deeply to evaluate") from None

    def atom(self, member: bool, x, y, d: int) -> int:
        """The bits of d where x is a member of (equal to) y."""
        if x.__class__ is _Axis or y.__class__ is _Axis:
            return d & self.relation(member, x, y)
        nodes = _nodes_where(member, x, y, self.structure.frame)
        return d & (nodes if self.layout is None else self.tables[nodes])

    def position(self, values: tuple[KripkeSet, ...], sigma: str) -> int:
        """The bit of sigma under the names bound to values, each listed at
        sigma."""
        lay = self.layout
        return self.structure.frame.pos[sigma] if lay is None else lay.position(values, sigma)

    def relation(self, member: bool, x, y) -> int:
        """The bits where x is a member of (equal to) y, one of them an
        axis."""
        key = ("in" if member else "=", x.uid, y.uid)
        got = self.tables.get(key)
        if got is None:
            a, b = (v.digit if v.__class__ is _Axis else v for v in (x, y))
            lay = self.layout
            got = self.tables.keep(key, lay.relation(member, a, b), lay.bits[-1])
        return got

    def listing(self, y):
        """A quantifier's range: each member of y's values (each universe
        element for None) with the bits where it is listed, spread over the
        layout once per bound."""
        if self.layout is None:
            return self.structure.listing if y is None else _listing(y)
        key = ("range", y and y.uid)
        got = self.tables.get(key)
        if got is None:
            if y.__class__ is _Axis:
                got = self.layout.members(y.digit)
            else:
                listed = self.structure.listing if y is None else _listing(y)
                got = tuple((x, self.tables[nodes]) for x, nodes in listed)
            self.tables.keep(key, got, len(got) * self.layout.bits[-1])
        return got


def _code(phi: Formula):
    """phi's memoized forcing function `(ctx, env) -> mask`: bit i is set
    iff bit i lies in phi's domain, the meet of the cones of the values of
    its free variables and parameters, and forces phi.  One function serves
    every `Sweep`: one with no axes is one binding (bit i is `nodes[i]`),
    one with axes has a bit per node and assignment from its universe
    (`_Layout`).  Compiled from its children's functions the first time it
    is asked for and kept on the node; it holds no node, so it is freed
    with phi."""
    try:
        return phi._code
    except AttributeError:
        pass
    serial, bounded, variables, names = facts(phi)
    # a hole's mask is its filling's, kept in the memo under the filling
    make = _memoized(bounded, len(variables), len(names), phi.__class__ is not Hole)
    code = make(_body(phi), serial, *variables, *names)
    object.__setattr__(phi, "_code", code)
    return code


@functools.cache
def _memoized(bounded: bool, nvars: int, nparams: int, memo: bool):
    """The maker of memoized forcing functions for one key shape (with
    memo False, of functions that only meet the body with the domain).

    A key is phi's serial, the context's structure uid unless phi is
    bounded, then the uids of the values of phi's sorted free variables and
    parameters, whose cones meet in the domain; it is looked up in
    `ctx.memo`, whichever memo the context holds (see `Sweep`).  The meet
    of the cones, a node mask, is the domain with no layout and is spread
    over the layout by `ctx.tables`.  The maker is written out as source
    once per shape, as `dataclasses` writes `__init__`: no loop over names,
    and compiled under a file name of its own, so a profile tells the
    shapes apart."""
    vs = [f"v{i}" for i in range(nvars)]
    ps = [f"p{i}" for i in range(nparams)]
    values = [f"env[{v}]" for v in vs] + [f"params[{p}]" for p in ps]
    key = ["serial"] + ([] if bounded else ["ctx.uid"])
    key += [f"a{i}.uid" for i in range(len(values))]
    cones = " & ".join(f"a{i}.cone" for i in range(len(values)))
    spread = f"{cones} if ctx.layout is None else ctx.tables[{cones}]"
    call = f"body(ctx, env, {spread if cones else 'ctx.full'})"
    result = (
        f"        key = ({', '.join(key)},)\n"
        "        memo = ctx.memo\n"
        "        hit = memo.get(key)\n"
        "        if hit is None:\n"
        f"            hit = memo[key] = {call}\n"
        "        return hit\n"
    ) if memo else f"        return {call}\n"
    source = (
        f"def make({', '.join(['body', 'serial', *vs, *ps])}):\n"
        "    def code(ctx, env):\n"
        + ("        params = ctx.params\n" if ps else "")
        + "".join(f"        a{i} = {value}\n" for i, value in enumerate(values))
        + result
        + "    return code\n"
    )
    name = f"<forcing bounded={int(bounded)} vars={nvars} params={nparams}"
    scope: dict = {}
    exec(compile(source, name + ("" if memo else " memo=0") + ">", "exec"), scope)
    return scope["make"]


def _body(phi: Formula):
    """The forcing clause of phi's kind over its children's compiled
    functions, without the memo: `(ctx, env, domain) -> mask`.  The context
    supplies the atom and a quantifier's range; env, a hole's filling."""
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
    if isinstance(phi, Hole):
        name, dom = phi.name, phi.dom
        if dom is None:
            return lambda ctx, env, d: d & env[name].code(ctx, env)
        return lambda ctx, env, d: d & env[name].within(dom)(ctx, env)
    raise EvalError(f"unknown formula node {phi!r}")


class Fill:
    """What a `Hole` is bound to in env: the formula that fills it.  Its
    fresh `uid` keys every mask above the hole, so each swept formula gets
    its own; its `cone` is the frame's full node mask, so it narrows no
    domain; `code` is the formula's forcing function, and `within` gives
    that of its relativization to a term, compiled on first use."""

    __slots__ = ("frame", "uid", "cone", "phi", "code", "relativized")

    def __init__(self, frame: Frame, phi: Formula):
        self.frame, self.uid, self.phi = frame, next(_uid_counter), phi
        self.cone = frame.masks[frame.pos[frame.bottom]]
        self.code, self.relativized = _code(phi), {}

    def within(self, dom: Term):
        got = self.relativized.get(dom)
        if got is None:
            got = self.relativized[dom] = _code(relativize(self.phi, dom))
        return got


def _listing(y: KripkeSet):
    """Each member of y with the nodes where it is listed, kept on y."""
    if y.listing is None:
        y.listing = _listed(y.ext, y.frame.pos)
    return y.listing


def _listed(ext: dict[str, tuple[KripkeSet, ...]], pos: dict[str, int]):
    """Each set listed in ext with the mask of the nodes it is listed at."""
    where: dict[KripkeSet, int] = {}
    for tau, elems in ext.items():
        for x in elems:
            where[x] = where.get(x, 0) | 1 << pos[tau]
    return tuple(where.items())


def _term(t: Term):
    """t's value; `Sweep.forcing_mask` checked on entry that every term is
    bound."""
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
