"""Definability steps and constructible towers over internal sets.

The structures these start from are assembled in `semantics`, beside
`Structure` (`hereditary_closure`, `structure_from_sets`,
`empty_structure`), and are imported from there, so a process that only
loads a structure file without `L` lines never imports this module.  Nor
do the schema checks: the lemma battery, which steps towers, is a module
of its own (`lemmas`).  Nor do powersets, carved subsets and fixed points,
which run no engine: they live in `construct`, beside the selections.  A
step adds its harvests as `powerset` adds its selections, through
`semantics._grow`.

The definability engine works per birth node.  It represents a candidate
definable subset as a map: one int laid out as a sweep mask by its
structure's pair `semantics._Layout` over the frame, a bit per element of
each cone node's universe, or per pair for maps of two variables, and none
outside the cone.  That layout, the pair maps of `a in b`, `b in a` and
`a = b` and the zone's map are built once per structure, on the first
harvest that needs an engine, and kept on it (`Structure._engine_setup`);
each engine reads them whole and keeps only its cone's `full` masks.  It
seeds the pool with the pair maps and every atom of one variable, met with
the cone, and closes under the connective and quantifier operations round
by round.  A parameter's atoms are the layout's rows of its class
(`_Layout.rows`), read by label like every table of the layout, once per
structure, and kept with the set-up.  A cone with no element needs no
engine: its closure holds the empty map alone and its first round is
quiet.  Maps are saturated under forced equality automatically because
the atoms are, so distinct maps denote semantically distinct sets and map
equality is an exact deduplication rule.

Conjunction and disjunction are `&` and `|` on the whole map, and the
existential binder ORs columns of a pair map into place, one precomputed
shift per column.  Negation, implication and the universal binder are one
Heyting interior: keep the positions whose image at every node above lies
outside a "bad" mask: the cone's `full` mask less forcing's `frame.hits`
over the layout's runs, the clause forcing uses for negation, memoized for
the engine's lifetime.  Runs from below the cone only write bits below it,
which the meet with `full` drops.  Negation takes the map itself as the
bad mask, implication `m1 & ~m2`, and the universal binder the positions
with a missing pair in the binder's domain.  A map of the defined variable
enters the pair pool in either digit through the layout's `lift`.

The fragment is bounded on purpose: one live bound variable besides the
defined one (relation maps of arity two), round count given by
`formula_depth`, at most `POOL_CAP` maps of each arity, and at most
`HARVEST_CAP` harvested sets per birth node.  When a cap bites, the result
is flagged truncated and downstream reports say under-enumeration rather
than failure.  The closure ends after the first round that adds nothing, and
a harvest is flagged stabilized when such a round ended it and no cap bit.
The closure stops in whichever round grows the pool past `HARVEST_CAP` fresh
maps: the harvest is decided then.  At a maximal node forcing is classical,
so the cone's maps of one variable are unions of its c forced-equality
classes, and a unary pool of min(`POOL_CAP`, 2**c) maps holds them all: the
unary connectives and the binders stop at that bound as they stop at
`POOL_CAP` elsewhere, while the pair work runs on, so the pool and both flags
are those of the full closure.  The first round emits unions of equality
atoms, successor shapes, and stage cuts before anything else, so the sets the
fixtures of `lemmas` rely on precede the cap.
Harvests are interned per frame by the universes of the birth node's cone
(`frame._intern`).
"""

from __future__ import annotations

import functools
from itertools import compress

from .formula import Formula, parse
from .frame import _intern, _Record, hits, linear_extension, up_set
from .semantics import (
    KripkeSet,
    Structure,
    _fresh,
    _grow,
    _Layout,
    alive,
    class_at,
    empty_structure,
    forcing_mask,
    is_ordinal,
)

HARVEST_CAP = 56
POOL_CAP = 2048
_BITS = bytes.maketrans(b"01", b"\0\1")


class DefConfig(_Record):
    __slots__ = ("formula_depth",)

    def __init__(self, formula_depth: int = 4):
        if formula_depth < 1:
            raise ValueError("formula_depth must be >= 1")
        self._fill(formula_depth)


# --------------------------------------------------------- the def engine


class _Decided(Exception):
    """The harvest is decided; the rest of the closure is skipped."""


def _bounded_pool():
    """An empty pool of maps, its push, which keeps each map once, in order,
    until the pool holds POOL_CAP maps, and `stop`: once the pool holds
    `stop[0]` maps, push raises `_Decided` whenever it adds one."""
    pool: list[int] = []
    seen: set[int] = set()
    stop = [POOL_CAP + 1]

    def push(m: int) -> None:
        if m not in seen and len(pool) < POOL_CAP:
            seen.add(m)
            pool.append(m)
            if len(pool) >= stop[0]:
                raise _Decided

    return pool, push, stop


@functools.cache
def _zone() -> Formula:
    """Emptiness is decided for every later element: E(w) or not E(w), with
    E(w) forced exactly where w is forced empty."""
    empty = "forall v in w . ~(v = v)"
    return parse(f"forall w . (({empty}) \\/ ~({empty}))")


def _engine_setup(s: Structure) -> tuple[_Layout, list[int], int, dict]:
    """What every engine over s reads, built on the first call and kept on
    s: the pair layout over the frame, the pair maps of `a in b`, `b in a`
    and `a = b`, the zone's map of one variable, and the atoms of each
    parameter an engine has read: its maps of one variable over its own
    cone, the elements equal to it, in it and holding it, which are its
    class's rows (`_Layout.rows`)."""
    if s._engine_setup is None:
        lay = _Layout(s.frame, s.universe, 2)
        relations = [lay.relation(True, 1, 0), lay.relation(True, 0, 1), lay.relation(False, 1, 0)]
        # one mask for the sentence _zone(): bit i is frame node i
        zone = lay.spread(forcing_mask(s, _zone()), 1)
        s._engine_setup = lay, relations, zone, {}
    return s._engine_setup


class _Engine:
    """Bitmask closure over one birth node of one base structure.

    A map is one int laid out by `layout`, the structure's pair
    `semantics._Layout` over the frame (`_engine_setup`), with no bit
    outside the cone: the defined variable alone (arity 1) has one digit, a
    pair (arity 2) two.  In a pair (i, j) the defined variable i is the low
    digit, the layout's digit 1: bit `j * n + i`, n the size of the universe
    there, so column j is a contiguous stretch of bits.  A map of one
    variable reads as a pair map through `_Layout.lift`.  A map is the sweep
    mask of its formula within the cone, #A the defined variable, or #A for
    j and #B for i.  `full` holds every position of the cone per arity;
    the layout's cells and runs are read whole.  `interiors` memoizes
    `interior` per arity, which also gives implication.  `params` are the
    elements of the universe at the birth node, and `binders` the domains
    of the second variable: the defined variable's members, the universe,
    then each parameter's listed members.  A domain is a list of (column
    shift, column mask, target shift) triples, one per nonempty column: the
    positions i whose domain holds the column's element.  `cap` is the size
    at which the unary pool is full (`run`).
    """

    def __init__(self, s: Structure, sigma: str, cfg: DefConfig):
        f = s.frame
        self.s, self.cfg, self.cone = s, cfg, up_set(f, sigma)
        self.layout = lay = _engine_setup(s)[0]
        self.full = tuple(lay.spread(f.masks[f.pos[sigma]], d) for d in (1, 2))
        self.interiors: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self.truncated = self.stabilized = False
        # a one-node cone forces classically: its 2**c unions of classes are
        # all the maps of one variable there are
        self.cap = min(POOL_CAP, 2 ** len(lay.same[sigma])) if len(self.cone) == 1 else POOL_CAP
        self.params = s.universe[sigma]
        own, every, each = [], [], [[] for _ in self.params]
        for tau in self.cone:
            n, (o1, o2), _ = lay.cells[tau]
            index, listed, r = lay.index[tau], lay.listed[tau], (1 << n) - 1
            own += [(o2 + j * n, listed[x], o1) for x, j in index.items() if x in listed]
            every += [(o2 + j * n, r, o1) for j in range(n)]
            for dom, p in zip(each, self.params):
                dom += [(o2 + index[m] * n, r, o1) for m in p.ext[tau]]
        self.binders = [own, every, *each]

    def atom_maps(self) -> tuple[list, list, list, list, list]:
        """Atomic maps grouped: equality with, membership in, and membership
        of each parameter; the remaining fixed maps; and the pair maps for
        `a in b`, `b in a` and `a = b`.  The pair maps and the zone's are
        the structure's (`_engine_setup`) within the cone, and a
        parameter's maps are its atoms there, met with the cone."""
        lay, relations, zone, atoms = _engine_setup(self.s)
        one, two = self.full
        for p in self.params:
            if p not in atoms:
                atoms[p] = [lay.rows(p.classes, how) for how in ("=", "in", "has")]
        return (
            *([atoms[p][k] & one for p in self.params] for k in range(3)),
            # #A in #A is 0: no set is a member of itself (`_Layout.relation`)
            [one, 0, zone & one],
            [m & two for m in relations],
        )

    # ---- cone operations

    def interior(self, bad: int, arity: int) -> int:
        """The positions whose image at every cone node above lies outside
        `bad`: negation of `bad`, and with `bad = m1 & ~m2` implication."""
        memo = self.interiors[arity - 1]
        out = memo.get(bad)
        if out is None:
            out = memo[bad] = self.full[arity - 1] & ~hits(self.layout.runs[arity - 1], bad)
        return out

    def exists2(self, m2: int, dom) -> int:
        """Bind the second variable at the node: i stays when some j in its
        domain makes a pair (i, j) of the map."""
        out = 0
        for shift, col, tgt in dom:
            out |= (m2 >> shift & col) << tgt
        return out

    def forall2(self, m2: int, dom) -> int:
        """Bind the second variable over the cone: no pair (i, j) with j in
        the domain may be missing from the map at any node above."""
        return self.interior(self.exists2(self.full[1] ^ m2, dom), 1)

    # ---- the closure loop

    def connectives(self, pool: list, push, base: list, arity: int) -> None:
        """One round of interiors and pairwise or/and/imp (and/or/imp for
        pairs) over `base`; no work once `pool` is full, which for maps of
        one variable means `cap` maps (see `run`).  Or and and are
        symmetric and idempotent, and `push` ignores a map it has seen, so
        they are taken once per unordered pair of distinct maps, at its
        first ordered occurrence, and the pool comes out the same."""
        cap = self.cap if arity == 1 else POOL_CAP
        if len(pool) >= cap:
            return
        interior = self.interior
        for m in base:
            push(interior(m, arity))
        for a, m1 in enumerate(base):
            if len(pool) >= cap:
                break
            for b, m2 in enumerate(base):
                if b > a:
                    push(m1 | m2 if arity == 1 else m1 & m2)
                    push(m1 & m2 if arity == 1 else m1 | m2)
                push(interior(m1 & ~m2, arity))

    def run(self) -> list[int]:
        """The unary pool after at most `formula_depth` rounds, which end
        early once a round adds nothing (stabilized), a pool reaches
        POOL_CAP maps (truncated) or the harvest is decided (truncated).
        Binding and the unary connectives stop once the unary pool holds
        `cap` maps: POOL_CAP, or at a maximal node the 2**c unions of its c
        classes, when fewer, since every map there is one of them."""
        eq, mem, has, fixed, pairs = self.atom_maps()
        self.mem, zone_map = set(mem), fixed[-1]
        lift = self.layout.lift
        pool1, push1, stop = _bounded_pool()
        pool2, push2, _ = _bounded_pool()
        for m in eq:
            push1(m)
        push1(fixed[0])
        # curated early shapes: two-element unions, successor shapes, and
        # stage cuts against the emptiness-decidable zone come before the
        # harvest cap can bite
        for a in range(len(eq)):
            for b in range(a + 1, len(eq)):
                push1(eq[a] | eq[b])
        for a in range(len(eq)):
            push1(mem[a] | eq[a])
        for m in eq:
            push1(self.interior(m & ~zone_map, 1))
        for m in mem + has + fixed:
            push1(m)
        for m in pairs:
            push2(m)

        bound = 0  # pool2[:bound] is bound already; its results are in pool1
        # append-only pool: past HARVEST_CAP fresh maps the born ones are fixed,
        # and push raises only on growth, so the round is not quiet
        stop[0] = len(self.mem) + HARVEST_CAP + 1
        try:
            for _ in range(self.cfg.formula_depth):
                before = len(pool1) + len(pool2)
                base1 = list(pool1)
                base2 = list(pool2)
                self.connectives(pool1, push1, base1, 1)
                # pool2 is never full here: a full pool ends the loop
                # in a pair map the defined variable is digit 1, the second digit 0
                for m in base1:
                    push2(lift(m, 1))
                    push2(lift(m, 0))
                self.connectives(pool2, push2, base2, 2)
                for m in pool2[bound:]:
                    if len(pool1) >= self.cap:
                        break
                    for dom in self.binders:
                        push1(self.exists2(m, dom))
                        push1(self.forall2(m, dom))
                bound = len(pool2)
                # a full pool may have lost candidates, now or in a later round
                self.truncated = len(pool1) >= POOL_CAP or len(pool2) >= POOL_CAP
                if self.truncated:
                    break
                # a quiet round has bound all of pool2; the next would repeat it
                if len(pool1) + len(pool2) == before:
                    self.stabilized = True
                    break
        except _Decided:  # the rest of the closure is skipped
            self.truncated = True
        return pool1

    def decode(self, m: int) -> dict[str, tuple[KripkeSet, ...]]:
        out = {}
        for tau in self.cone:
            n, (one, _), _ = self.layout.cells[tau]
            # bit i keeps element i: binary digits lowest first, as bytes 0, 1
            bits = bin(m >> one & (1 << n) - 1)[:1:-1].encode().translate(_BITS)
            out[tau] = tuple(compress(self.s.universe[tau], bits))
        return out


def harvest_at(
    s: Structure, sigma: str, cfg: DefConfig
) -> tuple[list[KripkeSet], bool, bool]:
    """Definable subsets born at sigma over the given base structure.

    Returns (fresh set objects in canonical order, truncated, stabilized).
    Maps matching the forced-membership profile of an existing universe
    element are dropped; that element already is the set in question.
    Results are interned per frame, keyed by node, config and the universes
    of the cone (all the engine reads), so repeated calls, and structures
    that agree on the cone, share the same objects.
    """
    f = s.frame
    up = up_set(f, sigma)
    cone = tuple(tuple(x.uid for x in s.universe[tau]) for tau in up)

    def build() -> tuple[list[KripkeSet], bool, bool]:
        if not any(cone):  # the empty map alone, after a quiet first round
            return [KripkeSet(f, sigma, dict.fromkeys(up, ()), f"def{sigma}#0")], False, True
        eng = _Engine(s, sigma, cfg)
        maps = eng.run()
        # the membership maps of the parameters are the profiles of the
        # universe elements at sigma; the pool holds each map once
        fresh = [m for m in maps if m not in eng.mem]
        born = [
            KripkeSet(f, sigma, eng.decode(m), f"def{sigma}#{k}")
            for k, m in enumerate(fresh[:HARVEST_CAP])
        ]
        return born, eng.truncated or len(fresh) > HARVEST_CAP, eng.stabilized

    return _intern(f, ("harvest", sigma, cfg, cone), build)


def def_step(s: Structure, cfg: DefConfig = DefConfig()) -> Structure:
    """One definability step over the whole structure: every node contributes
    the subsets definable there; old sets persist and duplicates collapse
    onto the earliest representative."""
    flags = {"truncated": False, "stabilized": False}

    def harvest(sigma: str) -> list[KripkeSet]:
        born, trunc, stab = harvest_at(s, sigma, cfg)
        flags["truncated"] |= trunc
        flags["stabilized"] |= stab
        return born

    out = _grow(s, harvest)
    out.meta.update(flags)
    return out


def iterate_def(s: Structure, steps: int, cfg: DefConfig = DefConfig()) -> Structure:
    if steps < 0:
        raise ValueError("steps must be >= 0")
    for _ in range(steps):
        s = def_step(s, cfg)
    return s


# ----------------------------------------------------- towers over a set


def def_along(x: KripkeSet, cfg: DefConfig = DefConfig()) -> Structure:
    """The constructible tower over an internal set: at each node, union the
    definability steps over the towers of the members present there.

    Earlier-born sets are carried upward, so universes grow literally along
    the order; a fresh harvest forced equal to something already present is
    dropped in its favor.  Towers are interned per frame.
    """
    f = x.frame

    def build() -> Structure:
        member_towers = {
            m.uid: def_along(m, cfg) for tau in f.nodes if alive(x, tau) for m in x.ext[tau]
        }
        universe: dict[str, tuple[KripkeSet, ...]] = {}
        truncated = stabilized = False
        for tau in linear_extension(f):
            # the nodes done so far, in order, that lie below tau
            t = f.pos[tau]
            pool = {
                e.uid: e
                for rho, elems in universe.items()
                if f.masks[f.pos[rho]] >> t & 1
                for e in elems
            }
            # the class labels at tau of everything pooled, which is alive there
            known = {class_at(e, tau) for e in pool.values()}
            if alive(x, tau):
                for m in x.ext[tau]:
                    tower = member_towers[m.uid]
                    for e in tower.universe[tau]:
                        if e.uid not in pool:
                            pool[e.uid] = e
                            known.add(class_at(e, tau))
                    born, trunc, stab = harvest_at(tower, tau, cfg)
                    truncated |= trunc
                    stabilized |= stab
                    # a harvest forced equal to one pooled is dropped
                    pool.update((c.uid, c) for c in _fresh(born, tau, known))
            universe[tau] = tuple(pool.values())
        out = Structure(frame=f, universe=universe, names={})
        out.meta["truncated"] = truncated
        out.meta["stabilized"] = stabilized
        return out

    return _intern(f, ("tower", x.uid, cfg), build)


def constructible(x: KripkeSet, cfg: DefConfig = DefConfig()) -> Structure:
    """The tower over an internal ordinal; rejects non-ordinal stages."""
    # is_ordinal forces bounded formulas, which read no universe
    if not is_ordinal(empty_structure(x.frame), x):
        raise ValueError("constructible towers are indexed by internal ordinals")
    return def_along(x, cfg)
