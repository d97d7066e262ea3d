"""Definability steps, constructible towers over internal sets, powersets,
and inductive fixed points.

The structures these start from are assembled in `semantics`, beside
`Structure` (`hereditary_closure`, `structure_from_sets`,
`empty_structure`), so a process that only loads a structure file without
`L` lines never imports this module.

The definability engine works per birth node.  It represents a candidate
definable subset as a map: one int holding a bitmask over the universe at
every cone node (or over its pairs, for maps of two variables), each node in
its own fixed block of bits.  It seeds the pool with atomic membership and
equality maps and closes under the connective and quantifier operations
round by round.  Maps are saturated under forced equality automatically
because the atoms are, so distinct maps denote semantically distinct sets
and map equality is an exact deduplication rule.

Conjunction and disjunction are `&` and `|` on the whole map, and the
existential binder ORs columns of a pair map into place, one precomputed
shift per column.  Negation, implication and the universal binder all sweep
the cone, and all are one Heyting interior: keep the positions whose image
at every node above lies outside a "bad" mask.  `_Engine.interior` is that
sweep, forcing's `frame.hits` over run tables built once per engine from the
cone's covering pairs, memoized for the engine's lifetime.  Negation takes
the map itself as the bad mask, implication `m1 & ~m2`, and the universal
binder the positions with a missing pair in the binder's domain.

The fragment is bounded on purpose: one live bound variable besides the
defined one (relation maps of arity two), round count given by
`formula_depth`, at most `POOL_CAP` maps of each arity, and at most
`HARVEST_CAP` harvested sets per birth node.  When a cap bites, the result
is flagged truncated and downstream reports say under-enumeration rather
than failure.  The closure ends after the first round that adds nothing, and
a harvest is flagged stabilized when such a round ended it and no cap bit.
The closure stops in whichever round grows the pool past `HARVEST_CAP` fresh
maps: the harvest is decided then.  The first round emits unions of equality
atoms, successor shapes, and stage cuts before anything else, so the sets the
lemma fixtures rely on precede the cap.
Harvests are interned per frame by the universes of the birth node's cone.
"""

from __future__ import annotations

import functools
from itertools import accumulate, islice

from .formula import Formula, free_vars, is_positive_in, parse
from .frame import Frame, _Record, hits, leq, linear_extension, up_set
from .construct import (
    POWERSET_CAP,
    _ChoiceTable,
    _intern,
    is_branch,
)
from .semantics import (
    KripkeSet,
    Structure,
    _fresh,
    alive,
    class_at,
    empty_structure,
    forces,
    forcing_mask,
    is_ordinal,
    structure_from_sets,
    universe_at,
)

HARVEST_CAP = 56
POOL_CAP = 2048


class DefConfig(_Record):
    __slots__ = ("formula_depth",)

    def __init__(self, formula_depth: int = 4):
        if formula_depth < 1:
            raise ValueError("formula_depth must be >= 1")
        self._fill(formula_depth)


def _shared_empty(f: Frame) -> Structure:
    return _intern(f, ("empty_base",), lambda: empty_structure(f))


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


@functools.cache
def _patterns(n: int) -> tuple[int, int]:
    """Bit 0 of each of n columns of n bits, and n bits spaced n - 1 apart."""
    return sum(1 << j * n for j in range(n)), sum(1 << j * (n - 1) for j in range(n))


def _runs(segments) -> list[list[int]]:
    """Merge (position, image, width) segments, given in position order, into
    maximal runs of consecutive positions with consecutive images."""
    out: list[list[int]] = []
    for p, q, w in segments:
        if out and p - out[-1][0] == q - out[-1][1] == out[-1][2]:
            out[-1][2] += w
        else:
            out.append([p, q, w])
    return out


class _Engine:
    """Bitmask closure over one birth node of one base structure.

    A map is one int over the whole cone.  The k-th cone node owns `n` bits
    at `off[0][k]` for maps of the defined variable alone (arity 1) and `n*n`
    bits at `off[1][k]` for pair maps (arity 2), with n the size of the
    universe there; `block` reads one node's bits.  Pair maps are j-major:
    the pair (i, j), i the defined variable, is bit `j * n + i`, so column j
    is a contiguous stretch of bits.

    `runs` holds, per arity, `hits` runs, one group per covering pair of the
    cone in `Frame.runs` order: each carries consecutive positions at a node
    to consecutive images at its cover, cut where the images stop being
    consecutive.  A prefix universe below needs one run (one per column of a
    pair map); an empty node none.  `interiors` memoizes `interior` per arity.
    """

    def __init__(self, s: Structure, sigma: str, cfg: DefConfig):
        self.s = s
        self.f = f = s.frame
        self.sigma = sigma
        self.cfg = cfg
        self.cone = up_set(f, sigma)
        idx = {tau: k for k, tau in enumerate(self.cone)}
        self.elems = {tau: s.universe[tau] for tau in self.cone}
        self.pos = {
            tau: {x.uid: i for i, x in enumerate(self.elems[tau])} for tau in self.cone
        }
        self.ns = ns = tuple(len(self.elems[tau]) for tau in self.cone)
        self.off = off1, off2 = tuple(
            tuple(accumulate((n**a for n in ns[:-1]), initial=0)) for a in (1, 2)
        )
        self.full = tuple(
            sum((1 << n**a) - 1 << o for n, o in zip(ns, off))
            for a, off in zip((1, 2), self.off)
        )
        # one run group per covering pair of the cone, top nodes first
        runs1, runs2 = [], []
        for a, _, b in f.runs:
            tau, rho = f.nodes[a], f.nodes[b]
            k = idx.get(tau)
            if k is None or not ns[k]:
                continue
            n, r = ns[k], idx[rho]
            img = [self.pos[rho][x.uid] for x in self.elems[tau]]
            cut = _runs((p, q, 1) for p, q in enumerate(img))
            # column j of a pair map lands in column img[j] above
            cut2 = _runs(
                (j * n + p, c * ns[r] + q, w) for j, c in enumerate(img) for p, q, w in cut
            )
            runs1 += [(off1[k] + p, (1 << w) - 1, off1[r] + q) for p, q, w in cut]
            runs2 += [(off2[k] + p, (1 << w) - 1, off2[r] + q) for p, q, w in cut2]
        self.runs = (runs1, runs2)
        self.interiors: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self.truncated = False
        self.stabilized = False

    def block(self, m: int, k: int, arity: int) -> int:
        """The bits of map `m` at the k-th cone node."""
        return m >> self.off[arity - 1][k] & (1 << self.ns[k] ** arity) - 1

    def atom_maps(self) -> tuple[list, list, list, list, list]:
        """Atomic maps grouped: equality with, membership in, and membership
        of each parameter; the remaining fixed maps; and the pair maps for
        `a in b`, `b in a` and `a = b`.  Each node's blocks are built apart
        and placed once."""
        params = self.elems[self.sigma]
        eq_p, in_p, has_p = ([0] * len(params) for _ in range(3))
        ins = has = eqs = selfin = zone_map = 0
        # one mask for the sentence _zone(): bit i is frame node i
        zone, bit = forcing_mask(self.s, _zone()), self.s.frame.pos
        for k, tau in enumerate(self.cone):
            es = self.elems[tau]
            n, o1, o2 = len(es), self.off[0][k], self.off[1][k]
            # same[c]: the positions whose class label at tau is c; the
            # universe is membership-closed, so every member's class is here
            same: dict[int, int] = {}
            for i, a in enumerate(es):
                c = class_at(a, tau)
                same[c] = same.get(c, 0) | 1 << i
            ins_k = has_k = eqs_k = selfin_k = 0
            for j, b in enumerate(es):
                col = 0
                for m in b.ext[tau]:
                    col |= same[class_at(m, tau)]
                ins_k |= col << j * n
                eqs_k |= same[class_at(b, tau)] << j * n
                selfin_k |= (col >> j & 1) << j
                # has is ins transposed: one bit per member position of b
                while col:
                    low = col & -col
                    has_k |= 1 << (low.bit_length() - 1) * n + j
                    col ^= low
            ins |= ins_k << o2
            has |= has_k << o2
            eqs |= eqs_k << o2
            selfin |= selfin_k << o1
            # a parameter's columns: the positions paired with it
            r = (1 << n) - 1
            for t, p in enumerate(params):
                j = self.pos[tau][p.uid] * n
                eq_p[t] |= (eqs_k >> j & r) << o1
                in_p[t] |= (ins_k >> j & r) << o1
                has_p[t] |= (has_k >> j & r) << o1
            if zone >> bit[tau] & 1:
                zone_map |= r << o1
        return eq_p, in_p, has_p, [self.full[0], selfin, zone_map], [ins, has, eqs]

    # ---- cone operations

    def interior(self, bad: int, arity: int) -> int:
        """The positions whose image at every cone node above lies outside
        `bad`: negation of `bad`, and with `bad = m1 & ~m2` implication."""
        memo = self.interiors[arity - 1]
        out = memo.get(bad)
        if out is None:
            out = memo[bad] = self.full[arity - 1] ^ hits(self.runs[arity - 1], bad)
        return out

    def imp(self, m1: int, m2: int, arity: int) -> int:
        return self.interior(m1 & ~m2, arity)

    def lift(self, m: int, slot: int) -> int:
        """A map of the defined variable read as a pair map in one slot."""
        # slot 0: every column is the node's block x: x times the column
        # pattern.  Slot 1: column j is full when j is in x: a full column
        # times x's bits spread n apart (times the step pattern moves bit
        # i < n - 1 to i * n without carries; the top bit is moved apart).
        out = 0
        for n, o1, o2 in zip(self.ns, *self.off):
            r = (1 << n) - 1
            x = m >> o1 & r
            cols, steps = _patterns(n)
            if slot == 0:
                out |= x * cols << o2
            elif x:
                spread = (x & r >> 1) * steps & cols | (x >> n - 1) << (n - 1) * n
                out |= r * spread << o2
        return out

    def binders(self) -> list[tuple[tuple[int, int, int], ...]]:
        """Domains of the second variable: the defined variable's members,
        the universe, then each parameter's members.  A domain is a list of
        (column shift, column mask, target shift) triples, one per nonempty
        column: the positions i whose domain holds the column's element."""
        params = self.elems[self.sigma]
        own, every = [], []
        each: list[list[tuple[int, int, int]]] = [[] for _ in params]
        for tau, n, o1, o2 in zip(self.cone, self.ns, *self.off):
            pos, r = self.pos[tau], (1 << n) - 1
            cols = [0] * n
            for i, x in enumerate(self.elems[tau]):
                for m in x.ext[tau]:
                    cols[pos[m.uid]] |= 1 << i
            own += [(o2 + j * n, c, o1) for j, c in enumerate(cols) if c]
            every += [(o2 + j * n, r, o1) for j in range(n)]
            for dom, p in zip(each, params):
                dom += [(o2 + pos[m.uid] * n, r, o1) for m in p.ext[tau]]
        return [tuple(d) for d in [own, every] + each]

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
        pairs) over `base`; no work once `pool` is full.  Or and and are
        symmetric and idempotent, and `push` ignores a map it has seen, so
        they are taken once per unordered pair of distinct maps, at its
        first ordered occurrence, and the pool comes out the same."""
        if len(pool) >= POOL_CAP:
            return
        interior = self.interior
        for m in base:
            push(interior(m, arity))
        for a, m1 in enumerate(base):
            if len(pool) >= POOL_CAP:
                break
            for b, m2 in enumerate(base):
                if b > a:
                    push(m1 | m2 if arity == 1 else m1 & m2)
                    push(m1 & m2 if arity == 1 else m1 | m2)
                push(interior(m1 & ~m2, arity))

    def run(self) -> list[int]:
        eq, mem, has, fixed, pairs = self.atom_maps()
        self.mem, zone_map = set(mem), fixed[-1]
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
            push1(self.imp(m, zone_map, 1))
        for m in mem + has + fixed:
            push1(m)
        for m in pairs:
            push2(m)

        binders = self.binders()
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
                for m in base1:
                    push2(self.lift(m, 0))
                    push2(self.lift(m, 1))
                self.connectives(pool2, push2, base2, 2)
                for m in pool2[bound:]:
                    if len(pool1) >= POOL_CAP:
                        break
                    for dom in binders:
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
        for tau, n, o in zip(self.cone, self.ns, self.off[0]):
            b = m >> o & (1 << n) - 1
            out[tau] = tuple(x for i, x in enumerate(self.elems[tau]) if b >> i & 1)
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

    def build() -> tuple[list[KripkeSet], bool, bool]:
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

    cone = tuple(tuple(x.uid for x in s.universe[tau]) for tau in up_set(f, sigma))
    return _intern(f, ("harvest", sigma, cfg, cone), build)


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
        new_by_node[sigma] = _fresh(cands, sigma, old)
        carried += new_by_node[sigma]
    universe = {
        tau: s.universe[tau]
        + tuple(x for rho in f.nodes if leq(f, rho, tau) for x in new_by_node[rho])
        for tau in f.nodes
    }
    return Structure(frame=f, universe=universe, names=dict(s.names), notes=s.notes)


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
        order = linear_extension(f)
        for tau in order:
            pool = {
                e.uid: e
                for rho in order
                if rho != tau and leq(f, rho, tau)
                for e in universe[rho]
            }
            if alive(x, tau):
                for m in x.ext[tau]:
                    tower = member_towers[m.uid]
                    for e in tower.universe[tau]:
                        pool.setdefault(e.uid, e)
                    born, trunc, stab = harvest_at(tower, tau, cfg)
                    truncated |= trunc
                    stabilized |= stab
                    # everything pooled at tau is alive there
                    pool.update((c.uid, c) for c in _fresh(born, tau, pool.values()))
            universe[tau] = tuple(pool.values())
        out = Structure(frame=f, universe=universe, names={})
        out.meta["truncated"] = truncated
        out.meta["stabilized"] = stabilized
        return out

    return _intern(f, ("tower", x.uid, cfg), build)


def constructible(x: KripkeSet, cfg: DefConfig = DefConfig()) -> Structure:
    """The tower over an internal ordinal; rejects non-ordinal stages."""
    probe = structure_from_sets(x.frame, (x,))
    if not is_ordinal(probe, x):
        raise ValueError("constructible towers are indexed by internal ordinals")
    return def_along(x, cfg)


# ---------------------------------------------------------------- powerset


def powerset(s: Structure) -> Structure:
    """All monotone selections from the universe, born at every node."""
    f = s.frame
    singletons = {tau: tuple((y,) for y in s.universe[tau]) for tau in f.nodes}
    # one table for every cone: a node's choices depend only on what it must pick
    table = _ChoiceTable(f, singletons)
    topo = linear_extension(f)

    def selections(sigma: str):
        cone = [tau for tau in topo if leq(f, sigma, tau)]
        # the empty choice below every node always extends, so the final
        # count bounds every partial one and one cap covers them all
        families = list(
            islice(table.selections(cone), POWERSET_CAP + 1)
        )
        if len(families) > POWERSET_CAP:
            raise ValueError("powerset too large to enumerate; shrink the structure")
        return (KripkeSet(f, sigma, fam, f"pow{sigma}") for fam in families)

    return _grow(s, selections)


# ------------------------------------------------------------ fixed points


def _carve(
    s: Structure,
    sigma: str,
    phi: Formula,
    pool: dict[str, tuple[KripkeSet, ...]],
    extra_names: dict[str, KripkeSet] | None,
    label: str,
) -> KripkeSet:
    """The set born at sigma whose extension at each node of its cone is the
    members of pool there that force phi with x bound to them."""
    f = s.frame
    ext = {
        tau: tuple(a for a in pool[tau] if forces(s, tau, phi, {"x": a}, extra_names))
        for tau in up_set(f, sigma)
    }
    return KripkeSet(f, sigma, ext, label)


def gamma_apply(s: Structure, x: KripkeSet, psi: Formula, ysub: KripkeSet) -> KripkeSet:
    """One application of the operator carving {a in x : psi(a, Y)}; psi
    reads a as its only free variable x and Y as the parameter #Y."""
    if not is_positive_in(psi, "Y"):
        raise ValueError("formula is not positive in 'Y'")
    if free_vars(psi) != {"x"}:
        raise ValueError("the only free variable must be the selection variable 'x'")
    return _carve(s, x.birth, psi, x.ext, {"Y": ysub}, "gamma")


def _fixed_point(
    s: Structure, x: KripkeSet, psi: Formula, stage: KripkeSet
) -> tuple[KripkeSet, list[KripkeSet]]:
    trace = [stage]
    while True:
        nxt = gamma_apply(s, x, psi, stage)
        if nxt.ext == stage.ext:  # both cover x's cone; sets compare by identity
            return stage, trace
        stage = nxt
        trace.append(stage)


def lfp(s: Structure, x: KripkeSet, psi: Formula) -> tuple[KripkeSet, list[KripkeSet]]:
    """Least fixed point of the positive operator, iterated up from empty.
    Returns the fixed point and the stage trace ending at it."""
    empty = KripkeSet(x.frame, x.birth, {tau: () for tau in x.ext}, "stage0")
    return _fixed_point(s, x, psi, empty)


def gfp(s: Structure, x: KripkeSet, psi: Formula) -> tuple[KripkeSet, list[KripkeSet]]:
    """Greatest fixed point, iterated down from the full subset."""
    return _fixed_point(s, x, psi, x)


def define_subset(
    s: Structure,
    sigma: str,
    phi: Formula,
    extra_names: dict[str, KripkeSet] | None = None,
) -> KripkeSet:
    """The subset of the universe carved by one formula in the variable x at
    one birth node."""
    return _carve(s, sigma, phi, s.universe, extra_names, "carved")


def definable_branches(s: Structure, q: KripkeSet) -> tuple[KripkeSet, ...]:
    """Universe members at the bottom that satisfy the branch predicate
    against q, one representative per forced-equality class."""
    sigma = s.frame.bottom
    branches = (x for x in universe_at(s, sigma) if is_branch(s, sigma, x, q))
    return tuple(_fresh(branches, sigma))
