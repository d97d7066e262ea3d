"""Definability steps, constructible towers over internal sets, powersets,
and inductive fixed points.

The definability engine works per birth node.  It represents a candidate
definable subset as a map from the cone nodes to bitmasks over the universe
there (or over its pairs, for maps of two variables), seeds the pool with
atomic membership and equality maps, and closes under the connective and
quantifier operations round by round.  Maps are saturated under forced
equality automatically because the atoms are, so distinct maps denote
semantically distinct sets and map equality is an exact deduplication rule.

Conjunction, disjunction and the existential binder are local to a node.
Negation, implication and the universal binder all sweep the cone, and all
are one Heyting interior: keep the positions whose image at every node above
lies outside a "bad" mask.  `_Engine.interior` is that sweep; it reads
forward-position tables built once per engine.  Negation takes the map
itself as the bad mask, implication `m1 & ~m2`, and the universal binder the
positions with a missing pair in the binder's domain.

The fragment is bounded on purpose: one live bound variable besides the
defined one (relation maps of arity two), round count given by
`formula_depth`, at most `POOL_CAP` maps of each arity, and at most
`HARVEST_CAP` harvested sets per birth node.  When a cap bites, the result
is flagged truncated and downstream reports say under-enumeration rather
than failure.  The closure stops early once `QUIET_ROUNDS` rounds in a row
add nothing, and a harvest is flagged stabilized when its last round added
nothing and no cap bit.  The first round emits unions of equality atoms,
successor shapes, and stage cuts before anything else, so the sets the lemma
fixtures rely on precede the cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Formula, free_vars, is_positive_in
from .frame import Frame, leq, linear_extension, up_set
from .construct import _intern, branch_formula, empty_set
from .semantics import (
    KripkeSet,
    Structure,
    alive,
    class_at,
    ext_at,
    forces,
    is_ordinal,
    universe_at,
)

HARVEST_CAP = 56
POOL_CAP = 2048
QUIET_ROUNDS = 2
POWERSET_CAP = 1 << 16


@dataclass(frozen=True)
class DefConfig:
    formula_depth: int = 4

    def __post_init__(self) -> None:
        if self.formula_depth < 1:
            raise ValueError("formula_depth must be >= 1")


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


def _shared_empty(f: Frame) -> Structure:
    return _intern(f, ("empty_base",), lambda: empty_structure(f))


# --------------------------------------------------------- the def engine


def _bounded_pool():
    """An empty pool of maps and its push, which keeps each map once, in
    order, until the pool holds POOL_CAP maps."""
    pool: list[tuple[int, ...]] = []
    seen: set = set()

    def push(m: tuple[int, ...]) -> None:
        if m not in seen and len(pool) < POOL_CAP:
            seen.add(m)
            pool.append(m)

    return pool, push


def _zero_decidable_zone(s: Structure, f: Frame) -> dict[str, bool]:
    """Nodes where emptiness is settled for the whole remaining universe:
    every element of every later universe is either forced empty or forced
    apart from empty."""
    zero = empty_set(f)
    empty = {mu: class_at(zero, mu) for mu in f.nodes}
    # nodes with an element that is neither forced empty there nor forced
    # apart from empty at every node above; each is checked once, not once
    # per node below it
    unsettled = {
        rho
        for rho in f.nodes
        for y in s.universe[rho]
        if class_at(y, rho) != empty[rho]
        and any(class_at(y, mu) == empty[mu] for mu in f.up[rho])
    }
    return {tau: unsettled.isdisjoint(f.up[tau]) for tau in f.nodes}


class _Engine:
    """Bitmask closure over one birth node of one base structure.

    A map holds one bitmask per cone node, in cone order: over the universe
    there (arity 1, the defined variable alone) or over its pairs `i * n + j`
    with i the defined variable (arity 2).
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
        self.ns = tuple(len(self.elems[tau]) for tau in self.cone)
        self.full = (
            tuple((1 << n) - 1 for n in self.ns),
            tuple((1 << n * n) - 1 for n in self.ns),
        )
        # fwd[arity - 1][k]: for every node rho above the k-th cone node, the
        # index of rho and the image there of each position at the k-th node
        fwd1, fwd2 = [], []
        for tau in self.cone:
            ups1, ups2 = [], []
            for rho in f.up[tau]:
                img = tuple(self.pos[rho][x.uid] for x in self.elems[tau])
                nr = len(self.elems[rho])
                ups1.append((idx[rho], img))
                ups2.append((idx[rho], tuple(a * nr + b for a in img for b in img)))
            fwd1.append(ups1)
            fwd2.append(ups2)
        self.fwd = (fwd1, fwd2)
        # membit[k][i]: the listed members of the i-th element at the k-th node
        self.membit = tuple(
            tuple(sum(1 << self.pos[tau][m.uid] for m in x.ext[tau]) for x in self.elems[tau])
            for tau in self.cone
        )
        self.truncated = False
        self.stabilized = False

    def atom_maps(self) -> tuple[list, list, list, list, list]:
        """Atomic maps grouped: equality with, membership in, and membership
        of each parameter; the remaining fixed maps; and the pair maps for
        `a in b`, `b in a` and `a = b`."""
        f = self.f
        ins, has, eqs = [], [], []
        for tau in self.cone:
            es = self.elems[tau]
            n = len(es)
            # same[c]: the positions whose class label at tau is c; the
            # universe is membership-closed, so every member's class is here
            same: dict[int, int] = {}
            for i, a in enumerate(es):
                c = class_at(a, tau)
                same[c] = same.get(c, 0) | 1 << i
            bi = bh = be = 0
            for j, b in enumerate(es):
                row = 0
                for m in b.ext[tau]:
                    row |= same[class_at(m, tau)]
                bh |= row << j * n
                be |= same[class_at(b, tau)] << j * n
                # bi is bh transposed: one bit per member position of b
                while row:
                    low = row & -row
                    bi |= 1 << (low.bit_length() - 1) * n + j
                    row ^= low
            ins.append(bi)
            has.append(bh)
            eqs.append(be)
        ns, full = self.ns, self.full[0]

        def row(m2: list[int], p: KripkeSet) -> tuple[int, ...]:
            return tuple(
                (x >> self.pos[tau][p.uid] * n) & r
                for x, tau, n, r in zip(m2, self.cone, ns, full)
            )

        params = self.elems[self.sigma]
        selfin = tuple(
            sum(1 << i for i in range(n) if x >> (i * n + i) & 1) for x, n in zip(ins, ns)
        )
        zone = _zero_decidable_zone(self.s, f)
        zone_map = tuple(r if zone[tau] else 0 for r, tau in zip(full, self.cone))
        return (
            [row(eqs, p) for p in params],
            [row(has, p) for p in params],
            [row(ins, p) for p in params],
            [full, selfin, zone_map],
            [tuple(ins), tuple(has), tuple(eqs)],
        )

    # ---- cone operations

    def interior(self, bad: tuple[int, ...], arity: int) -> tuple[int, ...]:
        """The positions whose image at every cone node above lies outside
        `bad`: negation of `bad`, and with `bad = m1 & ~m2` implication."""
        out = []
        for full, ups in zip(self.full[arity - 1], self.fwd[arity - 1]):
            hit = 0
            for r, img in ups:
                b = bad[r]
                if b:
                    for p, j in enumerate(img):
                        if b >> j & 1:
                            hit |= 1 << p
            out.append(full & ~hit)
        return tuple(out)

    def imp(self, m1: tuple[int, ...], m2: tuple[int, ...], arity: int) -> tuple[int, ...]:
        return self.interior(tuple(a & ~b for a, b in zip(m1, m2)), arity)

    def lift(self, m: tuple[int, ...], slot: int) -> tuple[int, ...]:
        """A map of the defined variable read as a pair map in one slot."""
        # slot 0: row i is full when i is in the map; slot 1: every row is the map
        return tuple(
            sum(((r if x >> i & 1 else 0) if slot == 0 else x) << i * n for i in range(n))
            for x, n, r in zip(m, self.ns, self.full[0])
        )

    def binders(self) -> list[tuple[tuple[int, ...], ...]]:
        """Domains of the second variable, row by row: the defined
        variable's members, the universe, then each parameter's members."""
        out = [self.membit, tuple((r,) * n for r, n in zip(self.full[0], self.ns))]
        for p in self.elems[self.sigma]:
            out.append(
                tuple(
                    (mb[self.pos[tau][p.uid]],) * len(mb)
                    for mb, tau in zip(self.membit, self.cone)
                )
            )
        return out

    def exists2(self, m2: tuple[int, ...], dom) -> tuple[int, ...]:
        """Bind the second variable at the node: i stays when some j in
        `dom[k][i]` makes a pair (i, j) of the map."""
        return tuple(
            sum(1 << i for i, d in enumerate(rows) if (x >> i * n) & r & d)
            for x, n, r, rows in zip(m2, self.ns, self.full[0], dom)
        )

    def forall2(self, m2: tuple[int, ...], dom) -> tuple[int, ...]:
        """Bind the second variable over the cone: no pair (i, j) with j in
        the domain may be missing from the map at any node above."""
        missing = tuple(a ^ b for a, b in zip(self.full[1], m2))
        return self.interior(self.exists2(missing, dom), 1)

    @staticmethod
    def _or(m1, m2):
        return tuple(a | b for a, b in zip(m1, m2))

    @staticmethod
    def _and(m1, m2):
        return tuple(a & b for a, b in zip(m1, m2))

    # ---- the closure loop

    def connectives(self, pool: list, push, base: list, arity: int) -> None:
        """One round of interiors and pairwise or/and/imp (and/or/imp for
        pairs) over `base`; no work once `pool` is full."""
        if len(pool) >= POOL_CAP:
            return
        op1, op2 = (self._or, self._and) if arity == 1 else (self._and, self._or)
        for m in base:
            push(self.interior(m, arity))
        for m1 in base:
            if len(pool) >= POOL_CAP:
                break
            for m2 in base:
                push(op1(m1, m2))
                push(op2(m1, m2))
                push(self.imp(m1, m2, arity))

    def run(self) -> list[tuple[int, ...]]:
        eq, mem, has, fixed, pairs = self.atom_maps()
        self.mem, zone_map = mem, fixed[-1]
        pool1, push1 = _bounded_pool()
        pool2, push2 = _bounded_pool()
        for m in eq:
            push1(m)
        push1(fixed[0])
        # curated early shapes: two-element unions, successor shapes, and
        # stage cuts against the emptiness-decidable zone come before the
        # harvest cap can bite
        for a in range(len(eq)):
            for b in range(a + 1, len(eq)):
                push1(self._or(eq[a], eq[b]))
        for a in range(len(eq)):
            push1(self._or(mem[a], eq[a]))
        for m in eq:
            push1(self.imp(m, zone_map, 1))
        for m in mem + has + fixed:
            push1(m)
        for m in pairs:
            push2(m)

        binders = self.binders()
        bound = 0  # pool2[:bound] is bound already; its results are in pool1
        quiet = 0
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
            if len(pool1) + len(pool2) == before:
                quiet += 1
                if quiet >= QUIET_ROUNDS:
                    break
            else:
                quiet = 0
        self.stabilized = quiet >= 1 and not self.truncated
        return pool1

    def decode(self, m: tuple[int, ...]) -> dict[str, tuple[KripkeSet, ...]]:
        return {
            tau: tuple(x for i, x in enumerate(self.elems[tau]) if (m[k] >> i) & 1)
            for k, tau in enumerate(self.cone)
        }


def harvest_at(
    s: Structure, sigma: str, cfg: DefConfig
) -> tuple[list[KripkeSet], bool, bool]:
    """Definable subsets born at sigma over the given base structure.

    Returns (fresh set objects in canonical order, truncated, stabilized).
    Maps matching the forced-membership profile of an existing universe
    element are dropped; that element already is the set in question.
    Results are kept on the structure, per node and config, so repeated
    calls return the same objects.
    """
    f = s.frame
    hit = s._harvest.get((sigma, cfg))
    if hit is not None:
        return hit
    eng = _Engine(s, sigma, cfg)
    maps = eng.run()
    # the membership maps of the parameters are the profiles of the
    # universe elements at sigma; the pool holds each map once
    existing = set(eng.mem)
    fresh = [m for m in maps if m not in existing]
    born = [
        KripkeSet(f, sigma, eng.decode(m), f"def{sigma}#{k}")
        for k, m in enumerate(fresh[:HARVEST_CAP])
    ]
    truncated = eng.truncated or len(fresh) > HARVEST_CAP
    result = s._harvest[sigma, cfg] = (born, truncated, eng.stabilized)
    return result


def _fresh(cands, sigma: str, old) -> list[KripkeSet]:
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


def _grown(s: Structure, new_by_node: dict[str, list[KripkeSet]]) -> Structure:
    """s with the sets born at each node added there and at every node above."""
    f = s.frame
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
    new_by_node: dict[str, list[KripkeSet]] = {}
    carried: list[KripkeSet] = []
    truncated = stabilized = False
    for sigma in linear_extension(s.frame):
        born, trunc, stab = harvest_at(s, sigma, cfg)
        truncated |= trunc
        stabilized |= stab
        new_by_node[sigma] = _fresh(born, sigma, (c for c in carried if alive(c, sigma)))
        carried += new_by_node[sigma]
    out = _grown(s, new_by_node)
    out.meta["truncated"] = truncated
    out.meta["stabilized"] = stabilized
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
    new_by_node: dict[str, list[KripkeSet]] = {}
    carried: list[KripkeSet] = []
    topo = linear_extension(f)
    for sigma in topo:
        cone_set = set(up_set(f, sigma))
        cone = [tau for tau in topo if tau in cone_set]
        families: list[dict[str, tuple[KripkeSet, ...]]] = [{}]
        for tau in cone:
            if s.universe[tau] and 1 << len(s.universe[tau]) > POWERSET_CAP:
                raise ValueError("powerset too large to enumerate; shrink the structure")
            grown: list[dict[str, tuple[KripkeSet, ...]]] = []
            for fam in families:
                lower: set[int] = set()
                for rho, members in fam.items():
                    if leq(f, rho, tau):
                        lower |= {m.uid for m in members}
                forced = tuple(y for y in s.universe[tau] if y.uid in lower)
                optional = [y for y in s.universe[tau] if y.uid not in lower]
                for k in range(1 << len(optional)):
                    fam2 = dict(fam)
                    fam2[tau] = forced + tuple(
                        optional[i] for i in range(len(optional)) if (k >> i) & 1
                    )
                    grown.append(fam2)
            if len(grown) > POWERSET_CAP:
                raise ValueError("powerset too large to enumerate; shrink the structure")
            families = grown
        cands = (
            KripkeSet(f, sigma, {tau: fam[tau] for tau in cone}, f"pow{sigma}")
            for fam in families
        )
        old = s.universe[sigma] + tuple(c for c in carried if alive(c, sigma))
        new_by_node[sigma] = _fresh(cands, sigma, old)
        carried += new_by_node[sigma]
    return _grown(s, new_by_node)


# ------------------------------------------------------------ fixed points


def gamma_apply(s: Structure, x: KripkeSet, psi: Formula, ysub: KripkeSet) -> KripkeSet:
    """One application of the operator carving {a in x : psi(a, Y)}; psi
    reads a as its free variable x and Y as the parameter #Y."""
    if not is_positive_in(psi, "Y"):
        raise ValueError("formula is not positive in 'Y'")
    if "x" not in free_vars(psi):
        raise ValueError("formula does not mention the selection variable 'x'")
    f = s.frame
    ext = {
        tau: tuple(
            a
            for a in ext_at(x, tau)
            if forces(s, tau, psi, {"x": a, "Y": ysub}, extra_names={"Y": ysub})
        )
        for tau in up_set(f, x.birth)
    }
    return KripkeSet(f, x.birth, ext, "gamma")


def _subset_signature(x: KripkeSet) -> tuple:
    return tuple((tau, tuple(m.uid for m in x.ext[tau])) for tau in sorted(x.ext))


def _fixed_point(
    s: Structure, x: KripkeSet, psi: Formula, stage: KripkeSet
) -> tuple[KripkeSet, list[KripkeSet]]:
    trace = [stage]
    while True:
        nxt = gamma_apply(s, x, psi, stage)
        if _subset_signature(nxt) == _subset_signature(stage):
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
    var: str = "x",
    extra_names: dict[str, KripkeSet] | None = None,
) -> KripkeSet:
    """The subset of the universe carved by one formula at one birth node."""
    f = s.frame
    ext = {
        tau: tuple(
            a for a in s.universe[tau] if forces(s, tau, phi, {var: a}, extra_names)
        )
        for tau in up_set(f, sigma)
    }
    return KripkeSet(f, sigma, ext, "carved")


def definable_branches(s: Structure, q: KripkeSet) -> tuple[KripkeSet, ...]:
    """Universe members at the bottom that satisfy the branch predicate
    against q, one representative per forced-equality class."""
    sigma = s.frame.bottom
    phi = branch_formula()
    found: dict[int, KripkeSet] = {}
    for x in universe_at(s, sigma):
        if forces(s, sigma, phi, extra_names={"B": x, "Q": q}):
            found.setdefault(class_at(x, sigma), x)
    return tuple(found.values())
