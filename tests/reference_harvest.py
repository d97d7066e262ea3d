"""The definability harvest as a full closure, for differential tests.

`harvest` runs every round of `_Engine`'s closure to the end and decodes the
pool on the given structure, with no early stop and no interning.  Its seed
maps and binder domains are built here, element by element, from
`forced_member` and `forced_equal` and the up-set walk of
`zero_decidable_zone`, at positions read off the layout's convention
(`offsets`), so no fault of the engine's set-up (its layout, relations,
zone or cut to the cone) reaches them; it reuses only the engine's cone
operations (`interior`, `exists2`, `forall2`, the layout's `lift`).  A
binder ranges over the elements forced to belong to its bound rather than
those listed in it, which binds the same: every map is saturated under
forced equality.
"""

from kripkelab.construct import empty_set
from kripkelab.frame import up_set
from kripkelab.hierarchy import HARVEST_CAP, POOL_CAP, _Engine
from kripkelab.semantics import KripkeSet, class_at, forced_equal, forced_member

# the closure ends once this many rounds in a row add nothing; the engine
# stops after one, which the differential tests hold to the same answer
QUIET_ROUNDS = 2


def zero_decidable_zone(s, cone) -> dict[str, bool]:
    """The nodes of an upward-closed `cone` where emptiness is settled for
    the whole remaining universe: every element of every later universe is
    either forced empty or forced apart from empty."""
    f = s.frame
    zero = empty_set(f)
    empty = {mu: class_at(zero, mu) for mu in cone}
    # nodes with an element that is neither forced empty there nor forced
    # apart from empty at every node above
    unsettled = {
        rho
        for rho in cone
        for y in s.universe[rho]
        if class_at(y, rho) != empty[rho]
        and any(class_at(y, mu) == empty[mu] for mu in up_set(f, rho))
    }
    return {tau: unsettled.isdisjoint(up_set(f, tau)) for tau in cone}


def offsets(s) -> dict[str, tuple[int, int]]:
    """Per node, where its blocks start in a map of one digit and of two:
    nodes in frame order, n and n * n bits each, n the size of the node's
    universe.  Element i is bit i of a block; the pair (i, j), i the
    defined variable, is bit j * n + i."""
    out, one, two = {}, 0, 0
    for tau in s.frame.nodes:
        n = len(s.universe[tau])
        out[tau] = one, two
        one, two = one + n, two + n * n
    return out


def seeds(s, sigma) -> tuple[list, list, list, list, list, list]:
    """The engine's seed maps over the cone of sigma, each bit decided by
    the forced relations of its elements: equality with, membership in and
    membership of each element p of U(sigma); true, `a in a` and the zone;
    the pair maps of `a in b`, `b in a` and `a = b`; and the binder domains
    of the second variable: the defined variable's members, the universe,
    then each p's members, as `_Engine.binders` lists them."""
    f, params = s.frame, s.universe[sigma]
    cone, offs = up_set(f, sigma), offsets(s)
    zone = zero_decidable_zone(s, cone)
    eq, mem, has = ([0] * len(params) for _ in range(3))
    fixed, pairs = [0, 0, 0], [0, 0, 0]
    own, every, each = [], [], [[] for _ in params]
    for tau in cone:
        one, two = offs[tau]
        es = s.universe[tau]
        n, row = len(es), (1 << len(es)) - 1
        for i, a in enumerate(es):
            bit = 1 << one + i
            for k, p in enumerate(params):
                eq[k] |= bit if forced_equal(f, tau, a, p) else 0
                mem[k] |= bit if forced_member(f, tau, a, p) else 0
                has[k] |= bit if forced_member(f, tau, p, a) else 0
            held = (True, forced_member(f, tau, a, a), zone[tau])
            for r, yes in enumerate(held):
                fixed[r] |= bit if yes else 0
            for j, b in enumerate(es):
                bit = 1 << two + j * n + i
                held = (
                    forced_member(f, tau, a, b),
                    forced_member(f, tau, b, a),
                    forced_equal(f, tau, a, b),
                )
                for r, yes in enumerate(held):
                    pairs[r] |= bit if yes else 0
        for j, b in enumerate(es):
            column = two + j * n
            holders = sum(1 << i for i, a in enumerate(es) if forced_member(f, tau, b, a))
            if holders:
                own.append((column, holders, one))
            every.append((column, row, one))
            for dom, p in zip(each, params):
                if forced_member(f, tau, b, p):
                    dom.append((column, row, one))
    return eq, mem, has, fixed, pairs, [own, every, *each]


def _pool():
    pool: list[int] = []
    seen: set[int] = set()

    def push(m: int) -> None:
        if m not in seen and len(pool) < POOL_CAP:
            seen.add(m)
            pool.append(m)

    return pool, push


def _connectives(eng, pool, push, base, arity):
    if len(pool) >= POOL_CAP:
        return
    for m in base:
        push(eng.interior(m, arity))
    for a, m1 in enumerate(base):
        if len(pool) >= POOL_CAP:
            break
        for b, m2 in enumerate(base):
            if b > a:
                push(m1 | m2 if arity == 1 else m1 & m2)
                push(m1 & m2 if arity == 1 else m1 | m2)
            push(eng.interior(m1 & ~m2, arity))


def closure(s, sigma, cfg) -> tuple[list[int], list[int], bool, bool]:
    """The unary pool after every round, the membership maps, truncated and
    stabilized."""
    eng = _Engine(s, sigma, cfg)  # for its cone operations alone
    eq, mem, has, fixed, pairs, binders = seeds(s, sigma)
    zone_map = fixed[-1]
    pool1, push1 = _pool()
    pool2, push2 = _pool()
    for m in eq:
        push1(m)
    push1(fixed[0])
    for a in range(len(eq)):
        for b in range(a + 1, len(eq)):
            push1(eq[a] | eq[b])
    for a in range(len(eq)):
        push1(mem[a] | eq[a])
    for m in eq:
        push1(eng.interior(m & ~zone_map, 1))
    for m in mem + has + fixed:
        push1(m)
    for m in pairs:
        push2(m)

    bound = quiet = 0
    truncated = False
    for _ in range(cfg.formula_depth):
        before = len(pool1) + len(pool2)
        base1, base2 = list(pool1), list(pool2)
        _connectives(eng, pool1, push1, base1, 1)
        for m in base1:
            push2(eng.layout.lift(m, 1))
            push2(eng.layout.lift(m, 0))
        _connectives(eng, pool2, push2, base2, 2)
        for m in pool2[bound:]:
            if len(pool1) >= POOL_CAP:
                break
            for dom in binders:
                push1(eng.exists2(m, dom))
                push1(eng.forall2(m, dom))
        bound = len(pool2)
        truncated = len(pool1) >= POOL_CAP or len(pool2) >= POOL_CAP
        if truncated:
            break
        if len(pool1) + len(pool2) == before:
            quiet += 1
            if quiet >= QUIET_ROUNDS:
                break
        else:
            quiet = 0
    return pool1, mem, truncated, quiet >= 1 and not truncated


def harvest(s, sigma, cfg) -> tuple[list[KripkeSet], bool, bool]:
    """(born sets, truncated, stabilized) at sigma over s, computed afresh."""
    f, offs = s.frame, offsets(s)
    maps, mem, truncated, stabilized = closure(s, sigma, cfg)
    existing = set(mem)
    fresh = [m for m in maps if m not in existing]

    def decode(m):
        return {
            tau: tuple(x for i, x in enumerate(s.universe[tau]) if m >> offs[tau][0] + i & 1)
            for tau in up_set(f, sigma)
        }

    born = [
        KripkeSet(f, sigma, decode(m), f"def{sigma}#{k}")
        for k, m in enumerate(fresh[:HARVEST_CAP])
    ]
    return born, truncated or len(fresh) > HARVEST_CAP, stabilized
