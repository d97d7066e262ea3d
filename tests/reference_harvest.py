"""The definability harvest as a full closure, for differential tests.

`harvest` runs every round of `_Engine`'s closure to the end and decodes the
pool on the given structure, with no early stop and no interning.  It reuses
the engine's set-up (`atom_maps`, `binders`) and its cone operations; only
the pools and the round loop are written out here.  `zero_decidable_zone`
computes the engine's zone map by walking up-sets instead of forcing its
sentence.
"""

from kripkelab.construct import empty_set
from kripkelab.frame import up_set
from kripkelab.hierarchy import HARVEST_CAP, POOL_CAP, _Engine
from kripkelab.semantics import KripkeSet, class_at

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
            push(eng.imp(m1, m2, arity))


def closure(eng: _Engine) -> tuple[list[int], list[int], bool, bool]:
    """The unary pool after every round, the membership maps, truncated and
    stabilized."""
    eq, mem, has, fixed, pairs = eng.atom_maps()
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
        push1(eng.imp(m, zone_map, 1))
    for m in mem + has + fixed:
        push1(m)
    for m in pairs:
        push2(m)

    binders = eng.binders()
    bound = quiet = 0
    truncated = False
    for _ in range(eng.cfg.formula_depth):
        before = len(pool1) + len(pool2)
        base1, base2 = list(pool1), list(pool2)
        _connectives(eng, pool1, push1, base1, 1)
        for m in base1:
            push2(eng.lift(m, 0))
            push2(eng.lift(m, 1))
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
    f = s.frame
    eng = _Engine(s, sigma, cfg)
    maps, mem, truncated, stabilized = closure(eng)
    existing = set(mem)
    fresh = [m for m in maps if m not in existing]
    born = [
        KripkeSet(f, sigma, eng.decode(m), f"def{sigma}#{k}")
        for k, m in enumerate(fresh[:HARVEST_CAP])
    ]
    return born, truncated or len(fresh) > HARVEST_CAP, stabilized
