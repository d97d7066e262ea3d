"""Small helpers shared across test modules, and the oracle of the
definability engine's cone operations."""

from kripkelab.frame import up_set
from kripkelab.hierarchy import DefConfig, _Engine
from kripkelab.semantics import class_at, forced_equal, universe_at

# a diamond listed top first: every family frame lists its nodes bottom
# first, so only a frame like this one tells "top nodes first" apart from
# "last listed first"
TOP_FIRST_DIAMOND = "nodes: d c b a / order: a<b a<c b<d c<d"


def classes(frame, sigma, xs):
    """One representative per forced-equality class at sigma."""
    reps = []
    for x in xs:
        if not any(forced_equal(frame, sigma, x, r) for r in reps):
            reps.append(x)
    return tuple(reps)


def same_classes(frame, sigma, xs, ys):
    """The two collections carve the same forced-equality classes at sigma."""
    xs, ys = tuple(xs), tuple(ys)
    for x in xs:
        if not any(forced_equal(frame, sigma, x, y) for y in ys):
            return False
    for y in ys:
        if not any(forced_equal(frame, sigma, y, x) for x in xs):
            return False
    return True


def universe_classes(s, sigma):
    return classes(s.frame, sigma, universe_at(s, sigma))


def find_class(frame, sigma, xs, target):
    """The member of xs forced-equal to target at sigma, or None."""
    for x in xs:
        if forced_equal(frame, sigma, x, target):
            return x
    return None


def harvest_classes(harvest):
    """A harvest as its born sets, each its label and its class label at
    every node of its cone, then both flags: harvests of one structure
    compare equal iff they agree set by set up to forced equality."""
    born, truncated, stabilized = harvest
    sets = [(x.label, {tau: class_at(x, tau) for tau in x.ext}) for x in born]
    return sets, truncated, stabilized


def block(eng, m, tau, arity):
    """The bits of map `m` at cone node tau, read through the engine
    layout's offsets for the arity's digit count."""
    n, offs, _ = eng.layout.cells[tau]
    return m >> offs[arity - 1] & (1 << n**arity) - 1


def oracle_disagreements(s, sigma, rng, draws, params=None):
    """Compare the engine's cone operations with their definitions, walking
    `up_set` and locating elements by uid instead of by the run tables, on
    maps drawn over the cone, and count the results that differ or set a
    bit outside the cone.  The binder domains of `params` randomly chosen
    parameters are checked, or of all of them."""
    f = s.frame
    eng = _Engine(s, sigma, DefConfig())
    cone = eng.cone
    where = {tau: {x.uid: i for i, x in enumerate(s.universe[tau])} for tau in cone}

    def blocks(m, arity):
        # the indices of a map's set bits, node by node; with a bit outside
        # the cone it is no map of the engine's, and matches nothing
        if m & ~eng.full[arity - 1]:
            return None
        return {
            tau: {i for i, c in enumerate(bin(block(eng, m, tau, arity))[:1:-1]) if c == "1"}
            for tau in cone
        }

    def has(bits, tau, a, b=None):
        # the bit for one element, or for a pair (j-major), at tau
        w = where[tau]
        return (w[a.uid] if b is None else w[b.uid] * len(w) + w[a.uid]) in bits[tau]

    def build(keep, arity):
        # the set bits of the map holding exactly the elements or pairs `keep` accepts
        out = {}
        for tau in cone:
            u = s.universe[tau]
            cells = [(a,) for a in u] if arity == 1 else [(a, b) for b in u for a in u]
            out[tau] = {i for i, c in enumerate(cells) if keep(tau, *c)}
        return out

    def draw(arity):
        # a random map: any set of the cone's positions
        full = eng.full[arity - 1]
        return rng.getrandbits(full.bit_length()) & full

    domains = [lambda a, tau: a.ext[tau], lambda a, tau: s.universe[tau]]
    domains += [lambda a, tau, p=p: p.ext[tau] for p in s.universe[sigma]]
    bad = 0
    for _ in range(draws):
        for arity in (1, 2):
            m1, m2 = draw(arity), draw(arity)
            b1, b2 = blocks(m1, arity), blocks(m2, arity)
            want = build(
                lambda tau, *c: all(not has(b1, r, *c) for r in up_set(f, tau)), arity
            )
            bad += blocks(eng.interior(m1, arity), arity) != want
            want = build(
                lambda tau, *c: all(
                    not has(b1, r, *c) or has(b2, r, *c) for r in up_set(f, tau)
                ),
                arity,
            )
            bad += blocks(eng.interior(m1 & ~m2, arity), arity) != want
        m = draw(1)
        b = blocks(m, 1)
        for slot in (0, 1):
            want = build(lambda tau, a, c: has(b, tau, (a, c)[slot]), 2)
            bad += blocks(eng.layout.lift(m, 1 - slot), 2) != want
        m2 = draw(2)
        b2 = blocks(m2, 2)
        checked = list(zip(eng.binders, domains))
        if params is not None:
            checked[2:] = rng.sample(checked[2:], min(params, len(checked) - 2))
        for dom, members in checked:
            want = build(
                lambda tau, a: any(has(b2, tau, a, c) for c in members(a, tau)), 1
            )
            bad += blocks(eng.exists2(m2, dom), 1) != want
            want = build(
                lambda tau, a: all(
                    has(b2, r, a, c) for r in up_set(f, tau) for c in members(a, r)
                ),
                1,
            )
            bad += blocks(eng.forall2(m2, dom), 1) != want
    return bad
