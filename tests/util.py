"""Small helpers shared across test modules."""

from kripkelab.semantics import forced_equal, universe_at

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
