"""The monotone-selection walk that re-derives each node's choices from
scratch, kept as an oracle for `kripkelab.construct._ChoiceTable`, which
reads them from a per-node table of group masks.
"""

from __future__ import annotations

import itertools

from kripkelab.frame import leq


def reference_selections(f, nodes, groups):
    """Every monotone choice of groups along `nodes`, a linear extension of
    an upward-closed set: each node picks some of its groups (tuples of
    sets), and must pick every group holding a set picked at a node below.

    Yields {node: the picked groups' sets, in group order}, lazily and depth
    first: the first node varies slowest, and each node tries the fewest
    extra groups first.
    """
    index = {
        tau: {m.uid: i for i, g in enumerate(groups[tau]) for m in g} for tau in nodes
    }
    below = {
        tau: [rho for rho in nodes[:k] if leq(f, rho, tau)] for k, tau in enumerate(nodes)
    }
    chosen = {}

    def walk(k):
        if k == len(nodes):
            yield dict(chosen)
            return
        tau = nodes[k]
        required = {index[tau][m.uid] for rho in below[tau] for m in chosen[rho]}
        free = [i for i in range(len(groups[tau])) if i not in required]
        for r in range(len(free) + 1):
            for extra in itertools.combinations(free, r):
                picked = sorted(required.union(extra))
                chosen[tau] = tuple(m for i in picked for m in groups[tau][i])
                yield from walk(k + 1)

    return walk(0)
