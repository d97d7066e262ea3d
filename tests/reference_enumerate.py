"""The bounded-formula enumerator that deduplicates by rendered text, kept
as an oracle for `kripkelab.formula.enumerate_delta0`.

Every depth builds each compound whose operands overlap the previous layer,
renders it, and keeps it only if its text is new, so the stream it yields
is duplicate-free whatever the construction does.
"""

from __future__ import annotations

import itertools

from kripkelab.formula import (
    And,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Param,
    Var,
    _BOUND_POOL,
    _atoms,
    render,
)


def reference_delta0(max_depth, variables=("x", "y"), params=()):
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    base_terms = [Var(v) for v in variables] + [Param(p) for p in params]
    layers = [_atoms(base_terms)]
    seen = {render(phi) for phi in layers[0]}

    for depth in range(1, max_depth + 1):
        prev_all = [phi for layer in layers for phi in layer]
        terms = base_terms + [Var(_BOUND_POOL[i]) for i in range(depth - 1)]
        # deeper atoms appear once the bound variable pool has grown
        exact_prev = layers[-1] + [a for a in _atoms(terms) if render(a) not in seen]
        fresh = [Not(phi) for phi in exact_prev]
        pairs = itertools.chain(
            itertools.product(exact_prev, prev_all + exact_prev),
            itertools.product(prev_all, exact_prev),
        )
        for phi, psi in pairs:
            fresh += [And(phi, psi), Or(phi, psi), Implies(phi, psi)]
        if depth <= len(_BOUND_POOL):
            v, kinds = _BOUND_POOL[depth - 1], (Forall, Exists)
            fresh += [cls(v, b, body) for body in exact_prev for cls in kinds for b in base_terms]
        layer = []
        for phi in fresh:
            key = render(phi)
            if key not in seen:
                seen.add(key)
                layer.append(phi)
        layers.append(layer)
    return [phi for layer in layers for phi in layer]


def reference_unbounded(cls, max_depth, variables=("x", "y"), params=()):
    if max_depth < 1:
        return []
    inner = reference_delta0(max_depth - 1, variables + ("q",), params)
    return [cls("q", None, phi) for phi in inner]
