"""The recursive syntactic analyses, kept as an oracle for the facts that
`kripkelab.formula.facts` folds once per node and keeps on it.

Each call walks the whole formula again and reads nothing stored on a node.
"""

from __future__ import annotations

from kripkelab.formula import And, Eq, Exists, Forall, Implies, Member, Not, Or, Param, Var


def free_vars(phi) -> frozenset[str]:
    if isinstance(phi, (Member, Eq)):
        return frozenset(t.name for t in (phi.left, phi.right) if isinstance(t, Var))
    if isinstance(phi, Not):
        return free_vars(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return free_vars(phi.left) | free_vars(phi.right)
    fv = free_vars(phi.body) - {phi.var}
    if isinstance(phi.bound, Var):
        fv |= {phi.bound.name}
    return fv


def params_of(phi) -> frozenset[str]:
    if isinstance(phi, (Member, Eq)):
        return frozenset(t.name for t in (phi.left, phi.right) if isinstance(t, Param))
    if isinstance(phi, Not):
        return params_of(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return params_of(phi.left) | params_of(phi.right)
    ps = params_of(phi.body)
    if isinstance(phi.bound, Param):
        ps |= {phi.bound.name}
    return ps


def is_delta0(phi) -> bool:
    if isinstance(phi, (Member, Eq)):
        return True
    if isinstance(phi, Not):
        return is_delta0(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return is_delta0(phi.left) and is_delta0(phi.right)
    return phi.bound is not None and is_delta0(phi.body)


def _is_prefixed(phi, unbounded: type) -> bool:
    if is_delta0(phi):
        return True
    if isinstance(phi, (And, Or)):
        return _is_prefixed(phi.left, unbounded) and _is_prefixed(phi.right, unbounded)
    if isinstance(phi, (Exists, Forall)):
        ok = isinstance(phi, unbounded) or phi.bound is not None
        return ok and _is_prefixed(phi.body, unbounded)
    return False


def classify(phi) -> str:
    if is_delta0(phi):
        return "Delta0"
    if _is_prefixed(phi, Exists):
        return "Sigma"
    if _is_prefixed(phi, Forall):
        return "Pi"
    return "General"
