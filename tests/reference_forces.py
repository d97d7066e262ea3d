"""The forcing clauses with no memo, kept as an oracle for
`kripkelab.semantics.forces`.

Every call re-forces every subformula it needs, so no verdict can be read
under a wrong key.  Forced equality comes from the recursive check in
`recursive_eq`, not from the class labels in `kripkelab.semantics`.
"""

from __future__ import annotations

from kripkelab.formula import And, Eq, Exists, Forall, Implies, Member, Not, Or, Var

from recursive_eq import oracle_equal, oracle_member


def reference_forces(s, sigma, phi, env=None, extra_names=None) -> bool:
    f, eq_memo = s.frame, {}
    names = {**s.names, **(extra_names or {})}

    def term(t, tau, env):
        x = env[t.name] if isinstance(t, Var) else names[t.name]
        assert (x.birth, tau) in f.order, "dead parameter"
        return x

    def pool(q, tau, env):
        return s.universe[tau] if q.bound is None else term(q.bound, tau, env).ext[tau]

    def go(sigma, phi, env) -> bool:
        cone = f.up[sigma]
        if isinstance(phi, Member):
            x, y = term(phi.left, sigma, env), term(phi.right, sigma, env)
            return oracle_member(f, eq_memo, sigma, x, y)
        if isinstance(phi, Eq):
            x, y = term(phi.left, sigma, env), term(phi.right, sigma, env)
            return oracle_equal(f, eq_memo, sigma, x, y)
        if isinstance(phi, And):
            return go(sigma, phi.left, env) and go(sigma, phi.right, env)
        if isinstance(phi, Or):
            return go(sigma, phi.left, env) or go(sigma, phi.right, env)
        if isinstance(phi, Not):
            return not any(go(tau, phi.body, env) for tau in cone)
        if isinstance(phi, Implies):
            return all(not go(tau, phi.left, env) or go(tau, phi.right, env) for tau in cone)
        if isinstance(phi, Exists):
            return any(go(sigma, phi.body, {**env, phi.var: a}) for a in pool(phi, sigma, env))
        if isinstance(phi, Forall):
            return all(
                go(tau, phi.body, {**env, phi.var: a}) for tau in cone for a in pool(phi, tau, env)
            )
        raise TypeError(f"unknown formula node {phi!r}")

    return go(sigma, phi, env or {})
