"""`forces` on random formulas whose binders bind: every quantifier's body
reads its variable, names shadow outer ones, and subformula objects are
shared between parents.  Checked against the memo-free reference and, on
one-node frames, against the classical evaluator; node sets queried in
every order, with and without the memo; plus the lifetime of the compiled
code kept on each formula node, and a hand-built bound that reads the
variable it binds."""

import gc
import random
import weakref

from kripkelab import semantics
from kripkelab.formula import (
    And,
    Eq,
    Exists,
    Forall,
    Implies,
    Member,
    Not,
    Or,
    Param,
    Var,
    classify,
    free_vars,
    parse,
)
from kripkelab.construct import empty_set, internal_nat
from kripkelab.frame import chain, fan, linear_extension, parse_frame_spec, tree
from kripkelab.hierarchy import DefConfig, def_step
from kripkelab.semantics import KripkeSet, Sweep, forces, forcing_mask, structure_from_sets, universe_at
from kripkelab.specfile import canonical_structure

from reference_forces import reference_forces
from tarski import digraph_of, tarski_eval
from util import TOP_FIRST_DIAMOND

FREE = ("x", "y")
# binder names: fresh ones, and the free names again, which shadow them
BINDERS = ("z", "w", "x", "y")


class _Gen:
    """Seeded random formulas over the free variables x, y and the
    parameter #p.  Every binder's body reads its variable; subformulas met
    before are reused as they are, so one object gets several parents."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seen: list = []

    def term(self, scope):
        names = sorted(scope)
        return self.rng.choice([Var(v) for v in names] + [Param("p")])

    def atom(self, scope, must=None):
        a, b = self.term(scope), self.term(scope)
        if must is not None:
            a, b = self.rng.choice([(Var(must), b), (a, Var(must))])
        return self.rng.choice((Member, Eq))(a, b)

    def binder(self, cls, scope, depth, bounded, body, ops):
        """`cls v in t . psi` (or unbounded), psi built by `body` and, if
        it does not read v, joined by one of `ops` to an atom that does."""
        v = self.rng.choice(BINDERS)
        bound = self.term(scope) if bounded else None
        if bounded and v in scope and self.rng.random() < 0.5:
            # the bound reads the outer v, the body the bound one
            bound = Var(v)
        inner = scope | {v}
        psi = body(inner, depth - 1)
        if v not in free_vars(psi):
            psi = self.rng.choice(ops)(psi, self.atom(inner, must=v))
        return cls(v, bound, psi)

    def reuse(self, scope):
        fits = [phi for phi in self.seen if free_vars(phi) <= scope]
        if fits and self.rng.random() < 0.2:
            return self.rng.choice(fits)
        return None

    def delta0(self, scope, depth):
        phi = self.reuse(scope)
        if phi is not None:
            return phi
        kind = self.rng.randrange(6) if depth > 0 else 0
        if kind == 0:
            phi = self.atom(scope)
        elif kind == 1:
            phi = Not(self.delta0(scope, depth - 1))
        elif kind == 2:
            cls = self.rng.choice((And, Or, Implies))
            phi = cls(self.delta0(scope, depth - 1), self.delta0(scope, depth - 1))
        else:
            cls = (Forall, Exists)[kind % 2]
            phi = self.binder(cls, scope, depth, True, self.delta0, (And, Or, Implies))
        self.seen.append(phi)
        return phi

    def prefixed(self, cls, scope, depth, unbounded=1):
        """A Sigma formula for `cls=Exists`, a Pi one for `Forall`: the
        unbounded quantifiers (at most `unbounded` of them) are of kind cls
        and sit under /\\, \\/ and bounded quantifiers only."""
        kind = self.rng.randrange(5) if depth > 0 else 0
        if kind == 0:
            return self.delta0(scope, depth)
        if kind == 1:
            op = self.rng.choice((And, Or))
            left = self.prefixed(cls, scope, depth - 1, unbounded)
            return op(left, self.prefixed(cls, scope, depth - 1, 0))
        unbound = kind == 2 and unbounded > 0
        q = cls if unbound else self.rng.choice((Forall, Exists))

        def body(inner, d):
            return self.prefixed(cls, inner, d, unbounded - unbound)

        return self.binder(q, scope, depth, not unbound, body, (And, Or))

    def formulas(self, count):
        out = []
        for i in range(count):
            scope = set(FREE)
            if i % 3 == 0:
                out.append(self.delta0(scope, 3))
            else:
                out.append(self.prefixed((Exists, Forall)[i % 3 - 1], scope, 3))
        return out


def _children(phi):
    if isinstance(phi, (Member, Eq)):
        return ()
    if isinstance(phi, (Not, Forall, Exists)):
        return (phi.body,)
    return (phi.left, phi.right)


def _nodes(phi):
    """phi's nodes, a shared one once per path to it."""
    yield phi
    for kid in _children(phi):
        yield from _nodes(kid)


def _check_generated(formulas):
    """The generator makes what the tests claim: binders that bind, some
    of them shadowing, every class, and objects with two parents."""
    kinds, shadows, parents = set(), 0, {}
    for phi in formulas:
        kinds.add(classify(phi))
        assert free_vars(phi) <= set(FREE)
        for node in _nodes(phi):
            if isinstance(node, (Forall, Exists)):
                assert node.var in free_vars(node.body), node
                shadows += node.var in FREE
            for kid in _children(node):
                parents.setdefault(id(kid), set()).add(id(node))
    assert kinds == {"Delta0", "Sigma", "Pi"}
    assert shadows > 0
    assert any(len(p) > 1 for p in parents.values())


def test_binding_formulas_agree_with_the_memo_free_reference():
    rng = random.Random(5)
    formulas = _Gen(17).formulas(300)
    _check_generated(formulas)
    verdicts, bad = [], []
    for make in (lambda: tree(2), lambda: chain(3), lambda: fan(3)):
        m = canonical_structure(make())
        # both structures share the frame, and so its forcing memo
        n = def_step(m, DefConfig(formula_depth=1))
        for phi in formulas:
            for sigma in m.frame.nodes:
                # n end-extends m, so m's elements serve both sides
                elems = universe_at(m, sigma)
                env = {"x": rng.choice(elems), "y": rng.choice(elems)}
                extra = {"p": rng.choice(elems)}
                for s in rng.sample((m, n), 2):
                    got = forces(s, sigma, phi, env, extra)
                    if got != reference_forces(s, sigma, phi, env, extra):
                        bad.append((m.frame.kind, s is n, sigma, phi))
                    verdicts.append(got)
    assert bad == []
    assert len(verdicts) == 2 * (3 + 3 + 4) * len(formulas)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_node_sets_agree_with_the_reference_in_every_query_order():
    # one memo entry per binding answers every node of its domain, so a
    # mask built for some nodes must never be read for others: every node is
    # queried bottom-first, top-first and shuffled, each order from an empty
    # memo, with the memo kept or cleared between queries, on two structures
    # that share the frame and its memo
    rng = random.Random(8)
    formulas = _Gen(29).formulas(120)
    _check_generated(formulas)
    bad, verdicts, partial = [], [], 0
    diamond = lambda: parse_frame_spec(TOP_FIRST_DIAMOND)
    for make in (lambda: tree(2), lambda: chain(3), lambda: fan(3), diamond):
        m = canonical_structure(make())
        f, n = m.frame, def_step(m, DefConfig(formula_depth=1))
        for phi in formulas:
            # n lists sets born above the bottom, so domains are often cones
            elems = universe_at(n, rng.choice(f.nodes))
            env = {"x": rng.choice(elems), "y": rng.choice(elems)}
            extra = {"p": rng.choice(elems)}
            values = (*env.values(), *extra.values())
            nodes = [t for t in linear_extension(f) if all(t in v.ext for v in values)]
            partial += len(nodes) < len(f.nodes)
            want = {
                (s.uid, sigma): reference_forces(s, sigma, phi, env, extra)
                for s in (m, n)
                for sigma in nodes
            }
            for order in (nodes, nodes[::-1], rng.sample(nodes, len(nodes))):
                for clear in (False, True):
                    f.memo.clear()
                    for sigma in order:
                        for s in rng.sample((m, n), 2):
                            if clear:
                                f.memo.clear()
                            got = forces(s, sigma, phi, env, extra)
                            if got != want[s.uid, sigma]:
                                bad.append((f.kind, s is n, sigma, clear, phi))
                            verdicts.append(got)
    assert bad == []
    assert partial > 40
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_binding_formulas_are_classical_on_one_node():
    rng = random.Random(6)
    formulas = _Gen(23).formulas(300)
    _check_generated(formulas)
    base = canonical_structure(chain(1))
    verdicts, bad = [], []
    for s in (base, def_step(base, DefConfig(formula_depth=1))):
        bot = s.frame.bottom
        g, row = digraph_of(s, bot)
        elems = universe_at(s, bot)
        for phi in formulas:
            for _ in range(3):
                x, y, p = (rng.choice(elems) for _ in range(3))
                got = forces(s, bot, phi, {"x": x, "y": y}, {"p": p})
                rows = {"x": row[x.uid], "y": row[y.uid]}
                if got != tarski_eval(g, phi, rows, {"p": row[p.uid]}):
                    bad.append((s is base, phi))
                verdicts.append(got)
    assert bad == []
    assert len(verdicts) == 2 * 3 * len(formulas)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_a_dropped_formula_frees_its_compiled_code():
    # forced under one binding, then swept over #two with x bound while the
    # sweep stays alive: neither the frame memo nor the sweep's memo and
    # tables may hold a closure
    s = canonical_structure(chain(3))
    env, two = {"x": s.names["one"]}, s.names["two"]
    for swept in (False, True):
        phi = parse("forall z in #two . exists w in x . ~(z = w) \\/ (exists q . z in q)")
        if swept:
            sweep = Sweep(s, ("two",))
            held = sweep.forcing_mask(phi, env)
        refs = [weakref.ref(semantics._code(node)) for node in _nodes(phi)]
        assert len(refs) == 7
        verdict = forces(s, "0", phi, env)
        assert verdict == reference_forces(s, "0", phi, env)
        if swept:
            # the closures the sweep compiled are the ones `forces` and one
            # assignment of #two then run, and the two verdict bits agree
            mask = forcing_mask(s, phi, env, {"two": two})
            assert all(semantics._code(node) is r() for node, r in zip(_nodes(phi), refs))
            assert held >> sweep.position((two,), "0") & 1 == mask >> s.frame.pos["0"] & 1
            assert mask >> s.frame.pos["0"] & 1 == verdict
        # reference counting alone must free the code: no cycle through a node
        enabled = gc.isenabled()
        gc.disable()
        try:
            del phi
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()
    assert sweep.memo and sweep.tables


def test_a_bound_is_read_in_the_outer_environment():
    # `forall x in x`: at every node of the cone the bound is the outer x,
    # not the element just bound to x; the generated formulas on the
    # canonical structures do not tell the two readings apart
    f = chain(2)
    zero, one = empty_set(f), internal_nat(f, 1)
    outer = KripkeSet(f, "0", {"0": (zero,), "1": (zero, one)}, "X")
    s = structure_from_sets(f, (outer,), names={"zero": zero})
    phi = parse("forall x in x . x = #zero")
    # at node 1 the outer x holds one, which is not zero
    assert not forces(s, "0", phi, {"x": outer})
    assert not reference_forces(s, "0", phi, {"x": outer})
