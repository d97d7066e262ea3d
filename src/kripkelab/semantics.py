"""Kripke sets over a frame and the forcing relation.

A Kripke set is born at a node and assigns to every node of the birth cone a
finite extension (a tuple of previously built Kripke sets).  Transitions are
inclusions: the extension can only grow along the order.  Equality between
Kripke sets is not identity but the forced, hereditarily extensional one
computed by `forced_equal`.

Forced equality is hereditary coextensionality over the cone, a
bisimulation, so it has a canonical labelling: at each node tau where x is
alive, x's class label interns tau, the set of its members' labels at tau
and x's own labels at the nodes strictly above tau.  Two sets alive at tau
are forced equal there iff their labels agree.  A set's labels are computed
the first time a question needs them, top nodes first, and the intern table
is one per frame (`Frame.classes`), holding node names and ints only.

`forces` runs compiled code, not an interpreter.  Each formula node is
compiled once, the first time it is forced, into its memoized forcing
function `(ctx, sigma, env) -> bool`, built from its kind's clause and its
children's functions.  The function is kept in the node's `_code` slot, so
it lives and dies with the formula: it holds its children's functions and
plain values, never a node, and no frame or module table holds code.

Forcing verdicts are kept per frame too (`Frame.memo`), keyed by the
formula's serial (`formula.facts`), which no other formula ever gets.  A
bounded formula reads extensions, labels and up-sets but never a universe,
so one verdict serves every structure on the frame; unbounded keys carry
`Structure.uid`.  Each node's key is built by code written for its shape
(bounded or not, how many variables and parameters), not by a loop.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .formula import (
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    And,
    Or,
    Member,
    Not,
    Term,
    Var,
    facts,
    is_delta0,
    parse,
    render,
)
from .frame import Frame, _require, up_set

_uid_counter = itertools.count()


class KripkeSet:
    """Immutable by convention; build the extension map fully, then freeze."""

    __slots__ = ("frame", "birth", "ext", "uid", "label", "classes")

    def __init__(
        self,
        frame: Frame,
        birth: str,
        ext: dict[str, tuple["KripkeSet", ...]],
        label: str = "",
    ):
        cone = up_set(frame, birth)
        if set(ext) != set(cone):
            raise ValueError(f"extension map must cover exactly the cone of {birth!r}")
        uids = {}
        for tau in cone:
            for m in ext[tau]:
                if m.frame is not frame:
                    raise ValueError("member belongs to a different frame")
                if tau not in m.ext:
                    raise ValueError(
                        f"member born at {m.birth!r} is not alive at {tau!r}"
                    )
            uids[tau] = {m.uid for m in ext[tau]}
        for tau in cone:
            here = uids[tau]
            for rho in frame.up[tau]:
                if not here <= uids[rho]:
                    raise ValueError(
                        f"extension shrinks from {tau!r} to {rho!r}; transitions are inclusions"
                    )
        self.frame = frame
        self.birth = birth
        self.ext = {tau: tuple(ext[tau]) for tau in cone}
        self.uid = next(_uid_counter)
        self.label = label
        # class labels per node, filled by `class_at` on first use; members
        # predate this set, so the recursion there always ends
        self.classes = None

    def __repr__(self) -> str:
        tag = self.label or f"k{self.uid}"
        return f"<{tag}@{self.birth}>"


def alive(x: KripkeSet, sigma: str) -> bool:
    # a set's cone is exactly its extension's keys
    _require(x.frame, sigma)
    return sigma in x.ext


def ext_at(x: KripkeSet, tau: str) -> tuple[KripkeSet, ...]:
    if not alive(x, tau):
        raise ValueError(f"set born at {x.birth!r} has no extension at {tau!r}")
    return x.ext[tau]


# ------------------------------------------------------- forced equality


def class_at(x: KripkeSet, sigma: str) -> int:
    """x's forced-equality class label at sigma: sets alive at sigma are
    forced equal there iff their labels agree."""
    if x.classes is None:
        f, lab = x.frame, {}
        # strict successors have strictly smaller up-sets, so they come first
        for tau in sorted(x.ext, key=lambda t: len(f.up[t])):
            members = tuple(sorted({class_at(m, tau) for m in x.ext[tau]}))
            above = tuple(lab[rho] for rho in f.up[tau] if rho != tau)
            lab[tau] = f.classes.setdefault((tau, members, above), len(f.classes))
        x.classes = lab
    if sigma not in x.classes:
        raise ValueError(f"set born at {x.birth!r} is not alive at {sigma!r}")
    return x.classes[sigma]


def _fresh(cands, sigma: str, old=()) -> list[KripkeSet]:
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


def forced_equal(f: Frame, sigma: str, x: KripkeSet, y: KripkeSet) -> bool:
    """Hereditary coextensionality over the cone of sigma.

    x and y are forced equal at sigma iff at every tau >= sigma each member of
    either extension is forced equal at tau to a member of the other.
    """
    # labels are interned per frame object, so they only compare within one
    if x.frame is not y.frame:
        raise ValueError("sets live on different frames")
    return class_at(x, sigma) == class_at(y, sigma)


def forced_member(f: Frame, sigma: str, x: KripkeSet, y: KripkeSet) -> bool:
    """x is forced to belong to y at sigma iff some listed member of y at
    sigma is forced equal to x there."""
    if x.frame is not y.frame:
        raise ValueError("sets live on different frames")
    c = class_at(x, sigma)
    if sigma not in y.ext:
        raise ValueError(f"set born at {y.birth!r} is not alive at {sigma!r}")
    return any(class_at(z, sigma) == c for z in y.ext[sigma])


# ------------------------------------------------------------- structure


@dataclass(frozen=True, eq=False)
class Structure:
    """A frame, a monotone universe map, and a table of named sets.

    Universe members must be alive where listed and closed under membership.
    Named sets only need to be alive somewhere on the frame; they are not
    required to sit inside the universe.
    """

    frame: Frame
    universe: dict[str, tuple[KripkeSet, ...]]
    names: dict[str, KripkeSet]
    notes: tuple = ()
    meta: dict = field(default_factory=dict, compare=False, repr=False)
    # `uid` tells this structure's unbounded verdicts apart in the frame's
    # forcing memo (see `forces`); definability harvests are interned per
    # frame by cone universe (see `hierarchy.harvest_at`), not kept here.
    uid: int = field(default_factory=itertools.count().__next__, init=False, repr=False)

    def __post_init__(self) -> None:
        if set(self.universe) != set(self.frame.nodes):
            raise ValueError("universe must assign a tuple to every node")
        for tau, elems in self.universe.items():
            uids = set()
            for x in elems:
                if tau not in x.ext:
                    raise ValueError(f"universe element {x!r} not alive at {tau!r}")
                if x.uid in uids:
                    raise ValueError(f"duplicate universe element {x!r} at {tau!r}")
                uids.add(x.uid)
            for x in elems:
                for m in x.ext[tau]:
                    if m.uid not in uids:
                        raise ValueError(
                            f"universe at {tau!r} is not membership-closed: "
                            f"{m!r} in {x!r} is missing"
                        )
        for tau in self.frame.nodes:
            here = {x.uid for x in self.universe[tau]}
            for rho in up_set(self.frame, tau):
                if not here <= {x.uid for x in self.universe[rho]}:
                    raise ValueError(f"universe shrinks from {tau!r} to {rho!r}")
        for name, x in self.names.items():
            if x.frame is not self.frame:
                raise ValueError(f"named set {name!r} lives on a different frame")


def universe_at(s: Structure, sigma: str) -> tuple[KripkeSet, ...]:
    return s.universe[sigma]


# ---------------------------------------------------------------- forces


class EvalError(ValueError):
    pass


# forcing verdicts a frame keeps before `forces` resets its memo: a reset
# also drops the verdicts a sweep keeps reusing, so the bound trades
# re-forcing those against holding dead ones
MEMO_CAP = 1 << 14


def forces(
    s: Structure,
    sigma: str,
    phi: Formula,
    env: dict[str, KripkeSet] | None = None,
    extra_names: dict[str, KripkeSet] | None = None,
) -> bool:
    """The forcing relation at a node.

    Conjunction and disjunction are local; negation, implication and
    universal quantification sweep the cone; existentials are witnessed at
    the node itself.  Bounded quantifiers range over the bound's extension.
    """
    _require(s.frame, sigma)
    env, extra_names = env or {}, extra_names or {}
    # class labels only compare within one frame object
    for x in (*env.values(), *extra_names.values()):
        if x.frame is not s.frame:
            raise ValueError("bound set lives on a different frame")
    if len(s.frame.memo) >= MEMO_CAP:
        s.frame.memo.clear()
    ctx = _Ctx(s, extra_names)
    try:
        return _code(phi)(ctx, sigma, env)
    except RecursionError:
        raise EvalError("formula nests too deeply to evaluate") from None


class _Ctx:
    """The state of one top-level `forces` call: the structure's uid and
    universe, its parameters (the structure's names, overridden by the extra
    ones), and the frame with its up-sets and forcing memo."""

    __slots__ = ("uid", "universe", "params", "frame", "up", "memo")

    def __init__(self, s: Structure, extra: dict[str, KripkeSet]):
        f = s.frame
        self.uid, self.universe = s.uid, s.universe
        self.params = {**s.names, **extra}
        self.frame, self.up, self.memo = f, f.up, f.memo


def _code(phi: Formula):
    """phi's memoized forcing function `(ctx, sigma, env) -> bool`.

    Compiled from its children's functions the first time it is asked for
    and kept on the node.  It holds its children's functions and plain
    values, never a node, so it is freed with phi."""
    try:
        return phi._code
    except AttributeError:
        pass
    serial, bounded, variables, names = facts(phi)
    make = _memoized(bounded, len(variables), len(names))
    code = make(_body(phi), serial, *variables, *names)
    object.__setattr__(phi, "_code", code)
    return code


@functools.cache
def _memoized(bounded: bool, nvars: int, nparams: int):
    """The maker of memoized forcing functions for one key shape.

    A key is phi's serial, the node, the structure's uid unless phi is
    bounded, then the uids of the values of phi's sorted free variables and
    parameters, None for one nothing binds.  The maker is written out as
    source once per shape, as `dataclasses` writes `__init__`, so building
    a key runs no loop over names."""
    vs = [f"v{i}" for i in range(nvars)]
    ps = [f"p{i}" for i in range(nparams)]
    key = ["serial", "sigma"] + ([] if bounded else ["ctx.uid"])
    key += [f"env[{v}].uid if {v} in env else None" for v in vs]
    key += [f"params[{p}].uid if {p} in params else None" for p in ps]
    source = (
        f"def make({', '.join(['body', 'serial', *vs, *ps])}):\n"
        "    def code(ctx, sigma, env):\n"
        + ("        params = ctx.params\n" if ps else "")
        + f"        key = ({', '.join(key)},)\n"
        "        memo = ctx.memo\n"
        "        hit = memo.get(key)\n"
        "        if hit is None:\n"
        "            hit = memo[key] = body(ctx, sigma, env)\n"
        "        return hit\n"
        "    return code\n"
    )
    scope: dict = {}
    exec(source, scope)
    return scope["make"]


def _body(phi: Formula):
    """The forcing clause of phi's kind over its children's compiled
    functions, without the memo."""
    if isinstance(phi, (Member, Eq)):
        left, right = _term(phi.left), _term(phi.right)
        relation = forced_member if isinstance(phi, Member) else forced_equal

        def atom(ctx, sigma, env):
            x, y = left(ctx, sigma, env), right(ctx, sigma, env)
            return relation(ctx.frame, sigma, x, y)

        return atom
    if isinstance(phi, (And, Or)):
        left, right = _code(phi.left), _code(phi.right)
        if isinstance(phi, And):
            return lambda ctx, sigma, env: left(ctx, sigma, env) and right(ctx, sigma, env)
        return lambda ctx, sigma, env: left(ctx, sigma, env) or right(ctx, sigma, env)
    if isinstance(phi, Not):
        sub = _code(phi.body)

        def negation(ctx, sigma, env):
            for tau in ctx.up[sigma]:
                if sub(ctx, tau, env):
                    return False
            return True

        return negation
    if isinstance(phi, Implies):
        left, right = _code(phi.left), _code(phi.right)

        def implication(ctx, sigma, env):
            for tau in ctx.up[sigma]:
                if left(ctx, tau, env) and not right(ctx, tau, env):
                    return False
            return True

        return implication
    if isinstance(phi, Forall):
        var, sub, pool = phi.var, _code(phi.body), _pool(phi.bound)

        def forall(ctx, sigma, env):
            # one dict per call, rebound per element: no callee keeps it
            inner = env.copy()
            for tau in ctx.up[sigma]:
                for inner[var] in pool(ctx, tau, env):
                    if not sub(ctx, tau, inner):
                        return False
            return True

        return forall
    if isinstance(phi, Exists):
        var, sub, pool = phi.var, _code(phi.body), _pool(phi.bound)

        def exists(ctx, sigma, env):
            inner = env.copy()
            for inner[var] in pool(ctx, sigma, env):
                if sub(ctx, sigma, inner):
                    return True
            return False

        return exists
    raise EvalError(f"unknown formula node {phi!r}")


def _pool(bound: Term | None):
    """A quantifier's range at a node: the bound's extension there, or the
    universe when it has none."""
    if bound is None:
        return lambda ctx, tau, env: ctx.universe[tau]
    term = _term(bound)
    return lambda ctx, tau, env: term(ctx, tau, env).ext[tau]


def _term(t: Term):
    """t's value at a node, which must be bound and alive there."""
    name, is_var = t.name, isinstance(t, Var)

    def term(ctx, sigma, env):
        if is_var:
            if name not in env:
                raise EvalError(f"unbound variable {name!r}")
            x = env[name]
        else:
            x = ctx.params.get(name)
            if x is None:
                raise EvalError(f"unknown parameter #{name}")
        if sigma not in x.ext:
            raise EvalError(f"parameter born at {x.birth!r} is dead at {sigma!r}")
        return x

    return term


# ----------------------------------------------------- structure relations


def is_end_extension(m: Structure, n: Structure) -> bool:
    """n end-extends m: every m-universe element persists into n's universe,
    and n forces no new members into old sets."""
    if m.frame is not n.frame:
        raise ValueError("structures live on different frames")
    f = m.frame
    for sigma in f.nodes:
        old = {class_at(x, sigma) for x in m.universe[sigma]}
        if not old <= {class_at(x, sigma) for x in n.universe[sigma]}:
            return False
        for y in m.universe[sigma]:
            for x in n.universe[sigma]:
                if forced_member(f, sigma, x, y) and class_at(x, sigma) not in old:
                    return False
    return True


def delta0_absolute(
    m: Structure,
    n: Structure,
    phi: Formula,
    env: dict[str, KripkeSet] | None = None,
) -> bool:
    """Whether a bounded formula with m-side parameters gets the same verdict
    in both structures at every node.

    A bounded verdict is keyed with no structure slot, so on one frame n
    would read m's memo entries; each side forces its own fresh copy of phi
    instead, whose serials no verdict is keyed by yet."""
    if not is_delta0(phi):
        raise ValueError("delta0_absolute needs a bounded formula")
    phi_m, phi_n = parse(render(phi)), parse(render(phi))
    return all(
        forces(m, sigma, phi_m, env) == forces(n, sigma, phi_n, env)
        for sigma in m.frame.nodes
    )


@functools.cache
def _transitivity() -> tuple[Formula, Formula]:
    return (
        parse("forall u in a . forall w in u . w in a"),
        parse("forall u in a . forall w in u . forall v in w . v in u"),
    )


def is_ordinal(s: Structure, x: KripkeSet) -> bool:
    """A transitive set of transitive sets, judged by forcing at the birth
    node (and hence on the whole cone)."""
    env = {"a": x}
    return all(forces(s, x.birth, phi, env) for phi in _transitivity())
