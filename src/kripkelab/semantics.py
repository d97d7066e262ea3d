"""Kripke sets over a frame and the forcing relation.

A Kripke set is born at a node and assigns to every node of the birth cone a
finite extension (a tuple of previously built Kripke sets).  Transitions are
inclusions: the extension can only grow along the order.  Equality between
Kripke sets is not identity but the forced, hereditarily extensional one
computed by `forced_equal`.

Forced equality is hereditary coextensionality over the cone, a
bisimulation, so it has a canonical labelling: at each node tau where x is
alive, x's class label interns tau, the set of its members' labels at tau
and x's own labels at the nodes that cover tau (`Frame.succ`).  Two sets
alive at tau are forced equal there iff their labels agree: by induction
from the top, labels that agree at every cover agree at every node above.
A set's labels are computed the first time a question needs them, top
nodes first, and the intern table is one per frame (`Frame.classes`),
holding node names and ints only.

`forces` runs compiled code, not an interpreter, and decides a set of nodes
at once (global model checking).  Each formula node is compiled once, the
first time it is forced, into its memoized function `(ctx, env) -> mask`:
bit i is set iff `Frame.nodes[i]` forces the formula, over the nodes where
the values of its free variables and parameters are all alive.  And and or
are & and |, negation and implication keep the nodes whose cone misses a
bad mask, and a quantifier walks (element, nodes where listed) pairs of its
bound (`KripkeSet.listing`) or of the universe (`Structure.listing`).  The
function is kept in the node's `_code` slot and holds no node; no frame or
module table holds code.

Forcing masks are kept per frame (`Frame.memo`), one per binding, keyed by
the formula's serial (`formula.facts`), which no other formula ever gets,
then the uids of the values of its free variables and parameters.  A
bounded formula reads extensions and labels but never a universe, so one
mask serves every structure on the frame; unbounded keys carry
`Structure.uid`.  Each key is built by code written for its shape.
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

    __slots__ = ("frame", "birth", "ext", "uid", "label", "cone", "classes", "member_labels", "listing")

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
        # inclusion is transitive, so the covering pairs decide it
        for tau in cone:
            here = uids[tau]
            for rho in frame.succ[tau]:
                if not here <= uids[rho]:
                    raise ValueError(
                        f"extension shrinks from {tau!r} to {rho!r}; transitions are inclusions"
                    )
        self.frame = frame
        self.birth = birth
        self.ext = {tau: tuple(ext[tau]) for tau in cone}
        self.uid = next(_uid_counter)
        self.label = label
        self.cone = frame.masks[frame.pos[birth]]
        # class labels per node, filled by `class_at` on first use (members
        # predate this set, so the recursion there always ends), and what
        # `forces` reads of a bound, filled on first use
        self.classes = self.member_labels = self.listing = None

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


def _labels(x: KripkeSet) -> dict[str, int]:
    """x's class label at each node of its cone."""
    if x.classes is None:
        f, lab = x.frame, {}
        # covers have strictly smaller up-sets, so they come first
        for tau in sorted(x.ext, key=lambda t: f.masks[f.pos[t]].bit_count()):
            members = tuple(sorted({class_at(m, tau) for m in x.ext[tau]}))
            above = tuple(lab[rho] for rho in f.succ[tau])
            lab[tau] = f.classes.setdefault((tau, members, above), len(f.classes))
        x.classes = lab
    return x.classes


def class_at(x: KripkeSet, sigma: str) -> int:
    """x's forced-equality class label at sigma: sets alive at sigma are
    forced equal there iff their labels agree."""
    if sigma not in _labels(x):
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
    return c in _member_labels(y)


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
        listed: dict[str, set[int]] = {}
        for tau, elems in self.universe.items():
            uids = listed[tau] = set()
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
            for rho in self.frame.succ[tau]:
                if not listed[tau] <= listed[rho]:
                    raise ValueError(f"universe shrinks from {tau!r} to {rho!r}")
        for name, x in self.names.items():
            if x.frame is not self.frame:
                raise ValueError(f"named set {name!r} lives on a different frame")

    @functools.cached_property
    def listing(self) -> tuple[tuple[KripkeSet, int], ...]:  # see `forces`
        return _listed(self.universe, self.frame.pos)


def universe_at(s: Structure, sigma: str) -> tuple[KripkeSet, ...]:
    return s.universe[sigma]


# ---------------------------------------------------------------- forces


class EvalError(ValueError):
    pass


# forcing masks a frame keeps before `forces` resets its memo: a reset
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

    Each free term of phi must be bound and alive at sigma: `EvalError` says
    which is not before anything is forced, even if no clause would read it.
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
        _, _, variables, names = facts(phi)
        missing = [f"unbound variable {v!r}" for v in variables if v not in env]
        missing += [f"unknown parameter #{p}" for p in names if p not in ctx.params]
        if missing:
            raise EvalError(missing[0])
        for x in (*(env[v] for v in variables), *(ctx.params[p] for p in names)):
            if sigma not in x.ext:
                raise EvalError(f"parameter born at {x.birth!r} is dead at {sigma!r}")
        return bool(_code(phi)(ctx, env) >> s.frame.pos[sigma] & 1)
    except RecursionError:
        raise EvalError("formula nests too deeply to evaluate") from None


class _Ctx:
    """The state of one top-level `forces` call: the structure, its uid and
    parameters (its names, overridden by the extra ones), and frame tables."""

    __slots__ = ("structure", "uid", "params", "nodes", "masks", "full", "memo")

    def __init__(self, s: Structure, extra: dict[str, KripkeSet]):
        f = s.frame
        self.structure, self.uid, self.params = s, s.uid, {**s.names, **extra}
        self.nodes, self.masks, self.memo = f.nodes, f.masks, f.memo
        self.full = f.masks[f.pos[f.bottom]]


def _code(phi: Formula):
    """phi's memoized forcing function `(ctx, env) -> mask`: bit i is set
    iff `nodes[i]` lies in phi's domain, the meet of the cones of the values
    of its free variables and parameters, and forces phi.  Compiled from its
    children's functions the first time it is asked for and kept on the
    node; it holds no node, so it is freed with phi."""
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

    A key is phi's serial, the structure's uid unless phi is bounded, then
    the uids of the values of phi's sorted free variables and parameters,
    whose cones meet in the domain.  The maker is written out as source once
    per shape, as `dataclasses` writes `__init__`: no loop over names."""
    vs = [f"v{i}" for i in range(nvars)]
    ps = [f"p{i}" for i in range(nparams)]
    values = [f"env[{v}]" for v in vs] + [f"params[{p}]" for p in ps]
    key = ["serial"] + ([] if bounded else ["ctx.uid"])
    key += [f"a{i}.uid" for i in range(len(values))]
    domain = " & ".join(f"a{i}.cone" for i in range(len(values))) or "ctx.full"
    source = (
        f"def make({', '.join(['body', 'serial', *vs, *ps])}):\n"
        "    def code(ctx, env):\n"
        + ("        params = ctx.params\n" if ps else "")
        + "".join(f"        a{i} = {value}\n" for i, value in enumerate(values))
        + f"        key = ({', '.join(key)},)\n"
        "        memo = ctx.memo\n"
        "        hit = memo.get(key)\n"
        "        if hit is None:\n"
        f"            hit = memo[key] = body(ctx, env, {domain})\n"
        "        return hit\n"
        "    return code\n"
    )
    scope: dict = {}
    exec(source, scope)
    return scope["make"]


def _body(phi: Formula):
    """The forcing clause of phi's kind over its children's compiled
    functions, without the memo: `(ctx, env, domain) -> mask`."""
    if isinstance(phi, (Member, Eq)):
        left, right = _term(phi.left), _term(phi.right)
        # a label is interned with its node, so x's label at tau is one of
        # y's own labels (of its members' labels) iff x = y (x in y) at tau
        own = lambda y: frozenset(_labels(y).values())
        heads = _member_labels if isinstance(phi, Member) else own

        def atom(ctx, env, d):
            x, y = _labels(left(ctx, env)), heads(right(ctx, env))
            nodes, out = ctx.nodes, 0
            while d:
                low = d & -d
                if x[nodes[low.bit_length() - 1]] in y:
                    out |= low
                d ^= low
            return out

        return atom
    if isinstance(phi, (And, Or, Implies)):
        left, right = _code(phi.left), _code(phi.right)
        if isinstance(phi, And):
            return lambda ctx, env, d: (got := left(ctx, env)) and got & right(ctx, env)
        if isinstance(phi, Or):
            return lambda ctx, env, d: (
                got if (got := left(ctx, env) & d) == d else (got | right(ctx, env)) & d
            )
        return lambda ctx, env, d: _interior(
            ctx.masks, d, (bad := left(ctx, env) & d) and bad & ~right(ctx, env)
        )
    if isinstance(phi, Not):
        sub = _code(phi.body)
        return lambda ctx, env, d: _interior(ctx.masks, d, sub(ctx, env))
    if isinstance(phi, (Forall, Exists)):
        var, sub, listing = phi.var, _code(phi.body), _listing(phi.bound)
        # each element strikes off the nodes it is listed at and witnesses
        # (exists) or refutes (forall, whose verdict is then an interior)
        flip = -1 if isinstance(phi, Forall) else 0

        def quantifier(ctx, env, d):
            # one dict per call, rebound per element: no callee keeps it
            inner, todo = env.copy(), d
            for inner[var], where in listing(ctx, env):
                where &= todo
                if where:
                    todo ^= where & (sub(ctx, inner) ^ flip)
                    if not todo:
                        break
            return _interior(ctx.masks, d, d ^ todo) if flip else d ^ todo

        return quantifier
    raise EvalError(f"unknown formula node {phi!r}")


def _interior(masks: tuple[int, ...], d: int, bad: int) -> int:
    """The nodes of the domain d whose cone misses bad."""
    if not bad:
        return d
    out, todo = 0, d & ~bad
    while todo:
        low = todo & -todo
        if not masks[low.bit_length() - 1] & bad:
            out |= low
        todo ^= low
    return out


def _listed(ext: dict[str, tuple[KripkeSet, ...]], pos: dict[str, int]):
    """Each set listed in ext with the mask of the nodes it is listed at."""
    where: dict[KripkeSet, int] = {}
    for tau, elems in ext.items():
        for x in elems:
            where[x] = where.get(x, 0) | 1 << pos[tau]
    return tuple(where.items())


def _member_labels(y: KripkeSet) -> frozenset[int]:
    if y.member_labels is None:
        y.member_labels = frozenset(class_at(m, t) for t, ms in y.ext.items() for m in ms)
    return y.member_labels


def _listing(bound: Term | None):
    """A quantifier's range, the bound's members or else the universe."""
    if bound is None:
        return lambda ctx, env: ctx.structure.listing
    term = _term(bound)

    def listing(ctx, env):
        y = term(ctx, env)
        if y.listing is None:
            y.listing = _listed(y.ext, y.frame.pos)
        return y.listing

    return listing


def _term(t: Term):
    """t's value; `forces` checked on entry that every term is bound."""
    name = t.name
    if isinstance(t, Var):
        return lambda ctx, env: env[name]
    return lambda ctx, env: ctx.params[name]


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
