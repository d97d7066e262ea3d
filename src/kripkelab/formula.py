"""First-order formulas over membership and equality.

Concrete syntax (ASCII):

    atom      t in t    |    t = t
    term      variable  |  #name        (# marks a named constant)
    ~ p                 tightest
    p /\\ q   p \\/ q    left-associative
    p -> q              right-associative, loosest
    forall v . p        exists v . p
    forall v in t . p   exists v in t . p     (bounded forms)

A quantifier body extends as far right as possible; parentheses override.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

from .frame import _Record

# Terms and formulas are value records (`frame._Record`) grouped by field
# shape: one base per shape declares the fields as slots and a constructor
# that fills them through the slots' own setters, which skip `__setattr__`
# and cost less than `object.__setattr__`.  The leaf classes name the kind.

# ---------------------------------------------------------------- terms


class _Term(_Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)


_set_name = _Term.name.__set__


class Var(_Term):
    __slots__ = ()


class Param(_Term):
    __slots__ = ()


Term = Var | Param

# -------------------------------------------------------------- formulas


class _Node(_Record):
    """The base of every formula class: private slots, not fields, for the
    node's facts and its compiled forcing function (one for a single binding
    and a sweep alike), which `facts` and `semantics` fill on first use."""

    __slots__ = ("_facts", "_code")


_set_facts = _Node._facts.__set__


class _Binary(_Node):
    """An atom over two terms or a connective over two formulas."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set_left(self, left)
        _set_right(self, right)


_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


class Member(_Binary):
    __slots__ = ()


class Eq(_Binary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Not(_Node):
    __slots__ = ("body",)

    def __init__(self, body: "Formula"):
        _set_body(self, body)


_set_body = Not.body.__set__


class _Binder(_Node):
    """A quantifier: its variable, its bound term (None if unbounded) and
    its body."""

    __slots__ = ("var", "bound", "body")

    def __init__(self, var: str, bound: Term | None, body: "Formula"):
        _set_var(self, var)
        _set_bound(self, bound)
        _set_binder_body(self, body)


_set_var, _set_bound = _Binder.var.__set__, _Binder.bound.__set__
_set_binder_body = _Binder.body.__set__


class Forall(_Binder):
    __slots__ = ()


class Exists(_Binder):
    __slots__ = ()


Formula = Member | Eq | Not | And | Or | Implies | Forall | Exists

_BINARY = {And: "/\\", Or: "\\/", Implies: "->"}


# ---------------------------------------------------------------- render


def render_term(t: Term) -> str:
    return t.name if isinstance(t, Var) else "#" + t.name


def render(phi: Formula) -> str:
    """Canonical fully-parenthesized form; parse(render(phi)) == phi."""
    if isinstance(phi, Member):
        return f"{render_term(phi.left)} in {render_term(phi.right)}"
    if isinstance(phi, Eq):
        return f"{render_term(phi.left)} = {render_term(phi.right)}"
    if isinstance(phi, Not):
        return f"~({render(phi.body)})"
    if isinstance(phi, (And, Or, Implies)):
        op = _BINARY[type(phi)]
        return f"({render(phi.left)}) {op} ({render(phi.right)})"
    kw = "forall" if isinstance(phi, Forall) else "exists"
    if phi.bound is None:
        return f"{kw} {phi.var} . ({render(phi.body)})"
    return f"{kw} {phi.var} in {render_term(phi.bound)} . ({render(phi.body)})"


# ----------------------------------------------------------------- parse


class ParseError(ValueError):
    pass


_SYMBOLS = ["/\\", "\\/", "->", "~", "(", ")", ".", "="]


def _tokenize(text: str) -> list[str]:
    toks, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(sym)
                i += len(sym)
                break
        else:
            if ch == "#" or ch.isalnum() or ch == "_":
                j = i + 1 if ch == "#" else i
                k = j
                while k < len(text) and (text[k].isalnum() or text[k] in "_'" ):
                    k += 1
                if k == j:
                    raise ParseError(f"bad token at position {i}: {text[i:i+10]!r}")
                toks.append(text[i:k])
                i = k
            else:
                raise ParseError(f"bad character {ch!r} at position {i}")
    return toks


class _Parser:
    def __init__(self, toks: list[str]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of formula")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def term(self) -> Term:
        tok = self.take()
        if tok.startswith("#"):
            return Param(tok[1:])
        if tok[0].isalpha() or tok[0] == "_":
            if tok in ("in", "forall", "exists"):
                raise ParseError(f"keyword {tok!r} cannot be a term")
            return Var(tok)
        raise ParseError(f"expected a term, got {tok!r}")

    def formula(self) -> Formula:
        return self.implies()

    def implies(self) -> Formula:
        left = self.disjunct()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.implies())
        return left

    def disjunct(self) -> Formula:
        left = self.conjunct()
        while self.peek() == "\\/":
            self.take()
            left = Or(left, self.conjunct())
        return left

    def conjunct(self) -> Formula:
        left = self.unary()
        while self.peek() == "/\\":
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            self.take()
            return Not(self.unary())
        if tok in ("forall", "exists"):
            self.take()
            var = self.take()
            if not (var[0].isalpha() or var[0] == "_") or var in ("in", "forall", "exists"):
                raise ParseError(f"bad bound variable {var!r}")
            bound: Term | None = None
            if self.peek() == "in":
                self.take()
                bound = self.term()
            self.take(".")
            body = self.formula()  # scope extends maximally right
            cls = Forall if tok == "forall" else Exists
            return cls(var, bound, body)
        if tok == "(":
            self.take()
            phi = self.formula()
            self.take(")")
            return phi
        return self.atom()

    def atom(self) -> Formula:
        left = self.term()
        op = self.take()
        if op == "in":
            return Member(left, self.term())
        if op == "=":
            return Eq(left, self.term())
        raise ParseError(f"expected 'in' or '=', got {op!r}")


def parse(text: str) -> Formula:
    p = _Parser(_tokenize(text))
    try:
        phi = p.formula()
    except RecursionError:
        raise ParseError("formula nests too deeply") from None
    if p.peek() is not None:
        raise ParseError(f"trailing tokens starting at {p.peek()!r}")
    return phi


# ------------------------------------------------------------- analysis


_serials = itertools.count()


def facts(phi: Formula) -> tuple[int, bool, tuple[str, ...], tuple[str, ...]]:
    """phi's serial, whether it is bounded, its sorted free variables and
    its sorted parameters.

    Folded from the children's facts the first time they are asked for and
    kept on the node; the serial comes from a counter, so no two nodes ever
    share one."""
    try:
        return phi._facts
    except AttributeError:
        pass
    var, terms = None, ()
    if isinstance(phi, (Member, Eq)):
        kids, terms = (), (phi.left, phi.right)
    elif isinstance(phi, Not):
        kids = (phi.body,)
    elif isinstance(phi, (And, Or, Implies)):
        kids = (phi.left, phi.right)
    else:
        kids, terms, var = (phi.body,), (phi.bound,), phi.var
    kids = [facts(kid) for kid in kids]
    # a quantifier's bound is read outside its binder; an unbounded one
    # contributes the None that makes the node unbounded
    bounded = None not in terms and all(kid[1] for kid in kids)
    fv = {v for kid in kids for v in kid[2] if v != var}
    fv.update(t.name for t in terms if isinstance(t, Var))
    ps = {p for kid in kids for p in kid[3]}
    ps.update(t.name for t in terms if isinstance(t, Param))
    out = (next(_serials), bounded, tuple(sorted(fv)), tuple(sorted(ps)))
    _set_facts(phi, out)
    return out


def free_vars(phi: Formula) -> frozenset[str]:
    return frozenset(facts(phi)[2])


def params_of(phi: Formula) -> frozenset[str]:
    return frozenset(facts(phi)[3])


def _fresh(base: str, avoid: frozenset[str]) -> str:
    cand = base
    while cand in avoid:
        cand += "'"
    return cand


def substitute(phi: Formula, var: str, t: Term) -> Formula:
    """Replace free occurrences of `var` by `t`, renaming binders on capture."""

    def sub_term(u: Term) -> Term:
        return t if isinstance(u, Var) and u.name == var else u

    if isinstance(phi, Member):
        return Member(sub_term(phi.left), sub_term(phi.right))
    if isinstance(phi, Eq):
        return Eq(sub_term(phi.left), sub_term(phi.right))
    if isinstance(phi, Not):
        return Not(substitute(phi.body, var, t))
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(substitute(phi.left, var, t), substitute(phi.right, var, t))
    bound = sub_term(phi.bound) if phi.bound is not None else None
    if phi.var == var:
        return type(phi)(phi.var, bound, phi.body)
    body = phi.body
    if isinstance(t, Var) and phi.var == t.name and var in free_vars(body):
        new = _fresh(phi.var, free_vars(body) | {var, t.name})
        body = substitute(body, phi.var, Var(new))
        return type(phi)(new, bound, substitute(body, var, t))
    return type(phi)(phi.var, bound, substitute(body, var, t))


def relativize(phi: Formula, dom: Term) -> Formula:
    """Bound every unbounded quantifier by `dom`."""
    if isinstance(phi, (Member, Eq)):
        return phi
    if isinstance(phi, Not):
        return Not(relativize(phi.body, dom))
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(relativize(phi.left, dom), relativize(phi.right, dom))
    bound = phi.bound if phi.bound is not None else dom
    return type(phi)(phi.var, bound, relativize(phi.body, dom))


def is_delta0(phi: Formula) -> bool:
    return facts(phi)[1]


def _is_prefixed(phi: Formula, unbounded: type) -> bool:
    """The Sigma shape for `unbounded=Exists`, the Pi shape for `Forall`:
    only that quantifier may go unbounded, and never under ~ or ->."""
    if is_delta0(phi):
        return True
    if isinstance(phi, (And, Or)):
        return _is_prefixed(phi.left, unbounded) and _is_prefixed(phi.right, unbounded)
    if isinstance(phi, (Exists, Forall)):
        ok = isinstance(phi, unbounded) or phi.bound is not None
        return ok and _is_prefixed(phi.body, unbounded)
    return False


def classify(phi: Formula) -> str:
    """One of "Delta0", "Sigma", "Pi", "General" (structural, not semantic)."""
    if is_delta0(phi):
        return "Delta0"
    if _is_prefixed(phi, Exists):
        return "Sigma"
    if _is_prefixed(phi, Forall):
        return "Pi"
    return "General"


def is_positive_in(phi: Formula, name: str, positive: bool = True) -> bool:
    """True iff every occurrence of the parameter `name` sits under an even
    number of polarity flips (negations and antecedents)."""
    def mentions(t: Term | None) -> bool:
        return isinstance(t, Param) and t.name == name

    if isinstance(phi, (Member, Eq)):
        return positive or not (mentions(phi.left) or mentions(phi.right))
    if isinstance(phi, Not):
        return is_positive_in(phi.body, name, not positive)
    if isinstance(phi, (And, Or, Implies)):
        left = positive != isinstance(phi, Implies)
        return is_positive_in(phi.left, name, left) and is_positive_in(phi.right, name, positive)
    # A bound occurrence acts like v in t -> ... for forall, v in t /\ ... for exists.
    if mentions(phi.bound) and positive != isinstance(phi, Exists):
        return False
    return is_positive_in(phi.body, name, positive)


# ----------------------------------------------------------- enumeration


def _atoms(terms: list[Term]) -> list[Formula]:
    out: list[Formula] = []
    for a, b in itertools.permutations(terms, 2):
        out.append(Member(a, b))
    for a, b in itertools.combinations(terms, 2):
        out.append(Eq(a, b))
    for t in terms:
        out.append(Member(t, t))
    for t in terms:
        out.append(Eq(t, t))
    return out


_BOUND_POOL = ("z", "w", "u", "v", "z1", "w1", "u1", "v1")
_OPS = (And, Or, Implies)
# The most formulas any layer, the last too, may have: the depth-2 layer
# over x, y and #p (1.95 million, the widest a sweep reads) takes 2.3 s and
# 224 MB peak RSS on one core (Python 3.11); the depth-3 layer over x alone
# has 11.6 million.
LAYER_CAP = 1 << 21


def enumerate_delta0(
    max_depth: int,
    variables: tuple[str, ...] = ("x", "y"),
    params: tuple[str, ...] = (),
) -> list[Formula]:
    """Deterministic stream of bounded formulas, duplicate-free by
    construction.

    Depth counts connective and quantifier nesting; atoms have depth 0.  The
    list for depth d is a prefix of the list for depth d+1.  Bound variables
    are drawn from a fixed pool, one per nesting level, so the stream is
    finite at every depth.  Atoms that mention a bound variable serve as
    operands from the depth their variable is in scope, but are never
    formulas of the stream.  Repeated names, and variables named like the
    pool, raise ValueError (so does a variable `q` in the Sigma and Pi
    enumerators, which add `q`): they would make two terms, and so two
    constructions, equal.

    This is the list of `formula_stream`, which builds every layer but the
    last up front and the last one only as far as it is read; its length is
    known beforehand from the operand lists that drive the last layer.
    """
    return list(formula_stream(max_depth, variables, params)[1])


def enumerate_sigma(
    max_depth: int,
    variables: tuple[str, ...] = ("x", "y"),
    params: tuple[str, ...] = (),
) -> list[Formula]:
    """Bounded formulas plus one unbounded existential wrapper."""
    return list(formula_stream(max_depth, variables, params, (None, Exists))[1])


def enumerate_pi(
    max_depth: int,
    variables: tuple[str, ...] = ("x", "y"),
    params: tuple[str, ...] = (),
) -> list[Formula]:
    """Bounded formulas plus one unbounded universal wrapper."""
    return list(formula_stream(max_depth, variables, params, (None, Forall))[1])


def formula_stream(
    max_depth: int,
    variables: tuple[str, ...] = ("x", "y"),
    params: tuple[str, ...] = (),
    kinds: tuple[type | None, ...] = (None,),
) -> tuple[int, Iterator[Formula]]:
    """The enumerators' streams as a length and a lazy iterator.

    `kinds` lists the parts in order: None for the bounded formulas of
    `enumerate_delta0`, Exists or Forall for `cls q . phi` over every
    bounded phi of depth below max_depth over the variables and `q`,
    whether or not phi mentions `q`, so some wrappers bind nothing.
    Names and layer sizes are checked on the call, before anything is read."""
    parts = []
    for cls in kinds:
        if cls is None:
            parts.append(_delta0(max_depth, variables, params))
        elif max_depth >= 1:
            size, inner = _delta0(max_depth - 1, variables + ("q",), params)
            parts.append((size, map(functools.partial(cls, "q", None), inner)))
    return sum(size for size, _ in parts), itertools.chain(*(it for _, it in parts))


def _delta0(
    max_depth: int, variables: tuple[str, ...], params: tuple[str, ...]
) -> tuple[int, Iterator[Formula]]:
    """`enumerate_delta0`'s stream.  Each layer is counted from its operands
    and refused past LAYER_CAP; all but the last are then built, and the
    last is a generator."""
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    for kind, names in (("variable", variables), ("parameter", params)):
        if len(set(names)) != len(names):
            raise ValueError(f"repeated {kind} name in {names}")
    clash = sorted(set(variables) & set(_BOUND_POOL))
    if clash:
        raise ValueError(f"variable {clash[0]!r} is a bound-variable name")
    base_terms: list[Term] = [Var(v) for v in variables] + [Param(p) for p in params]
    layer = _atoms(base_terms)
    stream, depth0 = list(layer), set(layer)
    bound_atoms: list[Formula] = []

    # A compound is new at depth d exactly when one operand is fresh (in the
    # previous layer, or an atom first met at d) and the other is already
    # available (in the stream so far, or any atom met so far); the pairs
    # come in the order a render-and-discard filter would keep them.
    for depth in range(1, max_depth + 1):
        terms = base_terms + [Var(_BOUND_POOL[i]) for i in range(depth - 1)]
        met = set(bound_atoms)
        bound_atoms = [a for a in _atoms(terms) if a not in depth0]
        fresh = layer + [a for a in bound_atoms if a not in met]
        avail = stream + bound_atoms
        older = stream[: len(stream) - len(layer)]
        pairs = [
            (layer, avail),
            *(((a,), fresh if a in met else avail) for a in bound_atoms),
            (older, fresh),
        ]
        bodies = layer + bound_atoms
        quantifiers = (Forall, Exists) if depth <= len(_BOUND_POOL) else ()
        binders = [functools.partial(cls, _BOUND_POOL[depth - 1]) for cls in quantifiers]
        binds = itertools.product(bodies, binders, base_terms)
        layer = itertools.chain(
            map(Not, fresh),
            (op(phi, psi) for a, b in pairs for phi in a for psi in b for op in _OPS),
            (bind(t, body) for body, bind, t in binds),
        )
        size = len(fresh) + len(_OPS) * sum(len(a) * len(b) for a, b in pairs)
        size += len(binders) * len(bodies) * len(base_terms)
        if size > LAYER_CAP:
            raise ValueError(
                f"the depth-{depth} formula layer has {size:,} formulas, past "
                f"LAYER_CAP ({LAYER_CAP:,}); lower the depth"
            )
        if depth == max_depth:
            return len(stream) + size, itertools.chain(stream, layer)
        layer = list(layer)
        stream += layer
    return len(stream), iter(stream)
