"""Axiom-schema checks over forcing structures.

Every check is one question: does a node force a closed template formula?
One catalogue entry per schema holds all of it: the noun its messages use,
the slot its instance formula fills (the classes and free variables
allowed, and what a sweep reads there) and its template, a function of
that formula; an axiom has no slot, and its text is parsed on first use.
A sweep reads its formulas from a lazy `formula_stream`, so one that fails
early never builds the rest of the last layer.  It builds the template
once per parameter shape of the swept formulas, around a `formula.Hole`
that stands for the instance formula, so the template's nodes are compiled
once per check.  Each swept formula is checked against the slot, compiles
only its own new nodes and is bound to the hole as a variable is
(`semantics.Fill`): the template nodes above the hole key their masks by
it, and every other node's masks serve the whole sweep.  The template is
forced once per formula, over every assignment of its parameters at every
node (a `semantics.Sweep` mask, whose block at a node holds one bit per
assignment from that node's universe), and the sweep reads one bit per
(node, assignment) in scope.  Structures may carry designated instances in
their notes; those are checked first, each forced on the template it
built around its own formula (`DesignatedInstance` parses and checks
itself once) in a sweep with no names, so a designed failure is the one
reported.  Every sweep a check makes owns its memo, so no check
writes the frame's.

Epsilon induction is decided by well-foundedness, not by its sweep: a
set's members are built before it, so every structure forces every
instance.  Its entry says so (`valid`), and a check counts its swept
instances without forcing any; the per-instance sweep is kept as a test.

The checks and the three-way verdict table (`proposition1_crosscheck`)
read formulas, frames and forcing only, so a cold `check` or `prop1` loads
no definability engine; the lemma battery, which reads every layer, is
`lemmas`.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import Callable, Iterator, Sequence

from .formula import (
    And,
    Exists,
    Forall,
    Formula,
    Hole,
    Implies,
    Member,
    Param,
    Var,
    classify,
    facts,
    formula_stream,
    free_vars,
    params_of,
    parse,
    relativize,
    render,
)
from .frame import _Record, _require
from .semantics import Fill, Structure, Sweep, _require_alive


class SchemaId(Enum):
    EXTENSIONALITY = "Extensionality"
    PAIRING = "Pairing"
    UNION = "Union"
    EMPTY_SET = "EmptySet"
    DELTA0_COMPREHENSION = "Delta0Comprehension"
    DELTA0_BOUNDING = "Delta0Bounding"
    DELTA0_UNIFORMITY = "Delta0Uniformity"
    SIGMA_REFLECTION = "SigmaReflection"
    PI_PERSISTENCE = "PiPersistence"
    PI_UNIFORMITY = "PiUniformity"
    EPSILON_INDUCTION = "EpsilonInduction"
    PI2_REFLECTION = "Pi2Reflection"


class CheckBounds(_Record):
    __slots__ = ("formula_depth", "max_params", "node_scope")

    def __init__(self, formula_depth: int = 1, max_params: int = 1, node_scope: str = "all"):
        if formula_depth < 0 or max_params < 0:
            raise ValueError("formula_depth and max_params must be >= 0")
        if node_scope not in ("all", "bottom"):
            raise ValueError("node_scope must be 'all' or 'bottom'")
        self._fill(formula_depth, max_params, node_scope)


class DesignatedInstance(_Record):
    """A handpicked schema instance carried in a structure's notes.

    `params` maps template parameter names to names-table entries; `node`
    pins the evaluation node, defaulting to the scope of the enclosing
    check.  The record checks itself, built by hand or read from a file:
    phi must parse and fit the schema's slot, and each key must be a
    parameter the template reads (one left out falls back to the names
    table at the check).  It keeps the parsed formula and its template in
    private slots, which are no fields, so a check builds neither again."""

    __slots__ = ("schema", "phi", "params", "node", "label", "_formula", "_template")

    def __init__(
        self,
        schema: SchemaId,
        phi: str | None = None,
        params: tuple[tuple[str, str], ...] = (),
        node: str | None = None,
        label: str = "",
    ):
        formula = None if phi is None else parse(phi)
        try:
            template = build_template(schema, formula)
            reads = params_of(template)
        except RecursionError:
            raise ValueError("formula nests too deeply") from None
        for key, _ in params:
            if key not in reads:
                wanted = ", ".join(f"#{p}" for p in sorted(reads)) or "none"
                raise ValueError(f"the template reads no parameter #{key} (it reads {wanted})")
        self._fill(schema, phi, params, node, label)
        object.__setattr__(self, "_formula", formula)
        object.__setattr__(self, "_template", template)


class _Entry(_Record):
    """One schema: the noun its error messages use, its template as a
    function of the instance formula, and that formula's slot: the
    `classify` classes allowed (() allows any), the free variables allowed
    and swept, the parts of the swept `formula_stream`, and the max_params
    at which #p joins them.  An axiom has no slot: `classes` is None.
    `valid` marks a schema that every structure forces at every instance,
    so a check counts its swept instances and forces none of them."""

    __slots__ = ("noun", "template", "classes", "variables", "kinds", "p_from", "valid")

    def __init__(
        self,
        noun: str,
        template: Callable[[Formula | None], Formula],
        classes: tuple[str, ...] | None = None,
        variables: tuple[str, ...] = (),
        kinds: tuple[type | None, ...] = (None,),
        p_from: int = 2,
        valid: bool = False,
    ):
        self._fill(noun, template, classes, variables, kinds, p_from, valid)


def _sentence(text: str) -> Callable[[None], Formula]:
    """An axiom's template: its text, parsed on first use rather than at
    import, which every cold `check` would pay for."""
    return functools.cache(lambda phi: parse(text))


def _uniformity(phi: Formula) -> Formula:
    return Implies(
        Forall("B", None, Exists("x", Param("A"), Forall("y", Var("B"), phi))),
        Exists("x", Param("A"), Forall("y", None, phi)),
    )


# a template binds its slot's variables and names never among them, so a
# formula that passes the variables check cannot be captured
_CATALOGUE = {
    SchemaId.EXTENSIONALITY: _Entry("Extensionality", _sentence(
        "forall a . forall b . "
        "((((forall z in a . z in b)) /\\ ((forall z in b . z in a))) -> a = b)"
    )),
    SchemaId.PAIRING: _Entry(
        "Pairing", _sentence("forall a . forall b . exists c . (a in c /\\ b in c)")
    ),
    SchemaId.UNION: _Entry(
        "Union", _sentence("forall a . exists c . forall z in a . forall w in z . w in c")
    ),
    SchemaId.EMPTY_SET: _Entry("EmptySet", _sentence("exists c . forall z in c . ~(z = z)")),
    SchemaId.DELTA0_COMPREHENSION: _Entry(
        "comprehension",
        lambda phi: Exists("c", None, And(
            Forall("x", Var("c"), And(Member(Var("x"), Param("A")), phi)),
            Forall("x", Param("A"), Implies(phi, Member(Var("x"), Var("c")))),
        )),
        ("Delta0",), ("x",),
    ),
    SchemaId.DELTA0_BOUNDING: _Entry(
        "Delta0Bounding",
        lambda phi: Implies(
            Forall("x", Param("A"), Exists("y", None, phi)),
            Exists("B", None, Forall("x", Param("A"), Exists("y", Var("B"), phi))),
        ),
        ("Delta0",), ("x", "y"),
    ),
    SchemaId.DELTA0_UNIFORMITY: _Entry("Delta0Uniformity", _uniformity, ("Delta0",), ("x", "y")),
    # strictly Pi: the bounded formulas are Delta0 uniformity's
    SchemaId.PI_UNIFORMITY: _Entry(
        "PiUniformity", _uniformity, ("Delta0", "Pi"), ("x", "y"), (Forall,)
    ),
    SchemaId.SIGMA_REFLECTION: _Entry(
        "reflection",
        lambda phi: Implies(phi, Exists("A", None, relativize(phi, Var("A")))),
        ("Delta0", "Sigma"), (), (None, Exists), 1,
    ),
    SchemaId.PI_PERSISTENCE: _Entry(
        "persistence",
        lambda phi: Implies(Forall("A", None, relativize(phi, Var("A"))), phi),
        ("Delta0", "Pi"), (), (None, Forall), 1,
    ),
    # valid: a set's members are built before it (`KripkeSet`), so
    # membership is well founded, and if sigma forces the hypothesis then,
    # by induction on that order, every tau >= sigma forces phi(x) for each
    # x in U(tau): each member y of x listed at a rho >= tau is listed in
    # U(rho) and comes before x, so rho forces phi(y)
    SchemaId.EPSILON_INDUCTION: _Entry(
        "induction",
        lambda phi: Implies(
            # the bound is read before `a` is rebound, so phi needs no renamed copy
            Forall("a", None, Implies(Forall("a", Var("a"), phi), phi)),
            Forall("a", None, phi),
        ),
        (), ("a",), valid=True,
    ),
    SchemaId.PI2_REFLECTION: _Entry(
        "Pi2Reflection",
        lambda phi: Implies(
            Forall("x", None, Exists("y", None, phi)),
            Forall("A", None, Exists("B", None, And(
                Forall("z", Var("A"), Member(Var("z"), Var("B"))),
                Forall("x", Var("B"), Exists("y", Var("B"), phi)),
            ))),
        ),
        ("Delta0",), ("x", "y"),
    ),
}

AXIOM_IDS = frozenset(sc for sc, entry in _CATALOGUE.items() if entry.classes is None)

_FRAGMENTS = {
    ("Delta0",): "be bounded formulas",
    ("Delta0", "Pi"): "sit in the universal fragment",
    ("Delta0", "Sigma"): "sit in the existential fragment",
}


def build_template(schema: SchemaId, phi: Formula | None) -> Formula:
    """The closed formula whose forcing decides one schema instance, once
    phi is checked against the schema's slot."""
    return _slot(schema, phi).template(phi)


def _slot(schema: SchemaId, phi: Formula | None) -> _Entry:
    """The schema's catalogue entry, once phi is checked against its slot."""
    entry = _CATALOGUE.get(schema)
    if entry is None:
        raise ValueError(f"unknown schema {schema}")
    if entry.classes is None:
        if phi is not None:
            raise ValueError(f"{entry.noun} takes no instance formula")
    elif phi is None:
        raise ValueError(f"{schema.value} needs an instance formula")
    elif entry.classes and classify(phi) not in entry.classes:
        raise ValueError(f"{entry.noun} instances must {_FRAGMENTS[entry.classes]}")
    elif not free_vars(phi) <= set(entry.variables):
        if not entry.variables:
            raise ValueError(f"{entry.noun} instances must be sentences")
        allowed = " and ".join(entry.variables)
        raise ValueError(f"{entry.noun} instances may mention {allowed} only")
    return entry


def _counterexample(
    schema: SchemaId, phi: Formula | None, assignment: dict | None, sigma: str
) -> tuple:
    """The report of an instance whose template sigma does not force."""
    values = sorted((assignment or {}).items())
    desc = tuple(f"{k}={v.label or f'uid{v.uid}'}" for k, v in values)
    return schema.value, render(phi) if phi is not None else "", desc, sigma


class CheckReport(_Record):
    __slots__ = ("schema", "holds", "counterexample", "note", "stats")

    def __init__(
        self,
        schema: SchemaId,
        holds: bool,
        counterexample: tuple | None = None,
        note: str = "",
        stats: dict | None = None,
    ):
        self._fill(schema, holds, counterexample, note, {} if stats is None else stats)


def _stream(schema: SchemaId, bounds: CheckBounds) -> tuple[int, Iterator[Formula | None]]:
    """The swept formulas, their number and a lazy stream of them; an axiom
    sweeps one instance with no formula."""
    entry = _CATALOGUE[schema]
    if entry.classes is None:
        return 1, iter((None,))
    params = ("p",) if bounds.max_params >= entry.p_from else ()
    return formula_stream(bounds.formula_depth, entry.variables, params, entry.kinds)


def _scope(s: Structure, bounds: CheckBounds) -> tuple[str, ...]:
    if bounds.node_scope == "bottom":
        return (s.frame.bottom,)
    return s.frame.nodes


def check_schema(
    s: Structure, schema: SchemaId, bounds: CheckBounds = CheckBounds()
) -> CheckReport:
    """Sweep a schema over enumerated instances plus any designated ones.

    Designated instances run first, so a structure built around a known gap
    reports that gap.  The first failing instance is the counterexample:
    formulas in stream order, then nodes in scope, then assignments from
    the node's universe.  Each template is forced once, over all
    assignments at all nodes, and each instance reads one bit of that mask:
    a node's assignments are one block of bits in product order, read in
    one step when all hold; only a failing node is walked, in assignment
    order, to its first failing assignment.  One loop does it all
    (`_sweep`): it counts, and forces none of, the swept instances of a
    valid schema (see `_Entry`) and those at a node whose universe gives
    no assignment.  A designated template is its instance's; the swept
    templates, the sweeps and the masks they keep, in memos of their own,
    are dropped on return."""
    nodes = _scope(s, bounds)
    instances = 0
    designated = 0
    failure: tuple | None = None
    note = ""

    for inst in s.notes:
        if not isinstance(inst, DesignatedInstance) or inst.schema is not schema:
            continue
        designated += 1
        for _, v in inst.params:
            if v not in s.names:
                raise ValueError(f"designated {schema.value} instance names no entry {v!r}")
        assignment = {k: s.names[v] for k, v in inst.params} or None
        phi, template, sweep = inst._formula, inst._template, Sweep(s, (), assignment)
        held = sweep.forcing_mask(template)  # a sweep with no names: bit i is node i
        for sigma in (inst.node,) if inst.node is not None else nodes:
            instances += 1
            _require(s.frame, sigma)
            if not held >> s.frame.pos[sigma] & 1:
                _require_alive(template, sigma, {}, sweep.params)
                if failure is None:
                    failure = _counterexample(schema, phi, assignment, sigma)
                    note = inst.label or "designated instance"

    count, formulas = _stream(schema, bounds)
    if failure is None:
        checked, failure = _sweep(s, schema, formulas, nodes)
        instances += checked
    return CheckReport(
        schema=schema,
        holds=failure is None,
        counterexample=failure,
        note=note if failure is not None else "",
        stats={
            "formulas": count,
            "nodes": len(nodes),
            "instances": instances,
            "designated": designated,
        },
    )


def _sweep(
    s: Structure, schema: SchemaId, formulas: Iterator[Formula | None], nodes: tuple[str, ...]
) -> tuple[int, tuple | None]:
    """The swept instances checked and the first that fails, if any.  Per
    parameter shape, () or ("p",), one hole stands for the swept formulas
    (none for an axiom), one template is built around it, and one sweep
    over the template's parameters, #A then #p, forces it once per formula.
    Node sigma holds |U(sigma)| ** k instances, k the number of those
    parameters.  A valid schema (see `_Entry`) builds no sweep: each
    formula, in stream order and checked against the slot, is counted and
    none is forced; so is a node whose universe gives no assignment."""
    instances = 0
    shapes: dict[tuple[str, ...], tuple[Hole | None, Formula, tuple[str, ...], Sweep | None]] = {}
    for phi in formulas:
        entry = _slot(schema, phi)
        shape = () if phi is None else facts(phi)[3]
        got = shapes.get(shape)
        if got is None:
            hole = None if entry.classes is None else Hole("%", entry.variables, shape)
            template = entry.template(hole)
            names = tuple(sorted(params_of(template)))
            got = shapes[shape] = hole, template, names, None if entry.valid else Sweep(s, names)
        hole, template, names, sweep = got
        held = None
        for sigma in nodes:
            here = len(s.universe[sigma]) ** len(names)
            if sweep is not None and here:
                if held is None:
                    env = {} if hole is None else {hole.name: Fill(s.frame, phi)}
                    held = sweep.forcing_mask(template, env)
                listed = (1 << here) - 1 << sweep.position((), sigma)
                if held & listed != listed:
                    product = itertools.product(s.universe[sigma], repeat=len(names))
                    for k, values in enumerate(product, 1):
                        if not held >> sweep.position(values, sigma) & 1:
                            failure = _counterexample(schema, phi, dict(zip(names, values)), sigma)
                            return instances + k, failure
            instances += here
    return instances, None


# ------------------------------------------------- three-way verdict table

# The three schemas whose equivalence over the base theory is under study.
# No finite structure meets that base theory.  At a maximal node forcing is
# classical over a finite, membership-closed, well-founded universe: if it
# has elements, one of greatest rank belongs to no set there, so Pairing
# fails; if it is empty, Empty Set fails.  Either failure persists to every
# node below, so prop1 lists the trio alone.
EQUIVALENT_TRIO = (
    SchemaId.PI_PERSISTENCE,
    SchemaId.PI_UNIFORMITY,
    SchemaId.DELTA0_UNIFORMITY,
)


class Prop1Row(_Record):
    __slots__ = ("label", "trio", "agreement")

    def __init__(self, label: str, trio: tuple[tuple[str, bool], ...], agreement: bool):
        self._fill(label, trio, agreement)


class Prop1Report(_Record):
    __slots__ = ("rows", "agreements", "disagreements")

    def __init__(self, rows: tuple[Prop1Row, ...], agreements: int, disagreements: int):
        self._fill(rows, agreements, disagreements)


def proposition1_crosscheck(
    corpus: Sequence[Structure], bounds: CheckBounds = CheckBounds()
) -> Prop1Report:
    """Verdicts for the three-way equivalent schemas, one row per structure.

    Every row lies outside the equivalence's hypothesis, since no finite
    structure satisfies the base theory (see ``EQUIVALENT_TRIO``), so
    agreement between the three columns is tabulated and reported, never
    asserted."""
    rows: list[Prop1Row] = []
    agreements = disagreements = 0
    for i, s in enumerate(corpus):
        trio = tuple(
            (sc.value, check_schema(s, sc, bounds).holds) for sc in EQUIVALENT_TRIO
        )
        same = len({h for _, h in trio}) == 1
        agreements += 1 if same else 0
        disagreements += 0 if same else 1
        rows.append(Prop1Row(label=f"{i}:{s.frame.kind}", trio=trio, agreement=same))
    return Prop1Report(
        rows=tuple(rows), agreements=agreements, disagreements=disagreements
    )
