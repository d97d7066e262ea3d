"""Formula nodes and value records are plain slotted classes: they compare
and hash field by field, print as dataclasses print, refuse assignment, and
validate their fields with the same messages."""

import pytest

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
    enumerate_delta0,
    parse,
    render,
)
from kripkelab.frame import FrameKind
from kripkelab.hierarchy import DefConfig
from kripkelab.lemmas import LemmaResult
from kripkelab.schema import (
    CheckBounds,
    CheckReport,
    DesignatedInstance,
    Prop1Report,
    Prop1Row,
    SchemaId,
    _Entry,
)
from kripkelab.specfile import StructSpec

x, y, p = Var("x"), Var("y"), Param("p")


def test_nodes_of_one_shape_differ_by_class():
    a, b = Member(x, y), Eq(x, y)
    assert Member(x, y) != Eq(x, y)
    assert And(a, b) != Or(a, b) != Implies(a, b)
    assert Forall("z", None, a) != Exists("z", None, a)
    assert Var("x") != Param("x")
    assert Not(a) != a


def test_equal_nodes_hash_alike():
    for text in ("x in y", "~(x = #p)", "(x in y) /\\ (y in x)", "forall z in x . z in y"):
        one, two = parse(text), parse(text)
        assert one is not two
        assert one == two and hash(one) == hash(two)
    assert len({Member(x, y), Member(Var("x"), Var("y")), Eq(x, y)}) == 2


def test_render_parses_back_to_an_equal_node():
    formulas = enumerate_delta0(1, ("x", "y"), ("p",))
    assert len(formulas) > 100
    for phi in formulas:
        assert parse(render(phi)) == phi


# taken from the frozen dataclasses these classes replaced
REPRS = [
    (
        parse("forall z in #p . ~(z in x) -> x = y"),
        "Forall(var='z', bound=Param(name='p'), body=Implies(left=Not(body=Member("
        "left=Var(name='z'), right=Var(name='x'))), right=Eq(left=Var(name='x'), "
        "right=Var(name='y'))))",
    ),
    (
        parse("exists w . x in w /\\ w in y \\/ x = x"),
        "Exists(var='w', bound=None, body=Or(left=And(left=Member(left=Var(name='x'), "
        "right=Var(name='w')), right=Member(left=Var(name='w'), right=Var(name='y'))), "
        "right=Eq(left=Var(name='x'), right=Var(name='x'))))",
    ),
    (FrameKind("tree", (3,)), "FrameKind(name='tree', sizes=(3,))"),
    (DefConfig(), "DefConfig(formula_depth=4)"),
    (
        CheckBounds(formula_depth=2, node_scope="bottom"),
        "CheckBounds(formula_depth=2, max_params=1, node_scope='bottom')",
    ),
    (
        DesignatedInstance(SchemaId.DELTA0_UNIFORMITY, "y in x", (("A", "_W"),), "bot", "gap"),
        "DesignatedInstance(schema=<SchemaId.DELTA0_UNIFORMITY: 'Delta0Uniformity'>, "
        "phi='y in x', params=(('A', '_W'),), node='bot', label='gap')",
    ),
    (
        _Entry("comprehension", Not, ("Delta0",), ("x",), (None, Exists), 2),
        "_Entry(noun='comprehension', template=<class 'kripkelab.formula.Not'>, "
        "classes=('Delta0',), variables=('x',), "
        "kinds=(None, <class 'kripkelab.formula.Exists'>), p_from=2, valid=False)",
    ),
    (
        CheckReport(SchemaId.PAIRING, True, None, "n", {"instances": 3}),
        "CheckReport(schema=<SchemaId.PAIRING: 'Pairing'>, holds=True, "
        "counterexample=None, note='n', stats={'instances': 3})",
    ),
    (
        Prop1Row(label="0:chain(1)", trio=(("A", True),), agreement=True),
        "Prop1Row(label='0:chain(1)', trio=(('A', True),), agreement=True)",
    ),
    (
        Prop1Report(rows=(), agreements=1, disagreements=0),
        "Prop1Report(rows=(), agreements=1, disagreements=0)",
    ),
    (LemmaResult("L1", "holds", 3), "LemmaResult(tag='L1', status='holds', checked=3, note='')"),
    (
        StructSpec("chain length=1", (("x", "nat", ("2",)),)),
        "StructSpec(frame_text='chain length=1', entries=(('x', 'nat', ('2',)),), "
        "universe_seeds=(), designations=())",
    ),
]


@pytest.mark.parametrize("value,text", REPRS, ids=[type(v).__name__ for v, _ in REPRS])
def test_repr_is_the_dataclass_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize(
    "value,field",
    [
        (x, "name"),
        (Member(x, y), "left"),
        (Not(Eq(x, y)), "body"),
        (Forall("z", p, Eq(x, y)), "bound"),
        (FrameKind("chain", (2,)), "sizes"),
        (CheckBounds(), "node_scope"),
        (StructSpec("chain length=1", ()), "entries"),
        (LemmaResult("L1", "holds", 3), "note"),
    ],
)
def test_fields_refuse_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_records_compare_field_by_field():
    assert CheckBounds() == CheckBounds(1, 1, "all")
    assert hash(CheckBounds()) == hash(CheckBounds(formula_depth=1))
    assert CheckBounds() != CheckBounds(max_params=2)
    assert DefConfig(formula_depth=2) == DefConfig(2) != DefConfig()
    assert FrameKind("fan", (3,)) != FrameKind("fan", (4,))
    # one class's record never equals another's, fields alike or not
    assert Prop1Report((), 0, 0) != Prop1Row((), 0, 0)
    assert CheckReport(SchemaId.UNION, True).stats == {}
    with pytest.raises(TypeError):
        DefConfig(formula_depth=2, depth=3)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: CheckBounds(formula_depth=-1), "formula_depth and max_params must be >= 0"),
        (lambda: CheckBounds(max_params=-1), "formula_depth and max_params must be >= 0"),
        (lambda: CheckBounds(node_scope="top"), "node_scope must be 'all' or 'bottom'"),
        (lambda: DefConfig(0), "formula_depth must be >= 1"),
        (lambda: FrameKind("cube", (1,)), "unknown frame kind 'cube'"),
        (lambda: FrameKind("tree", (1, 2)), "tree takes 1 size parameter(s)"),
        (lambda: FrameKind("fan", (0,)), "fan size parameters must be >= 1, got (0,)"),
        (lambda: FrameKind("chain", (2000,)), "chain frame (2000,) has more than 1024 nodes"),
    ],
)
def test_validation_messages_are_unchanged(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
