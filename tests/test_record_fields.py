"""Formula nodes and value records share one base, `frame._Record`: a
class's fields are the public slots it and its bases declare, base classes
first, and equality, hashing and repr read those fields and nothing else."""

import importlib
import inspect
import pkgutil

import pytest

import kripkelab
from kripkelab import formula as F
from kripkelab.frame import _Record, chain
from kripkelab.semantics import forces
from kripkelab.specfile import canonical_structure


def _records() -> list[type]:
    for info in pkgutil.iter_modules(kripkelab.__path__):
        importlib.import_module(f"kripkelab.{info.name}")
    found, todo = set(), list(_Record.__subclasses__())
    while todo:
        cls = todo.pop()
        found.add(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


RECORDS = _records()
BUILT = [cls for cls in RECORDS if cls.__init__ is not object.__init__]


def test_every_record_but_the_formula_base_has_a_constructor():
    assert [cls for cls in RECORDS if cls not in BUILT] == [F._Node]
    names = {cls.__qualname__ for cls in RECORDS}
    assert {"FrameKind", "DefConfig", "CheckBounds", "CheckReport", "StructSpec"} <= names
    assert {"Var", "Member", "Not", "Forall"} <= names


@pytest.mark.parametrize("cls", BUILT, ids=lambda cls: cls.__qualname__)
def test_fields_are_the_constructor_parameters_in_order(cls):
    assert cls._fields == tuple(inspect.signature(cls).parameters)
    assert not any(name.startswith("_") for name in cls._fields)


SHAPES = {
    ("name",): (F.Var, F.Param),
    ("left", "right"): (F.Member, F.Eq, F.And, F.Or, F.Implies),
    ("body",): (F.Not,),
    ("var", "bound", "body"): (F.Forall, F.Exists),
    ("name", "variables", "params", "dom"): (F.Hole,),
}


def test_every_leaf_formula_class_has_its_shape_fields():
    leaves = [cls for cls in RECORDS if cls.__module__ == F.__name__ and not cls.__subclasses__()]
    assert sorted(leaves, key=str) == sorted(sum(SHAPES.values(), ()), key=str)
    for fields, classes in SHAPES.items():
        for cls in classes:
            assert cls._fields == fields, cls


def test_a_forced_formula_equals_and_hashes_like_a_fresh_parse():
    text = "forall a in #three . (a = #zero \\/ exists b in a . ~(b in #one))"
    phi = F.parse(text)
    forces(canonical_structure(chain(3)), "0", phi)
    # forcing filled the private slots, which are no fields
    assert phi._facts is not None and phi._code is not None
    fresh = F.parse(text)
    assert phi == fresh and fresh == phi and hash(phi) == hash(fresh)
    assert repr(phi) == repr(fresh)
    assert "_facts" not in repr(phi) and "_code" not in repr(phi)
