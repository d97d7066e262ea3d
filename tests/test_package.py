"""The package's public surface."""

import types

import kripkelab


def test_all_names_the_public_api():
    assert len(kripkelab.__all__) == len(set(kripkelab.__all__))
    assert {"forces", "check_schema", "SchemaId"} <= set(kripkelab.__all__)
    assert "semantics" not in kripkelab.__all__
    for name in kripkelab.__all__:
        value = getattr(kripkelab, name)
        assert not isinstance(value, types.ModuleType), name
    scope: dict = {}
    exec("from kripkelab import *", scope)
    for name in kripkelab.__all__:
        assert scope[name] is getattr(kripkelab, name)
