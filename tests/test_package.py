"""The package's public surface and the hygiene of its modules."""

import ast
import types
from pathlib import Path

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


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_does_not_use():
    # the package and the tests; __init__.py imports only to re-export
    modules = sorted(Path(kripkelab.__file__).parent.glob("*.py"))
    modules += sorted(Path(__file__).parent.glob("*.py"))
    unused = {
        f"{p.parent.name}/{p.name}": _unused_imports(p.read_text())
        for p in modules
        if p.name != "__init__.py"
    }
    assert {name: names for name, names in unused.items() if names} == {}


def test_every_public_name_is_reached():
    # a public name earns its place once a library module other than
    # __init__.py, or the benchmark, refers to it
    package = Path(kripkelab.__file__).parent
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += (package.parent.parent / "perfbench").glob("*.py")
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(kripkelab.__all__) - used) == []


def _defined_names(tree: ast.Module) -> set[str]:
    """The names a module binds at top level itself, not by import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_every_relative_import_names_its_owner():
    # a name is imported from the module that defines it, so no module
    # keeps a name only because another reads it through there
    package = Path(kripkelab.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    defined = {module: _defined_names(tree) for module, tree in trees.items()}
    borrowed = [
        f"{module}: from .{node.module} import {alias.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name not in defined[node.module]
    ]
    assert borrowed == []


# the modules each module may import from at module level: a layer reads
# only the layers below it, and `cli` and the package itself import each
# module where it is first needed
LIBRARY = {"frame", "formula", "semantics", "construct", "hierarchy", "schema", "specfile"}
LAYERS = {
    "__init__": set(),
    "cli": set(),
    "frame": set(),
    "formula": {"frame"},
    "semantics": {"formula", "frame"},
    "construct": {"formula", "frame", "semantics"},
    "hierarchy": {"formula", "frame", "semantics"},
    "schema": {"formula", "frame", "semantics"},
    "specfile": {"construct", "frame", "semantics"},
    "lemmas": LIBRARY,
}


def test_each_module_imports_only_the_layers_below_it():
    package = Path(kripkelab.__file__).parent
    # top-level statements only: an import inside a function or under
    # `if TYPE_CHECKING` runs late or never
    found = {
        p.stem: {
            name
            for node in ast.parse(p.read_text()).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module else [a.name for a in node.names])
        }
        for p in package.glob("*.py")
    }
    assert set(found) == set(LAYERS)
    assert {m: sorted(got - LAYERS[m]) for m, got in found.items() if got - LAYERS[m]} == {}
