"""Every import in the package is read, and every function is named.

    python3 -m pytest tests/test_imports.py

A name that a module of src/warpgeo imports must be read in that module,
so deleting the code that used it cannot leave the import behind; the
package's __init__ imports exactly the names of its __all__.  Every
module-level function and every method but a dunder must be named in the
package outside its own definition, or be one of the few kept for a
reason outside it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import warpgeo

PACKAGE = Path(warpgeo.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """The names the imports of a module bind, __future__ imports aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - read) == []


def test_init_imports_exactly_all():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert _imported(tree) == set(warpgeo.__all__)


def _readers(name):
    """The modules that import `name` or read it as an attribute."""
    out = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if name in _imported(tree) | attrs:
            out.append(path.stem)
    return out


def test_expressions_are_evaluated_in_two_places():
    # the immersion's components, and the warp in WarpedScene.warp_jet;
    # eval_value is the tests' reference only
    assert _readers("eval_jet") == ["immersion", "warped"]
    assert _readers("eval_value") == []


# functions nothing in the package names, each with the reason it stays
UNCALLED = {
    "expr.eval_value": "the tests' reference evaluator; the bench tracer times it",
    "oracle.bitension_first_principles": "the bench tracer times it; tests call it",
    "oracle.curvature_components": "the bench tracer times it; tests call it",
    "oracle.inclusion_map": "the tests' oracle of the warped inclusion",
    "jet.Jet.coefficient": "a public accessor of one Taylor coefficient; tests read it",
}


def _defined(tree):
    """The module-level functions of a module and its classes' methods,
    dunders aside, as name or Class.name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}"


def _named(node, inside=()):
    """Every name that `node` reads, as a name, an attribute or an import,
    except where it lies inside a function of that name."""
    if isinstance(node, ast.FunctionDef):
        inside += (node.name,)
    if isinstance(node, ast.Name) and node.id not in inside:
        yield node.id
    elif isinstance(node, ast.Attribute) and node.attr not in inside:
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (a.name for a in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _named(child, inside)


def test_every_function_is_named_outside_its_definition():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    named = {name for tree in trees.values() for name in _named(tree)}
    uncalled = [
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name in _defined(tree)
        if name.rsplit(".", 1)[-1] not in named
    ]
    assert sorted(uncalled) == sorted(UNCALLED)
