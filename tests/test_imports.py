"""Every import in the package is read.

    python3 -m pytest tests/test_imports.py

A name that a module of src/warpgeo imports must be read in that module,
so deleting the code that used it cannot leave the import behind; the
package's __init__ imports exactly the names of its __all__.
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
