"""Every exported name resolves, so a removed function cannot linger as an export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qgraphlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(qgraphlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qgraphlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"qgraphlab.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_resolve_and_are_declared():
    tree = ast.parse(Path(qgraphlab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"qgraphlab.{node.module}")
        for alias in node.names:
            assert hasattr(qgraphlab, alias.name)
            assert alias.name in module.__all__, f"{alias.name} is not in {node.module}.__all__"
