"""Every exported name exists, and the package re-exports only public names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mellinbarnes

MODULES = sorted(m.name for m in pkgutil.iter_modules(mellinbarnes.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"mellinbarnes.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_only_names_in_all():
    tree = ast.parse(Path(mellinbarnes.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"mellinbarnes.{node.module}")
        stray = [a.name for a in node.names if a.name not in module.__all__]
        assert stray == [], node.module


def test_any_dimension_driver_is_exported():
    from mellinbarnes import mellin_core
    assert mellinbarnes.sum_residues is mellin_core.sum_residues
    assert mellinbarnes.compatible_cone is mellin_core.compatible_cone
