"""The package's public names: every name a module lists in ``__all__``
exists, and every name ``nbtwalks/__init__.py`` imports exists and is in its
module's ``__all__``, when the module has one."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nbtwalks

MODULES = sorted(info.name for info in pkgutil.iter_modules(nbtwalks.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"nbtwalks.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(Path(nbtwalks.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"nbtwalks.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert alias.name in getattr(module, "__all__", [alias.name])
            assert hasattr(nbtwalks, alias.asname or alias.name)
