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


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # a stand-in for a linter's unused-import rule: a name a module imports
    # is used in it, or exported through its __all__
    tree = ast.parse(Path(nbtwalks.__file__).with_name(f"{name}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    assert not imported - used - exported


def test_no_dead_definitions():
    # every module-level function and class is named somewhere else in the
    # package: called or read, imported, or exported through an __all__
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(nbtwalks.__file__).parent.glob("*.py"))]
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                      for t in node.targets):
                named.update(ast.literal_eval(node.value))
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    dead = sorted(defined - named)
    assert not dead
