"""The package's public names: every name a module lists in ``__all__``
exists, and every name ``nbtwalks/__init__.py`` imports exists and is in its
module's ``__all__``, when the module has one.  Every definition has a
caller, and the README's library sketch runs."""

import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import nbtwalks

MODULES = sorted(info.name for info in pkgutil.iter_modules(nbtwalks.__path__))
PACKAGE = Path(nbtwalks.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def _python_blocks(text: str) -> list[str]:
    """The fenced python blocks of a Markdown text."""
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def _named(node) -> Counter:
    """How often each identifier or attribute name is read under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_no_dead_definitions():
    # every module-level function and class, and every method or property
    # other than the dunders, has a real caller.  A name counts as used when
    # it is read in package code outside its own definition, in a bench
    # script or in a python block of the README; the __all__ lists,
    # __init__.py, imports and the tests do not count.  Names are matched as
    # text, so a method shares its callers with any other of its name.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    named = Counter()
    for tree in trees.values():
        exports = [node for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
        named += _named(tree)
        for node in exports:
            named -= _named(node)
    scripts = [path for path in sorted((ROOT / "bench").glob("*.py")) if path.name != "test_bench.py"]
    assert scripts
    outside = [ast.parse(path.read_text(encoding="utf-8")) for path in scripts]
    outside += [ast.parse(block) for block in _python_blocks(README.read_text(encoding="utf-8"))]
    for tree in outside:
        named += _named(tree)

    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{module}.{node.name}.{member.name}", member)
                                for member in node.body if isinstance(member, ast.FunctionDef)
                                and not member.name.startswith("__")]
    dead = [qualname for qualname, node in definitions
            if named[node.name] <= _named(node)[node.name]]
    assert not dead


def test_readme_sketch_runs():
    # the library sketch, run as written; pytest turns any warning into an error
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    section = section[:section.index("\n## ", 1)]
    (block,) = _python_blocks(section)
    # blank lines in front keep the README's line numbers in a traceback
    lines = text[:text.index(block)].count("\n")
    exec(compile("\n" * lines + block, str(README), "exec"), {})
