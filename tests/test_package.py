"""The package's public names: every name a module lists in ``__all__``
exists, and every name ``nbtwalks/__init__.py`` imports exists and is in its
module's ``__all__``, when the module has one.  Every definition has a
caller, and the README's library sketch runs.  Importing the package loads
no scipy, and neither does any command, static or temporal: ``radius``,
``centrality``, ``sweep``, ``walk-count`` and ``oracle-check``."""

import ast
import importlib
import json
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import nbtwalks

from conftest import cli_env, write_uniform_temporal

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


def _imports_run_at_import(tree) -> list:
    """The import statements of a module that run when it is imported: all
    but those in a function body or under ``if TYPE_CHECKING:``."""
    found, todo = [], [tree]
    while todo:
        for node in ast.iter_child_nodes(todo.pop()):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
                todo.extend(node.orelse)
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.append(node)
            todo.append(node)
    return found


def _module_names(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module or ""]


@pytest.mark.parametrize("name", MODULES)
def test_scipy_is_imported_only_inside_functions(name):
    tree = ast.parse(PACKAGE.joinpath(f"{name}.py").read_text(encoding="utf-8"))
    at_import = [m for node in _imports_run_at_import(tree) for m in _module_names(node)]
    assert not [m for m in at_import if m.split(".")[0] == "scipy"]
    # the dense LU and GMRES's triangle are numpy's
    anywhere = [m for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for m in _module_names(node)]
    assert not [m for m in anywhere if m.startswith("scipy.linalg")]


# Run in a fresh interpreter: argv[1] is a static input, argv[2] a static
# input whose elementwise pole lies inside its series range, the rest
# temporal.  Prints the scipy modules loaded after the import, after the
# temporal commands, after the static radius, centrality and sweep commands,
# and after the walk-count and oracle-check commands, static and temporal,
# as one JSON list.
_SCIPY_PROBE = """
import contextlib, io, json, sys
import nbtwalks, nbtwalks.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(args):
    with contextlib.redirect_stdout(io.StringIO()):
        assert nbtwalks.cli.main(args) == 0, args

static, pole, *temporal = sys.argv[1:]
loaded = [scipy_modules()]
regimes = ["allow-all", "forbid-space", "forbid-time", "forbid-all"]
commands = [["radius"], ["centrality", "--t", "0.5r", "--measure", "katz"]]
commands += [["centrality", "--t", "0.5r", "--measure", "nbt-katz", "--regime", r]
             for r in regimes]
commands += [["centrality", "--t", "0.1", "--measure", "f-centrality", "--series",
              "exponential", "--regime", r] for r in regimes]
for path in temporal:
    for command in commands:
        run([*command, "--input", path, "--temporal"])
loaded.append(scipy_modules())
for command in (["radius"], ["radius", "--binarize"],
                ["centrality", "--t", "0.5r", "--measure", "katz"],
                ["centrality", "--t", "0.5r", "--measure", "nbt-katz"],
                ["centrality", "--t", "0.2", "--measure", "f-centrality",
                 "--series", "exponential"],
                ["centrality", "--t", "0.5r", "--compare", "katz:nbt-katz"],
                ["centrality", "--t", "0.5r", "--compare", "katz:nbt-katz", "--binarize"],
                ["sweep", "--measure", "katz", "--grid-points", "4"],
                ["sweep", "--measure", "nbt-katz", "--grid", "0,0.3r,0.6r"]):
    run([*command, "--input", static])
# t = 5 lies past the pole at 0.1: the line-graph route serves nbt-katz
run(["centrality", "--t", "0.5r", "--measure", "nbt-katz", "--input", pole])
loaded.append(scipy_modules())
run(["walk-count", "--input", static, "--kmax", "2"])
run(["oracle-check", "--input", static])
temporal_input = ["--input", temporal[0], "--temporal"]
for r in regimes:
    run(["walk-count", *temporal_input, "--kmax", "2", "--regime", r])
run(["oracle-check", *temporal_input])
loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


def test_static_and_temporal_commands_never_load_scipy(tmp_path):
    golden = Path(__file__).parent / "data" / "golden"
    pole = tmp_path / "pole.txt"
    # the pair a <-> d puts the elementwise pole at 0.1, below the series
    # range [0, 10) of the light triangle
    pole.write_text("a b 0.1\nb c 0.1\nc a 0.1\na d 10\nd a 10\n")
    u1 = write_uniform_temporal(tmp_path / "u1.txt", 1, 500, 500, 20)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(golden / "g300.txt"), str(pole),
         str(golden / "temporal.txt"), str(u1)],
        env=cli_env(), capture_output=True, text=True, check=True)
    imported, temporal, static, walk_count = json.loads(proc.stdout)
    assert imported == [] and temporal == [] and static == []
    # the sparse products of walk-count and oracle-check are numpy's too
    assert walk_count == []
