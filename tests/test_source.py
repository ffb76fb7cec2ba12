"""Static checks over the package's source files."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hawkmix

PACKAGE = Path(hawkmix.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """Names a module imports but never reads; ``__future__`` imports aside."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def references(tree, outside=None) -> set:
    """Names that ``tree`` reads, accesses as attributes or imports, leaving
    out the subtree ``outside``."""
    skip = {id(node) for node in ast.walk(outside)} if outside is not None else set()
    found = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {a.name.split(".")[-1] for a in node.names}
    return found


def script_targets(pyproject: str) -> set:
    """``package/module.py:name`` of each ``[project.scripts]`` entry point of
    a pyproject.toml text. The lines are read directly, since tomllib is new
    in Python 3.11 and the package supports 3.10."""
    targets, in_scripts = set(), False
    for line in pyproject.splitlines():
        line = line.strip()
        if line.startswith("["):
            in_scripts = line == "[project.scripts]"
        elif in_scripts and "=" in line:
            module, _, name = line.split("=", 1)[1].strip().strip("\"'").partition(":")
            targets.add(f"{module.replace('.', '/')}.py:{name}")
    return targets


def unreferenced(package: dict, others: dict, scripts=frozenset()) -> list:
    """``module:name`` of each top-level function or class of the ``package``
    sources (name -> text) that no file of ``package`` or ``others`` refers
    to outside its own definition, and that is not one of the entry points
    ``scripts``."""
    trees = {name: ast.parse(text) for name, text in {**package, **others}.items()}
    used = {name: references(tree) for name, tree in trees.items()}
    dead = []
    for module in package:
        tree = trees[module]
        elsewhere = set().union(*(refs for name, refs in used.items() if name != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if f"{module}:{node.name}" in scripts:
                continue
            if node.name not in elsewhere and node.name not in references(tree, outside=node):
                dead.append(f"{module}:{node.name}")
    return dead


def write_enables(source: str) -> list:
    """Line numbers where ``source`` makes an array writable again: an
    assignment to a ``writeable`` attribute or a ``setflags`` call whose
    write flag is anything but the constant False."""

    def enables(value) -> bool:
        return not (isinstance(value, ast.Constant) and value.value is False)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Attribute) and t.attr == "writeable" for t in targets):
                if node.value is None or enables(node.value):
                    found.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "setflags"):
            write = [kw.value for kw in node.keywords if kw.arg == "write"] + node.args[:1]
            if any(map(enables, write)):
                found.append(node.lineno)
    return found


def test_write_enables_finds_each_form():
    source = (
        "a.flags.writeable = False\n"
        "a.flags.writeable = True\n"
        "b.flags.writeable = flag\n"
        "a.setflags(write=False)\n"
        "a.setflags(write=True)\n"
        "a.setflags(1)\n"
        "a.setflags(align=True)\n"
    )
    assert write_enables(source) == [2, 3, 5, 6]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: p.name)
def test_no_source_file_makes_an_array_writable_again(path):
    """Trained and loaded models are read-only, and a read-only model keeps
    its node terms for good; that is sound only while nothing unfreezes one."""
    assert write_enables(path.read_text()) == []


def test_unused_imports_finds_an_unread_name():
    source = "from __future__ import annotations\nimport os, os.path\nfrom x import y as z\nz()\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unreferenced_finds_a_definition_only_itself_uses():
    package = {
        "a": "def f():\n    return f()\n\ndef g():\n    pass\n\nclass C:\n    pass\n\nh = g\n",
        "b": "from a import C\n\ndef k():\n    pass\n",
    }
    others = {"t": "import b\nb.k()\n"}
    assert unreferenced(package, others) == ["a:f"]


def test_an_entry_point_counts_as_a_reference():
    package = {"pkg/cli.py": "def main():\n    pass\n"}
    pyproject = (
        '[project]\nname = "pkg"\n\n[project.scripts]\ntool = "pkg.cli:main"\n'
        '\n[tool.other]\nx = "pkg.cli:other"\n'
    )
    assert script_targets(pyproject) == {"pkg/cli.py:main"}
    assert unreferenced(package, {}, script_targets(pyproject)) == []
    assert unreferenced(package, {}) == ["pkg/cli.py:main"]


def test_no_unreferenced_definitions():
    """Every package definition is used by the package, the tests, the
    benchmark or an entry point of pyproject.toml."""

    def read(paths):
        return {f"{p.parent.name}/{p.name}": p.read_text() for p in paths}

    others = read([*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
    scripts = script_targets((ROOT / "pyproject.toml").read_text())
    assert unreferenced(read(PACKAGE.glob("*.py")), others, scripts) == []


def test_importing_the_package_loads_only_the_scipy_it_runs():
    """A fresh ``import hawkmix`` and ``import hawkmix.cli`` load no scipy
    module at all: the package runs on numpy alone, and scipy's
    subpackages would bring tens of MB of resident memory with them."""
    code = (
        "import json, sys; import hawkmix, hawkmix.cli; print(json.dumps(sorted("
        "name for name in sys.modules if name.split('.')[0] == 'scipy')))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
