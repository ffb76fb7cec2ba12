"""Static checks over the package's source files."""

import ast
from pathlib import Path

import pytest

import hawkmix

MODULES = sorted(
    p for p in Path(hawkmix.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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


def test_unused_imports_finds_an_unread_name():
    source = "from __future__ import annotations\nimport os, os.path\nfrom x import y as z\nz()\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
