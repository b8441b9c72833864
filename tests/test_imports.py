"""Static checks on the package source."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ardkit

MODULES = sorted(p for p in Path(ardkit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports (anywhere in it) but never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    # An import kept only so that something else can patch it hides dead code.
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    assert unused_imports("import os\nimport re\nfrom json import dumps, loads\nre.compile(loads('1'))\n") == [
        "line 1: os",
        "line 3: dumps",
    ]
