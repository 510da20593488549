"""Every name a module of `mvsum` imports is used in that module.

`__init__` is exempt: its imports are the public API it re-exports.
"""

import ast
from pathlib import Path

import pytest

import mvsum

MODULES = sorted(p for p in Path(mvsum.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
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
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, re as regex\nfrom a.b import c, d\nprint(regex, d)\n"
    assert _unused_imports(source) == ["line 2: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
