"""Every name a source module imports is used in that module, and no
source module relies on a bare assert, which python -O strips."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lpregroup"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression of the module
    mentions (a bare name, or the root of an attribute chain)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_detects_unused_import():
    assert unused_imports("import os\nfrom typing import Optional\n"
                          "x: Optional[int] = None\n") == ["os (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def bare_asserts(source: str) -> list[int]:
    """Line numbers of the assert statements in a module."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_detects_bare_assert():
    assert bare_asserts("x = 1\nassert x, 'why'\n") == [2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_bare_asserts(path):
    assert bare_asserts(path.read_text()) == []
