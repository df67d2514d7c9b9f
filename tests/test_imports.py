"""Every name a source module imports is used in that module, no source
module relies on a bare assert, which python -O strips, the decision path
imports none of the modules that only reproduce or cross-check the paper,
and the node budget is defined once, below every layer that spends it."""

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


# the modules a decision runs through, and those kept off that path: the
# re-spacing bounds, the wreath-product representation and the brute-force
# oracle that the tests check the deciders against
DECISION_PATH = ("term", "diagram", "search", "spacing", "fnz", "lexfn",
                 "decide")
OFF_PATH = {"bounds", "wreath", "oracle"}


def package_imports(source: str) -> set[str]:
    """The lpregroup modules a module imports, by their short names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("lpregroup."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("lpregroup"):
                continue
            if node.level == 0:
                module = module.partition(".")[2]
            out.update((module.split(".")[0],) if module
                       else (a.name for a in node.names))
    return out


def test_detects_package_imports():
    assert package_imports(
        "from . import fnz, oracle\nfrom .bounds import rho\n"
        "import lpregroup.wreath\nfrom lpregroup import term\n"
        "from lpregroup.search import NodeBudget\nimport math\n"
        "from typing import Optional\n") == {
            "fnz", "oracle", "bounds", "wreath", "term", "search"}


@pytest.mark.parametrize("name", DECISION_PATH)
def test_decision_path_stays_apart(name):
    source = (SRC / f"{name}.py").read_text()
    assert package_imports(source) & OFF_PATH == set()


def class_names(source: str) -> set[str]:
    """The names of the classes a module defines."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)}


def test_budget_defined_once_in_diagram():
    # one NodeBudget bounds a whole decision, so the budget and its
    # exception live below every layer that spends them
    owners = {path.stem for path in SRC.glob("*.py")
              if class_names(path.read_text())
              & {"NodeBudget", "BudgetExceeded"}}
    assert owners == {"diagram"}


def test_spacing_stays_below_the_search():
    # the embedding search is handed its budget; it does not reach up to
    # the enumeration or the decider for it
    source = (SRC / "spacing.py").read_text()
    assert package_imports(source) & {"search", "decide"} == set()
