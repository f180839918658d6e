"""Source hygiene, by small AST scans of the package (pyflakes is not a
dependency).

* Every module-level import is used: a name bound by a top-level
  ``import`` must be referenced somewhere in its module, unless the module
  lists it in ``__all__`` (a re-export).
* The human rendering rules live in ``algebra.render_sum`` alone: no other
  module has a string constant containing the ``+ -`` fold.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "torcycle"


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    unused = imported_names(tree) - referenced_names(tree) - exported_names(tree)
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def fold_strings(tree: ast.Module) -> list[str]:
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "+ -" in node.value]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "algebra.py"),
                         ids=lambda p: p.name)
def test_one_renderer(path):
    found = fold_strings(ast.parse(path.read_text()))
    assert not found, f"{path.name} renders sums itself; use algebra.render_sum: {found}"


def test_scan_catches_an_unused_import():
    tree = ast.parse("import os\nfrom math import comb, factorial\nfactorial(3)\n")
    assert imported_names(tree) - referenced_names(tree) == {"os", "comb"}
    tree = ast.parse("from .x import a, b\n__all__ = ['a']\nb\n")
    assert imported_names(tree) - referenced_names(tree) - exported_names(tree) == set()


def test_scan_catches_a_fold():
    tree = ast.parse('s = " + ".join(parts).replace("+ -", "- ")\nt = f"{a} + -{b}"\n')
    assert sorted(fold_strings(tree)) == [" + -", "+ -"]
