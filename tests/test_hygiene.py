"""Source hygiene, by small AST scans of the package (pyflakes is not a
dependency).

* Every module-level import is used: a name bound by a top-level
  ``import`` must be referenced somewhere in its module, unless the module
  lists it in ``__all__`` (a re-export).
* The package runs on the standard library alone: every import in it,
  function-level ones included, names a module of
  ``sys.stdlib_module_names`` or of ``torcycle`` (numpy is a test extra).
* No module imports ``dataclasses``, function-level imports included: the
  records are ``typing.NamedTuple`` classes or slotted values.  A
  ``NamedTuple`` class evals one ``namedtuple`` ``__new__`` at import;
  ``dataclasses`` execs fresh source for several methods of every class
  and pulls in ``inspect``.
* No module has ``from __future__ import annotations``: under it every
  field annotation of a ``NamedTuple`` is a string that ``typing`` compiles
  at import, one ``compile()`` per field.
* The human rendering rules live in ``algebra.render_sum`` alone: no other
  module has a string constant containing the ``+ -`` fold.
* The half-edge slot labels (``__e{i}a``/``__e{i}b``) are spelled out in
  ``tautring`` alone: no other module has a string constant starting with
  ``__e``, so none parses or builds them itself.
* Only ``tautring.multiply`` rewrites kappa_1 inside a product:
  ``kappa1_expand`` is referenced from ``multiply``, from itself, and from
  the two places that return kappa_1 expanded by design
  (``chern.chern_tangent_moduli`` and ``cli._cmd_taut``).
* There is one permutation search over graph vertices,
  ``tautring._class_bijections``: ``itertools.permutations`` appears there
  and nowhere else.  The canonical form and the component bijections of
  ``ctp`` both draw on it.
* An integral coefficient is written as an int: no dict display or dict
  comprehension has a value ``Fraction(<int literal>)`` (under any name
  bound to ``Fraction``).  Accumulator seeds such as ``Fraction(0)`` in
  ``algebra.bernoulli_number`` are not dict values and stay, since they
  keep a later ``/`` exact.
* The closed forms stay closed: ``chern.ch_tangent`` and the free-monomial
  forgetful pull and push (``tautring._pull_free_forgetful``,
  ``_push_free_forgetful``) reach none of the product machinery
  (``multiply``, ``_mul_poly``, ``_project``, ``pullback_gluing``,
  ``pushforward_gluing``), followed through every top-level function of
  the package they name.
* Every function of the package is reached by a command, a report script
  or a benchmark job: ``scripts/reach_scan.py`` lists none outside its
  allow-list of value-protocol dunders.
* Every memo has a finite ``maxsize``, so none keyed by an unbounded
  genus grows for the life of the process.  An ``lru_cache(maxsize=None)``
  or a ``functools.cache`` is allowed only where the keys are closed (the
  argument-free ``pipeline.t_pullback_g4`` and ``cli.build_parser``, whose
  parser grows to at most the CLI's 24 parsers as commands select them,
  and ``algebra.bernoulli_number`` below its cap) or where each entry is built
  from the one before, so a bound would only make the recursion recompute
  (``ctp._shapes``).
* No memo is annotated to return a ``list``, ``dict`` or ``set`` (bare,
  subscripted, in a union or as a string), since every caller shares the
  one cached value: a memo returns a tuple, a frozenset or a
  ``MappingProxyType``.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "torcycle"


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


def imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the modules imported anywhere in ``tree``,
    relative imports aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def foreign_imports(tree: ast.Module) -> set[str]:
    """The imported modules that are neither in the standard library nor
    in ``torcycle``."""
    return imported_modules(tree) - sys.stdlib_module_names - {"torcycle"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_standard_library_only(path):
    found = foreign_imports(ast.parse(path.read_text()))
    assert not found, f"{path.name} imports outside the standard library: {sorted(found)}"


def test_scan_catches_a_foreign_import():
    tree = ast.parse("import math, os.path\nfrom . import period\nfrom .algebra import x\n"
                     "from torcycle.ctp import y\n"
                     "def f():\n    import numpy as np\n    from scipy.linalg import eig\n")
    assert foreign_imports(tree) == {"numpy", "scipy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert "dataclasses" not in imported_modules(ast.parse(path.read_text())), (
        f"{path.name} imports dataclasses; use a typing.NamedTuple record")


def test_scan_catches_a_dataclasses_import():
    for code in ("from dataclasses import dataclass\n",
                 "import dataclasses as dc\n",
                 "def f():\n    from dataclasses import field\n"):
        assert imported_modules(ast.parse(code)) == {"dataclasses"}
    assert imported_modules(ast.parse("from . import dataclasses\n")) == set()


def future_annotations(tree: ast.Module) -> bool:
    """Whether ``tree`` has ``from __future__ import annotations``."""
    return any(isinstance(node, ast.ImportFrom) and node.module == "__future__"
               and any(a.name == "annotations" for a in node.names) for node in tree.body)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_annotations_evaluated(path):
    assert not future_annotations(ast.parse(path.read_text())), (
        f"{path.name} defers its annotations, so typing compiles every NamedTuple "
        f"field annotation at import")


def test_scan_catches_a_future_annotations_import():
    for code in ("from __future__ import annotations\n",
                 '"""doc"""\nfrom __future__ import division, annotations\n'):
        assert future_annotations(ast.parse(code))
    for code in ("from __future__ import division\n", "from .annotations import x\n",
                 "x: 'int' = 1\n"):
        assert not future_annotations(ast.parse(code))


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


def slot_strings(tree: ast.Module) -> list[str]:
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith("__e")]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "tautring.py"),
                         ids=lambda p: p.name)
def test_slot_labels_stay_in_tautring(path):
    found = slot_strings(ast.parse(path.read_text()))
    assert not found, f"{path.name} spells half-edge slot labels; use tautring._halfedge_slots: {found}"


def test_scan_catches_a_slot_label():
    tree = ast.parse('a = [m for m in s if m.startswith("__e")]\nb = f"__e{i}a"\n'
                     'def __eq__(self, o):\n    return "x__e" == o\n')
    assert sorted(slot_strings(tree)) == ["__e", "__e"]


#: (module, top-level function) pairs allowed to reach itertools.permutations
PERMUTATION_SITES = {("tautring.py", "_class_bijections")}


def permutation_sites(tree: ast.Module) -> list[str]:
    """The top-level function or class around each use of ``permutations``
    (attribute, name or import alias); ``<module>`` outside them."""
    sites = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if ((isinstance(node, ast.Attribute) and node.attr == "permutations")
                    or (isinstance(node, ast.Name) and node.id == "permutations")
                    or (isinstance(node, ast.alias) and node.name == "permutations")):
                sites.append(owner)
    return sites


def test_one_permutation_search():
    found = {(path.name, site) for path in SRC.glob("*.py")
             for site in permutation_sites(ast.parse(path.read_text()))}
    assert found <= PERMUTATION_SITES, (
        f"permutation search outside tautring._class_bijections: "
        f"{sorted(found - PERMUTATION_SITES)}")


def test_scan_catches_a_permutation_search():
    tree = ast.parse(
        "import itertools as it\n"
        "from itertools import permutations as perms\n"
        "def f(n):\n    return list(it.permutations(range(n)))\n"
        "class C:\n    def g(self):\n        return perms('ab')\n"
        "def h(n):\n    return list(it.combinations(range(n), 2))\n"
    )
    assert permutation_sites(tree) == ["<module>", "f"]


#: (module, top-level function) pairs allowed to reference kappa1_expand
KAPPA1_SITES = {("tautring.py", "multiply"), ("tautring.py", "kappa1_expand"),
                ("chern.py", "chern_tangent_moduli"), ("cli.py", "_cmd_taut")}


def kappa1_sites(tree: ast.Module) -> list[str]:
    """The top-level function or class around each reference to
    ``kappa1_expand`` (a name or an attribute); ``<module>`` outside them.
    Imports bind it without referencing it."""
    sites = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if ((isinstance(node, ast.Attribute) and node.attr == "kappa1_expand")
                    or (isinstance(node, ast.Name) and node.id == "kappa1_expand")):
                sites.append(owner)
    return sites


def test_kappa1_rewritten_only_by_multiply():
    found = {(path.name, site) for path in SRC.glob("*.py")
             for site in kappa1_sites(ast.parse(path.read_text()))}
    assert found <= KAPPA1_SITES, (
        f"kappa1_expand outside multiply and its two expanding callers: "
        f"{sorted(found - KAPPA1_SITES)}")


def test_scan_catches_a_kappa1_call():
    tree = ast.parse(
        "from .tautring import kappa1_expand\n"
        "def f(c):\n    return kappa1_expand(c)\n"
        "class C:\n    def g(self, c):\n        return tr.kappa1_expand(c)\n"
        "h = map(kappa1_expand, [])\n"
        "def k(c):\n    return kappa1(c)\n"
    )
    assert kappa1_sites(tree) == ["f", "C", "<module>"]


#: (module, function) pairs allowed an unbounded memo
UNBOUNDED_MEMOS = {("algebra.py", "bernoulli_number"), ("ctp.py", "_shapes"),
                   ("pipeline.py", "t_pullback_g4"), ("cli.py", "build_parser")}


def last_name(node) -> str:
    """The last name of a name, an attribute or a call of either:
    ``lru_cache`` for ``functools.lru_cache(64)``, ``Dict`` for ``typing.Dict``."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def unbounded_memos(tree: ast.Module) -> list[str]:
    """The functions decorated with ``cache`` or with ``lru_cache`` whose
    ``maxsize`` (keyword or first argument) is None, under any alias."""
    def unbounded(dec) -> bool:
        name = last_name(dec)
        if name == "cache":
            return True
        if name != "lru_cache" or not isinstance(dec, ast.Call):
            return False
        sizes = dec.args[:1] + [k.value for k in dec.keywords if k.arg == "maxsize"]
        return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)

    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(map(unbounded, node.decorator_list))]


def test_memos_bounded():
    found = {(path.name, name) for path in SRC.glob("*.py")
             for name in unbounded_memos(ast.parse(path.read_text()))}
    assert found <= UNBOUNDED_MEMOS, (
        f"unbounded memo outside the allow-list; give it a maxsize: "
        f"{sorted(found - UNBOUNDED_MEMOS)}")


def test_scan_catches_an_unbounded_memo():
    tree = ast.parse(
        "import functools\nfrom functools import lru_cache, cache\n"
        "@functools.lru_cache(maxsize=None)\ndef a(g): pass\n"
        "@lru_cache(None)\ndef b(g): pass\n"
        "@cache\ndef c(g): pass\n"
        "class K:\n    @functools.cache\n    def d(self, g): pass\n"
        "@lru_cache(maxsize=8)\ndef e(g): pass\n"
        "@lru_cache\ndef f(g): pass\n"
        "@functools.lru_cache(64)\ndef h(g): pass\n"
        "@cached_property\ndef k(self): pass\n"
    )
    assert unbounded_memos(tree) == ["a", "b", "c", "d"]


MUTABLE_RETURNS = {"list", "dict", "set", "List", "Dict", "Set"}


def mutable_annotation(node) -> bool:
    """Whether a return annotation names a list, dict or set."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return mutable_annotation(node.left) or mutable_annotation(node.right)
    if isinstance(node, ast.Subscript):
        node = node.value
    return last_name(node) in MUTABLE_RETURNS


def mutable_memos(tree: ast.Module) -> list[str]:
    """The functions decorated with ``cache`` or ``lru_cache`` whose return
    annotation is a list, dict or set."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(last_name(d) in ("cache", "lru_cache") for d in node.decorator_list)
            and node.returns is not None and mutable_annotation(node.returns)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_memos_return_immutable(path):
    found = mutable_memos(ast.parse(path.read_text()))
    assert not found, (f"{path.name}: memos {found} return a shared mutable value; "
                       f"return a tuple, frozenset or MappingProxyType")


def test_scan_catches_a_mutable_memo():
    tree = ast.parse(
        "import functools, typing\nfrom functools import lru_cache, cache\n"
        "@lru_cache(maxsize=8)\ndef a(g) -> dict: pass\n"
        "@functools.lru_cache(64)\ndef b(g) -> list[int]: pass\n"
        "@cache\ndef c(g) -> 'set[str]': pass\n"
        "class K:\n    @lru_cache(maxsize=8)\n    def d(self) -> typing.Dict[str, int]: pass\n"
        "@lru_cache(maxsize=8)\ndef e(g) -> dict | None: pass\n"
        "@lru_cache(maxsize=8)\ndef f(g) -> tuple[list, ...]: pass\n"
        "@lru_cache(maxsize=8)\ndef h(g) -> MappingProxyType: pass\n"
        "@lru_cache(maxsize=8)\ndef k(g): pass\n"
        "def m(g) -> dict: pass\n"
    )
    assert sorted(mutable_memos(tree)) == ["a", "b", "c", "d", "e"]


def integral_fraction_values(tree: ast.Module) -> list[int]:
    """Lines of the dict values (displays and comprehensions) that are
    ``Fraction`` of one int literal, called by any name bound to it."""
    names = {"Fraction"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            names |= {a.asname for a in node.names if a.name == "Fraction" and a.asname}
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                and node.value.id in names):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}

    def integral_fraction(node) -> bool:
        if not isinstance(node, ast.Call) or node.keywords or len(node.args) != 1:
            return False
        func, (arg,) = node.func, node.args
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if isinstance(arg, ast.UnaryOp) and isinstance(arg.op, (ast.USub, ast.UAdd)):
            arg = arg.operand
        return name in names and isinstance(arg, ast.Constant) and type(arg.value) is int

    values = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            values += node.values
        elif isinstance(node, ast.DictComp):
            values.append(node.value)
    return sorted(v.lineno for v in values if integral_fraction(v))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_integral_coefficients_are_ints(path):
    found = integral_fraction_values(ast.parse(path.read_text()))
    assert not found, (f"{path.name} writes an integral coefficient as a Fraction "
                       f"(write the int) on lines {found}")


def test_scan_catches_an_integral_fraction():
    tree = ast.parse(
        "from fractions import Fraction\nimport fractions\nF = Fraction\n"
        "a = {g: Fraction(1)}\n"
        "b = {g: F(-2) for g in gs}\n"
        "c = {g: fractions.Fraction(3), h: Fraction(1, 2), k: Fraction(n)}\n"
        "acc = Fraction(0)\n"
        "d = {g: 1, h: Fraction(1, aut), k: 2 * Fraction(1)}\n"
        "e = {g: Fraction(2.0), h: Fraction('1'), k: Fraction(True)}\n"
    )
    assert integral_fraction_values(tree) == [4, 5, 6]


#: (module, function) pairs written in closed form, and what none may reach
CLOSED_FORMS = [("chern.py", "ch_tangent"), ("tautring.py", "_pull_free_forgetful"),
                ("tautring.py", "_push_free_forgetful")]
PRODUCT_MACHINERY = {"multiply", "_mul_poly", "_project", "pullback_gluing", "pushforward_gluing"}


def product_reach(trees: dict[str, ast.Module], start: tuple[str, str]) -> set[str]:
    """The product machinery that ``start`` names, directly or through the
    top-level functions it names (by name, in any module; class bodies are
    not followed)."""
    functions: dict[str, list] = {}
    for tree in trees.values():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                functions.setdefault(top.name, []).append(top)
    todo = [next(top for top in trees[start[0]].body
                 if isinstance(top, ast.FunctionDef) and top.name == start[1])]
    seen = {start[1]}
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name not in seen:
                seen.add(name)
                todo += functions.get(name, [])
    return (seen - {start[1]}) & PRODUCT_MACHINERY


@pytest.mark.parametrize("start", CLOSED_FORMS, ids=lambda s: s[1])
def test_closed_forms_reach_no_products(start):
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    assert not product_reach(trees, start), (
        f"{start[1]} reaches the product machinery: {sorted(product_reach(trees, start))}")


def test_scan_catches_a_product_call():
    trees = {"m.py": ast.parse(
        "def closed(c):\n    return helper(c) + push(c)\n"
        "def helper(c):\n    return tr._mul_poly(c, c)\n"
        "push = None\n"
        "def other(c):\n    return multiply(c, c)\n"
        "class K:\n    def helper(self, c):\n        return pullback_gluing(c)\n"
    )}
    assert product_reach(trees, ("m.py", "closed")) == {"_mul_poly"}
    assert product_reach(trees, ("m.py", "other")) == {"multiply"}


def test_src_reached():
    # a fresh interpreter: memos warmed by other tests would hide calls
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "reach_scan.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "", f"functions no entry point reaches:\n{proc.stdout}"
