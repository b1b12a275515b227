"""The coefficient rule: a coefficient is an ``int`` when it is integral and a
``Fraction`` with denominator > 1 otherwise, and no float ever arises."""

import ast
import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_coefficient, is_row, mono
from sulmin.at_model import DGModule, compute_at_model
from sulmin.differential import DGAlgebra, Extension
from sulmin.dsl import emit_report, parse, parse_expression
from sulmin.graded_algebra import Signature, basis_monomials, int_row, q_div, q_norm
from sulmin.minimal_model import compute_minimal_model
from sulmin.morphisms import homotopy_extension
from sulmin.random_inputs import random_dg_module, random_sullivan_algebra

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sulmin"


def _divisions(tree):
    """Line numbers of every ``/`` (``ast.Div``, in a binary operation or an
    augmented assignment) outside the body of ``q_div``."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "q_div":
            return
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_no_true_division_outside_q_div():
    # ``a / b`` on two ints is a float; every exact division goes through q_div
    sources = sorted(SRC.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        for line in _divisions(ast.parse(path.read_text(encoding="utf-8"))):
            offenders.append(f"{path.name}:{line}")
    assert offenders == []


def test_the_guard_sees_divisions():
    tree = ast.parse("def f(a, b):\n    a /= b\n    return a / b\n"
                     "def q_div(a, b):\n    return a / b\n")
    assert _divisions(tree) == [2, 3]


# the members of a Signature that hold the monomial layout
_LAYOUT_NAMES = {"_shift", "_unit", "_fields", "_odd_mask", "_guard", "_top", "_bases",
                 "_flips", "_firsts"}


def _layout_reads(tree):
    """Line numbers of every read of a layout member and every import of a
    private name from ``graded_algebra``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _LAYOUT_NAMES:
            found.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").rpartition(".")[2] == "graded_algebra"
              and any(alias.name.startswith("_") for alias in node.names)):
            found.append(node.lineno)
    return found


def test_only_graded_algebra_reads_the_monomial_layout():
    # every other module takes monomials apart through graded_algebra's
    # helpers, so the packing can change in one file
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "graded_algebra.py":
            for line in _layout_reads(ast.parse(path.read_text(encoding="utf-8"))):
                offenders.append(f"{path.name}:{line}")
    assert offenders == []


def test_the_layout_guard_sees_reads_and_private_imports():
    tree = ast.parse("from .graded_algebra import mono_gen, _salt\n"
                     "from sulmin.graded_algebra import _outside\n"
                     "from .dsl import _term_key\n"
                     "x = sig._unit[0]\n"
                     "y = sig.odd\n")
    assert _layout_reads(tree) == [1, 2, 4]


# public definitions of src that no command reaches, and why each stays
_KEPT_UNREAD = {
    # the machine-document reader, which the certify command that ROADMAP
    # plans will call
    "parse_machine",
}


def _names_read(tree):
    """Every name that ``tree`` holds as an ``ast.Name``, an ``ast.Attribute``
    or a name imported by ``from ... import``; strings do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unread_definitions(modules, readers):
    """``"module: name"`` for each public top-level ``def`` or ``class`` of
    ``modules`` (file name -> source; ``__init__.py`` is neither checked nor
    a reader) that no other module, no other top-level statement of its own
    module and no source in ``readers`` reads."""
    trees = {name: ast.parse(text) for name, text in modules.items() if name != "__init__.py"}
    outside = set().union(*(_names_read(ast.parse(text)) for text in readers))
    reads = {name: _names_read(tree) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        others = outside.union(*(r for other, r in reads.items() if other != name))
        statements = [(stmt, _names_read(stmt)) for stmt in tree.body]
        for stmt in tree.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_") and stmt.name not in others
                    and not any(stmt.name in r for s, r in statements if s is not stmt)):
                found.append(f"{name}: {stmt.name}")
    return found


def _readers():
    """The sources outside src that may read it: the README's Library
    ``python`` blocks, the scripts and the benchmark."""
    root = SRC.parent.parent
    library = (root / "README.md").read_text(encoding="utf-8").split("## Library")[1]
    readers = re.findall(r"```python\n(.*?)```", library.split("\n## ")[0], re.S)
    assert readers
    for path in sorted(root.glob("scripts/*.py")) + sorted(root.glob("perfbench/**/*.py")):
        readers.append(path.read_text(encoding="utf-8"))
    return readers


def test_src_holds_only_what_a_command_runs():
    # every definition of src is read by src itself, by a script or the
    # benchmark, or by the README's Library code; one that only the tests
    # read lives in the tests (conftest.py, dsl_reference.py)
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    unread = _unread_definitions(modules, _readers())
    assert [entry for entry in unread if entry.split(": ")[1] not in _KEPT_UNREAD] == []


def test_the_unread_guard_names_a_definition_until_it_is_read():
    # helper is read by another statement of its own module; spare only by
    # itself, a docstring, a string and __init__.py, none of which counts
    modules = {
        "__init__.py": "from .a import spare, used\n",
        "a.py": ("def used():\n    return helper()\n"
                 "def helper():\n    return 1\n"
                 'def spare():\n    """Not spare() itself."""\n    return spare()\n'),
        "b.py": "from .a import used\nNOTE = 'spare'\n",
    }
    assert _unread_definitions(modules, []) == ["a.py: spare"]
    assert _unread_definitions({**modules, "b.py": "from .a import spare, used\n"}, []) == []
    assert _unread_definitions(modules, ["import sulmin.a\nsulmin.a.spare()\n"]) == []


def _unread_exports(init, readers):
    """Each name that the package source ``init`` imports and that no source
    in ``readers`` imports by ``from sulmin import ...``; an import from a
    submodule (``from sulmin.dsl import parse``) does not count."""
    exported = [alias.asname or alias.name for node in ast.walk(ast.parse(init))
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    imported = {alias.name for text in readers for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.ImportFrom) and node.module == "sulmin"
                and node.level == 0 for alias in node.names}
    return [name for name in exported if name not in imported]


def test_the_package_exports_only_what_its_readers_import():
    # a name enters sulmin one way: the package exports the entry points
    # that readers import from it, and the rest is read from its module
    init = (SRC / "__init__.py").read_text(encoding="utf-8")
    assert _unread_exports(init, _readers()) == []


def test_the_export_guard_names_an_export_until_it_is_imported():
    init = "from .a import used, spare\nfrom .b import other as alias\n"
    readers = ["from sulmin import used, alias\n", "from sulmin.a import spare\nimport sulmin\n"]
    assert _unread_exports(init, readers) == ["spare"]
    assert _unread_exports(init, [*readers, "from sulmin import spare\n"]) == []


@pytest.mark.parametrize("a, b, want", [
    (6, 3, 2), (-6, 3, -2), (1, 3, Fraction(1, 3)), (-2, 4, Fraction(-1, 2)),
    (Fraction(1, 2), Fraction(1, 4), 2), (Fraction(3, 2), 5, Fraction(3, 10)),
    (4, Fraction(2, 3), 6), (0, 7, 0),
])
def test_q_div_is_exact_and_canonical(a, b, want):
    got = q_div(a, b)
    assert got == want
    assert is_coefficient(got)


def test_q_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        q_div(1, 0)
    with pytest.raises(ZeroDivisionError):
        q_div(Fraction(1, 2), 0)


@pytest.mark.parametrize("c, want", [
    (3, 3), (Fraction(4, 2), 2), (Fraction(1, 2), Fraction(1, 2)), (True, 1), (0.5, Fraction(1, 2)),
])
def test_q_norm(c, want):
    got = q_norm(c)
    assert got == want
    assert is_coefficient(got)


def test_integral_literal_parses_to_an_int():
    sig = Signature.from_pairs([("v2", 2)])
    v2 = mono(sig, (0, 1))
    x = parse_expression(sig, "4/2*v2")
    assert x == {v2: 2}
    assert type(x[v2]) is int
    half = parse_expression(sig, "1/2*v2 + 1/2*v2")
    assert type(half[v2]) is int
    assert type(parse_expression(sig, "3/6*v2")[v2]) is Fraction
    module = parse("mode module\ngen a:1\ngen b:0\nd b = 4/2*a - 3/6*a\n")
    assert module.diff == {1: {0: Fraction(3, 2)}}
    module = parse("mode module\ngen a:1\ngen b:0\nd b = 4/2*a\n")
    assert module.diff == {1: {0: 2}} and type(module.diff[1][0]) is int


def test_tables_from_outside_enter_under_the_rule():
    # a caller may build inputs from Fractions with denominator 1
    sig = Signature.from_pairs([("a1", 1), ("v2", 2), ("x1", 1)])
    v2 = mono(sig, (1, 1))
    dga = DGAlgebra(sig, {2: {v2: Fraction(2)}, 0: {}})
    assert dga.diff == {2: {v2: 2}} and type(dga.diff[2][v2]) is int
    c = compute_minimal_model(dga)
    assert _all_canonical(c.f, c.g, c.phi, c.dW)
    M = DGModule((("a", 1), ("b", 0)), {1: {0: Fraction(4, 2)}})
    assert type(M.diff[1][0]) is int
    A = compute_at_model(M)
    assert A.phi == {0: int_row({1: Fraction(1, 2)}), 1: int_row({})}
    assert _all_rows(A.f, A.g, A.phi)


def test_zero_coefficients_from_outside_are_dropped():
    # a zero coefficient is no term and an image left empty is no image, so
    # a table with zeros equals the one without them and prints no -0
    sig = Signature.from_pairs([("a", 1), ("c", 1), ("b", 1)])
    dga = DGAlgebra(sig, {2: {mono(sig, (0, 1), (1, 1)): 0}})
    assert dga == DGAlgebra(sig, {})
    assert "-0" not in emit_report(compute_minimal_model(dga))
    module = parse("mode module\ngen a:1\ngen b:0\nd b = 0*a\n")
    assert DGModule((("a", 1), ("b", 0)), {1: {0: 0}}) == module


def _all_canonical(*tables):
    return all(is_coefficient(c) and c for table in tables for image in table.values()
               for c in image.values())


def _all_rows(*tables):
    return all(is_row(row) for table in tables for row in table.values())


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_algebra_coefficients_keep_the_rule(seed):
    dga = random_sullivan_algebra(random.Random(seed), max_gens=7)
    sig = dga.sig
    assert _all_canonical(dga.diff)
    c = compute_minimal_model(dga)
    assert _all_canonical(c.f, c.g, c.phi, c.dW)
    # and through every product kernel: the images of the degree bases
    f_ev, g_ev = Extension(sig, c.f), Extension(sig, c.g)
    phi_ev = homotopy_extension(sig, c.phi, f_ev, g_ev)
    images = {}
    for p in range(7):
        for m in basis_monomials(sig, p):
            images[len(images)] = phi_ev.on_monomial(m)
            images[len(images)] = dga.ev.on_monomial(m)
            images[len(images)] = g_ev.on_element(f_ev.on_monomial(m))
    assert _all_canonical(images)


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_module_coefficients_keep_the_rule(seed):
    M = random_dg_module(random.Random(seed), max_gens=40)
    assert _all_canonical(M.diff)
    A = compute_at_model(M)
    assert _all_rows(A.f, A.g, A.phi)
