import pathlib
from fractions import Fraction

import pytest

from sulmin import compute_minimal_model, parse
from sulmin.graded_algebra import ONE_MONO, mono_gen, mono_mul

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"

EXAMPLE_FILES = {
    "ex1": INPUTS / "ex1.sul",
    "ex2": INPUTS / "ex2.sul",
    "ex3": INPUTS / "ex3.sul",
    "ex4": INPUTS / "ex4.sul",
    "nested": INPUTS / "nested_pair.sul",
    "minimal": INPUTS / "minimal.sul",
    "module1": INPUTS / "module1.sul",
}


def is_coefficient(c) -> bool:
    """The coefficient rule: an ``int``, or a ``Fraction`` with denominator > 1
    (so neither ``Fraction(2, 1)`` nor a float)."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def mono(sig, *factors):
    """The monomial of ``sig`` with the given ``(generator index, exponent)``
    factors, in increasing index: the one way tests write a monomial by hand.
    It is built through the package's own product, one factor at a time."""
    m = ONE_MONO
    for i, e in factors:
        g = mono_gen(sig, i)
        for _ in range(e):
            sign, m = mono_mul(sig, m, g)
            assert sign == 1 and m is not None, f"factors {factors} not canonical"
    return m


def load(name: str):
    return parse(EXAMPLE_FILES[name].read_text())


@pytest.fixture(scope="session")
def algebras():
    return {k: load(k) for k in ("ex1", "ex2", "ex3", "ex4", "nested", "minimal")}


@pytest.fixture(scope="session")
def contractions(algebras):
    return {k: compute_minimal_model(dga) for k, dga in algebras.items()}
