import pathlib
from fractions import Fraction

import pytest

from sulmin import compute_minimal_model, parse

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


def load(name: str):
    return parse(EXAMPLE_FILES[name].read_text())


@pytest.fixture(scope="session")
def algebras():
    return {k: load(k) for k in ("ex1", "ex2", "ex3", "ex4", "nested", "minimal")}


@pytest.fixture(scope="session")
def contractions(algebras):
    return {k: compute_minimal_model(dga) for k, dga in algebras.items()}
