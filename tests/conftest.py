import pathlib
from fractions import Fraction
from math import gcd

import pytest

from sulmin import compute_minimal_model, parse
from sulmin.dsl import format_linear
from sulmin.graded_algebra import ONE_MONO, basis_monomials, elem_mul, mono_gen
from sulmin.random_inputs import _COEFF_POOL

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


# Two valid inputs on which the sweep's phi breaks side conditions of the
# contraction, not only the homotopy identity (ROADMAP item 2).  Until phi
# is a true homotopy, verify exits 3 on both: the first fails phi phi = 0
# (at y2^2) and id - gf (at u3*m4), the second phi g = 0 (at m6), phi phi = 0
# (at y2^2) and id - gf (at y2*u5).
PLANTED = (
    "gen y0:2\ngen u1:1\ngen y2:4\ngen u3:3\ngen m4:1\ngen m5:3\n"
    "d u1 = y0\nd u3 = 8*y0^2 - 2*y2\nd m4 = -y0\nd m5 = -6*y0^2\n",
    "gen y0:2\ngen u1:1\ngen y2:2\ngen m3:2\ngen m4:3\ngen u5:1\ngen m6:3\n"
    "d u1 = -1/2*y0\nd m4 = 1/6*y0^2 + 1/6*y0*m3\nd u5 = -9/4*y0 - 1/2*y2\n"
    "d m6 = -3/4*y0^2 - 7/4*y0*y2 + 2*y0*m3 - 5/8*y2^2 - y2*m3 - 2*m3^2\n",
)


def written_module(M) -> str:
    """The document of the module ``M`` in the written form, as
    ``perfbench/workloads.module_text`` writes it."""
    lines = ["mode module"] + [f"gen {name}:{deg}" for name, deg in M.generators]
    lines += [f"d {M.name(i)} = {format_linear(M, M.diff[i])}" for i in sorted(M.diff)]
    return "\n".join(lines) + "\n"


def is_coefficient(c) -> bool:
    """The coefficient rule: an ``int``, or a ``Fraction`` with denominator > 1
    (so neither ``Fraction(2, 1)`` nor a float)."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def is_row(row) -> bool:
    """An integer row in lowest terms, as ``graded_algebra.int_row`` makes
    them: ``(den, vals)`` with ``den`` > 0, nonzero ``int`` values, and no
    factor common to ``den`` and all the values."""
    den, vals = row
    return (type(den) is int and den > 0 and gcd(den, *vals.values()) == 1
            and all(type(v) is int and v for v in vals.values()))


def mono(sig, *factors):
    """The monomial of ``sig`` with the given ``(generator index, exponent)``
    factors, in increasing index: the one way tests write a monomial by hand.
    It is built through the package's own product, one factor at a time."""
    m = ONE_MONO
    for i, e in factors:
        g = mono_gen(sig, i)
        for _ in range(e):
            product = elem_mul(sig, {m: 1}, {g: 1})
            # one term of sign 1; an odd square is no term at all
            assert list(product.values()) == [1], f"factors {factors} not canonical"
            (m,) = product
    return m


def random_homogeneous_element(rng, sig, degree):
    """Up to four distinct monomials of the degree-``degree`` basis of
    ``sig``, with coefficients from ``random_inputs``' pool."""
    basis = basis_monomials(sig, degree)
    if not basis:
        return {}
    count = rng.randint(1, min(4, len(basis)))
    # sampled monomials are distinct and pool coefficients nonzero
    return {m: rng.choice(_COEFF_POOL) for m in rng.sample(basis, count)}


def load(name: str):
    return parse(EXAMPLE_FILES[name].read_text())


@pytest.fixture(scope="session")
def algebras():
    return {k: load(k) for k in ("ex1", "ex2", "ex3", "ex4", "nested", "minimal")}


@pytest.fixture(scope="session")
def contractions(algebras):
    return {k: compute_minimal_model(dga) for k, dga in algebras.items()}
