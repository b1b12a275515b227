import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PLANTED, mono
from sulmin import compute_minimal_model
from sulmin.differential import (
    MAX_WORD, DGAlgebra, Extension, WordTooLongError, validate_sullivan)
from sulmin.dsl import parse, parse_expression
from sulmin.graded_algebra import (
    MAX_EXPONENT,
    Signature,
    basis_monomials,
    elem_add,
    elem_mul,
    elem_one,
    elem_scale,
    lin_axpy,
    mono_degree,
    mono_elem,
    subset_test,
)
from sulmin.morphisms import homotopy_extension
from sulmin.random_inputs import random_sullivan_algebra


def test_leibniz_one_step():
    sig = Signature.from_pairs([("a1", 1), ("v2", 2)])
    dga = DGAlgebra(sig, {0: parse_expression(sig, "v2")})
    assert dga.ev.on_element(parse_expression(sig, "a1*v2")) == parse_expression(sig, "v2^2")


def test_derivative_of_unit_is_zero():
    sig = Signature.from_pairs([("a1", 1)])
    dga = DGAlgebra(sig, {})
    assert dga.ev.on_element(elem_one()) == {}


def test_closed_combination_on_even_ladder(algebras):
    dga = algebras["ex4"]
    x = parse_expression(dga.sig, "v4*w2 + v2*w4")
    assert dga.ev.on_element(x) == {}


def test_validate_accepts_ten_generator_example(algebras):
    assert validate_sullivan(algebras["ex3"]) == []


def test_validate_reports_order_violation():
    sig = Signature.from_pairs([("a1", 1), ("v2", 2)])
    dga = DGAlgebra(sig, {0: parse_expression(sig, "v2")})
    problems = validate_sullivan(dga)
    assert problems
    assert any(p.startswith("order: generator a1: ") for p in problems)


def test_validate_reports_degree_violation():
    sig = Signature.from_pairs([("v2", 2), ("x2", 2)])
    dga = DGAlgebra(sig, {1: parse_expression(sig, "v2")})
    problems = validate_sullivan(dga)
    assert any(p.startswith("degree: ") for p in problems)


def test_validate_reports_d_squared_violation():
    sig = Signature.from_pairs([("v2", 2), ("w3", 3), ("x2", 2)])
    dga = DGAlgebra(sig, {1: parse_expression(sig, "v2^2"),
                          2: parse_expression(sig, "w3")})
    problems = validate_sullivan(dga)
    assert any(p.startswith("d-squared: generator x2: ") for p in problems)


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_leibniz_on_random_products(seed):
    rng = random.Random(seed)
    text = """
gen a1:1
gen b1:1
gen v2:2
gen x1:1
gen u3:3
d x1 = v2 - 2*a1*b1
d u3 = v2^2
"""
    dga = parse(text)
    sig = dga.sig

    def rand_homog(degree):
        basis = basis_monomials(sig, degree)
        out = {}
        for m in rng.sample(basis, min(3, len(basis))):
            c = rng.randint(-3, 3)
            if c:
                out = elem_add(out, elem_scale({m: 1}, c))
        return out

    p = rng.randint(0, 4)
    q = rng.randint(0, 4)
    x = rand_homog(p)
    y = rand_homog(q)
    lhs = dga.ev.on_element(elem_mul(sig, x, y))
    rhs = elem_add(
        elem_mul(sig, dga.ev.on_element(x), y),
        elem_scale(elem_mul(sig, x, dga.ev.on_element(y)), (-1) ** p),
    )
    assert lhs == rhs


def test_d_squared_vanishes_on_basis_up_to_cap(algebras):
    for name in ("ex3", "ex4"):
        dga = algebras[name]
        ev = Extension(dga.sig, dga.diff, mono_elem)
        for p in range(9):
            for m in basis_monomials(dga.sig, p):
                assert ev.on_element(ev.on_monomial(m)) == {}


def test_derivative_raises_degree_by_one(algebras):
    dga = algebras["ex3"]
    for p in range(1, 7):
        for m in basis_monomials(dga.sig, p):
            img = dga.ev.on_element({m: 1})
            if img:
                assert {mono_degree(dga.sig, mm) for mm in img} == {p + 1}


def test_long_words_evaluate_in_a_loop():
    # words far past the interpreter's recursion limit, both rules
    sig = Signature.from_pairs([("v2", 2), ("w3", 3)])
    n = 3000
    v2, w3 = mono(sig, (0, 1)), mono(sig, (1, 1))
    f = Extension(sig, {0: {v2: 2}, 1: {w3: -1}})
    assert f.on_monomial(mono(sig, (0, n), (1, 1))) == {mono(sig, (0, n), (1, 1)): -(2 ** n)}
    d = Extension(sig, {0: {w3: 1}}, mono_elem)
    assert d.on_monomial(mono(sig, (0, n))) == {mono(sig, (0, n - 1), (1, 1)): n}
    # the walk stops at the first cached suffix: a longer word reuses them
    assert d.on_monomial(mono(sig, (0, n + 1))) == {mono(sig, (0, n), (1, 1)): n + 1}


def test_word_past_the_limit_is_refused_before_its_walk():
    sig = Signature.from_pairs([("v2", 2), ("w3", 3)])
    w3 = mono(sig, (1, 1))
    d = Extension(sig, {0: {w3: 1}}, mono_elem)
    assert d.on_monomial(mono(sig, (0, MAX_WORD))) == {mono(sig, (0, MAX_WORD - 1), (1, 1)): MAX_WORD}
    fresh = Extension(sig, {0: {w3: 1}}, mono_elem)
    with pytest.raises(WordTooLongError, match="more than"):
        fresh.on_monomial(mono(sig, (0, MAX_WORD + 1)))
    # the longest word the layout holds
    with pytest.raises(WordTooLongError, match="more than"):
        fresh.on_monomial(mono(sig, (0, MAX_EXPONENT)))
    # cached suffixes do not count: only the uncached part of a word is walked
    assert d.on_monomial(mono(sig, (0, MAX_WORD + 1))) == {mono(sig, (0, MAX_WORD), (1, 1)): MAX_WORD + 1}


def test_product_past_a_field_inside_an_evaluator_raises():
    # the images of short words can overflow a field: the product raises the
    # same WordTooLongError that the CLI turns into exit 2
    sig = Signature.from_pairs([("v2", 2), ("w3", 3)])
    f = Extension(sig, {0: {mono(sig, (0, 20000)): 1}, 1: {}})
    assert f.on_monomial(mono(sig, (0, 1))) == {mono(sig, (0, 20000)): 1}
    with pytest.raises(WordTooLongError, match=r"v2\^20000 \* v2\^20000 does not fit"):
        f.on_monomial(mono(sig, (0, 2)))
    d = Extension(sig, {1: {mono(sig, (0, 30000)): 1}}, mono_elem)
    assert d.on_monomial(mono(sig, (0, 2000), (1, 1))) == {mono(sig, (0, 32000)): 1}
    with pytest.raises(WordTooLongError, match="does not fit"):
        d.on_monomial(mono(sig, (0, 3000), (1, 1)))


# -- the one-step fold against the walk ------------------------------------------

CAP = 6


@pytest.fixture(scope="module")
def contracted(algebras):
    """Contractions of the bundled algebras, both planted inputs and seeded
    random draws, by name."""
    dgas = dict(algebras)
    dgas.update({f"planted[{k}]": parse(text) for k, text in enumerate(PLANTED)})
    rng = random.Random(20261020)
    dgas.update({f"random[{k}]": random_sullivan_algebra(rng, max_gens=8) for k in range(12)})
    return {name: compute_minimal_model(dga) for name, dga in dgas.items()}


def _evaluators(c):
    """Fresh evaluators of ``d``, ``f``, ``g`` and ``phi``, each with the
    basis it is defined on: ``g`` only on the survivors' subalgebra."""
    sig = c.sig
    basis = [m for p in range(CAP + 1) for m in basis_monomials(sig, p)]
    f_ev, g_ev = Extension(sig, c.f), Extension(sig, c.g)
    return {"d": (Extension(sig, c.source.diff, mono_elem), basis),
            "f": (f_ev, basis),
            "g": (g_ev, list(filter(subset_test(sig, c.W), basis))),
            "phi": (homotopy_extension(sig, c.phi, f_ev, g_ev), basis)}


def test_one_step_folds_equal_the_walk(contracted):
    # in basis order every suffix is met first, so each miss folds one step;
    # in reverse order a fresh evaluator walks down to the unit
    for name, c in contracted.items():
        forward, backward = _evaluators(c), _evaluators(c)
        for role, (ev, basis) in forward.items():
            ahead = [ev.on_monomial(m) for m in basis]
            back_ev = backward[role][0]
            behind = [back_ev.on_monomial(m) for m in reversed(basis)][::-1]
            assert ahead == behind, (name, role)


def test_a_missing_map_entry_names_the_leftmost_generator_on_both_paths():
    sig = Signature.from_pairs([("a2", 2), ("b2", 2), ("c2", 2)])
    c2 = mono(sig, (2, 1))
    ev = Extension(sig, {2: {c2: 3}})  # no entries for a2 and b2
    with pytest.raises(KeyError, match="no image for generator a2"):
        ev.on_monomial(mono(sig, (0, 1), (1, 1), (2, 1)))  # the walk
    assert ev.on_monomial(c2) == {c2: 3}
    with pytest.raises(KeyError, match="no image for generator a2"):
        ev.on_monomial(mono(sig, (0, 1), (2, 1)))  # one step from c2
    with pytest.raises(KeyError, match="no image for generator b2"):
        ev.on_monomial(mono(sig, (1, 2), (2, 1)))
    assert ev.cache.keys() == {mono(sig), c2}


def test_add_into_is_the_linear_extension_in_place(contracted):
    rng = random.Random(7)
    coeffs = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]
    for name, c in contracted.items():
        reference = _evaluators(c)
        for role, (ev, basis) in _evaluators(c).items():
            for m in basis[::2]:
                ev.on_monomial(m)  # a cache that holds part of the basis
            for _ in range(10):
                x = {m: rng.choice(coeffs) for m in rng.sample(basis, min(4, len(basis)))}
                out = {m: rng.choice(coeffs) for m in rng.sample(basis, min(3, len(basis)))}
                want = lin_axpy(dict(out), 1, reference[role][0].on_element(x))
                x_before, cache_before = dict(x), copy.deepcopy(ev.cache)
                assert ev.add_into(out, x) is out
                assert out == want, (name, role)
                assert x == x_before
                assert all(ev.cache[m] == img for m, img in cache_before.items())
