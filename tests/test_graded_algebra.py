import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_coefficient, mono
from sulmin.differential import DGAlgebra
from sulmin.graded_algebra import (
    MAX_EXPONENT,
    ONE_MONO,
    Signature,
    SignatureError,
    WordTooLongError,
    basis_monomials,
    elem_add,
    elem_gen,
    elem_mul,
    elem_one,
    elem_pow,
    elem_scale,
    elem_sub,
    in_lambda_geq2,
    linear_part,
    mono_degree,
    mono_factors,
    mono_first,
    mono_gen,
    mono_valid,
    subset_test,
)
from sulmin.cli import verify_algebra
from sulmin.dsl import parse, parse_expression
from sulmin.random_inputs import random_sullivan_algebra

SIG = Signature.from_pairs([("a1", 1), ("b1", 1), ("c1", 1), ("v2", 2), ("u3", 3)])
A, B, C, V, U = range(5)


def expr(text, sig=SIG):
    return parse_expression(sig, text)


def test_odd_generator_squares_to_zero():
    ab = mono(SIG, (A, 1), (B, 1))
    assert elem_mul(SIG, {mono(SIG, (A, 1)): 1}, {mono(SIG, (B, 1)): 1}) == {ab: 1}
    assert elem_mul(SIG, {ab: 1}, {mono(SIG, (A, 1)): 1}) == {}


def test_koszul_transposition_of_two_odds():
    assert elem_mul(SIG, {mono(SIG, (B, 1)): 1}, {mono(SIG, (A, 1)): 1}) == \
        {mono(SIG, (A, 1), (B, 1)): -1}


def test_even_generator_square_survives():
    assert elem_mul(SIG, {mono(SIG, (V, 1)): 1}, {mono(SIG, (V, 1)): 1}) == {mono(SIG, (V, 2)): 1}
    assert mono_factors(SIG, mono(SIG, (V, 2))) == ((V, 2),)


def test_odd_even_commute_without_sign():
    sig = Signature.from_pairs([("x1", 1), ("v2", 2)])
    x, v = mono(sig, (0, 1)), mono(sig, (1, 1))
    assert elem_mul(sig, {x: 1}, {v: 1}) == {mono(sig, (0, 1), (1, 1)): 1}
    assert elem_mul(sig, {v: 1}, {x: 1}) == {mono(sig, (0, 1), (1, 1)): 1}


def test_signature_rejects_degree_below_one():
    # no DGAlgebra can hold a generator of degree < 1, so validate_sullivan
    # needs no check of its own for it
    with pytest.raises(SignatureError, match="expected >= 1"):
        Signature.from_pairs([("a0", 0)])


def test_signature_mismatch_rejected():
    # a monomial enters through a table, where mono_valid refuses one that
    # the signature did not pack: another signature's generator, a negative
    # or non-int key, a set guard bit, a tuple of the old factor-list form
    wide = Signature.from_pairs([(f"x{i}", 1) for i in range(8)])
    assert not mono_valid(SIG, mono(wide, (7, 1)))
    assert mono_valid(wide, mono(wide, (7, 1)))
    big = mono(SIG, (V, MAX_EXPONENT))
    assert mono_valid(SIG, big)
    for bad in (mono(wide, (7, 1)), -1, ((V, 1),), big + mono(SIG, (V, 1)) - 1, True):
        assert not mono_valid(SIG, bad)
        with pytest.raises(ValueError, match="non-canonical term"):
            DGAlgebra(SIG, {U: {bad: 1}})
    with pytest.raises(SignatureError):
        mono_gen(SIG, 5)
    with pytest.raises(SignatureError):
        elem_gen(SIG, -1)


def test_square_of_odd_combination_vanishes():
    x = expr("2*a1*b1 - 2*b1*c1")
    assert elem_mul(SIG, x, x) == {}


def test_unit_law_on_sample():
    x = expr("u3 - a1*v2 + 1/2*b1")
    assert elem_mul(SIG, elem_one(), x) == x
    assert elem_mul(SIG, x, elem_one()) == x


def test_even_polynomial_arithmetic():
    sig = Signature.from_pairs([("v2", 2), ("v4", 4)])
    lhs = elem_mul(sig, parse_expression(sig, "v2"), parse_expression(sig, "v2^2 - v4"))
    assert lhs == parse_expression(sig, "v2^3 - v2*v4")


def test_linear_part_reads_bare_generators():
    x = expr("v2 - 2*a1*b1 + 2*b1*c1")
    assert linear_part(SIG, x) == {V: 1}
    assert linear_part(SIG, expr("2*a1 - 1/2*b1 + a1*b1")) == {A: 2, B: Fraction(-1, 2)}
    assert linear_part(SIG, expr("v2^2")) == {}
    assert linear_part(SIG, {}) == {}


def test_in_lambda_geq2():
    assert in_lambda_geq2(SIG, {}, [B, C, V])
    assert not in_lambda_geq2(SIG, expr("v2"), [B, C, V])
    assert in_lambda_geq2(SIG, expr("2*a1*b1 - 2*a1*c1 - 4*b1*c1"), [A, B, C])
    # a factor outside the subset disqualifies even in a product
    assert not in_lambda_geq2(SIG, expr("a1*v2"), [A, B, C])


def test_basis_monomials_degree_zero_is_unit():
    assert basis_monomials(SIG, 0) == [ONE_MONO]
    assert basis_monomials(Signature(()), 0) == [ONE_MONO]
    assert mono_factors(SIG, ONE_MONO) == ()


def test_basis_monomials_odd_words_collapse():
    sig = Signature.from_pairs([("b1", 1), ("c1", 1), ("u3", 3)])
    assert basis_monomials(sig, 3) == [mono(sig, (2, 1))]


def test_basis_monomials_degree_two():
    got = basis_monomials(SIG, 2)
    assert [mono_factors(SIG, m) for m in got] == [
        ((A, 1), (B, 1)), ((A, 1), (C, 1)), ((B, 1), (C, 1)), ((V, 1),)]


def test_basis_count_binomial_for_odd_degree_one_generators():
    sig = Signature.from_pairs([(f"e{i}", 1) for i in range(6)])
    for p in range(8):
        assert len(basis_monomials(sig, p)) == comb(6, p)


def _random_homogeneous(rng, sig, degree, max_terms=3):
    basis = basis_monomials(sig, degree)
    if not basis:
        return {}
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in basis]
    picks = rng.sample(range(len(basis)), min(max_terms, len(basis)))
    return {basis[i]: coeffs[i] for i in picks if coeffs[i]}


@given(st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_permutation_sign_matches_odd_inversions(seed):
    rng = random.Random(seed)
    degs = SIG.generators
    factors = [rng.randrange(len(SIG)) for _ in range(rng.randint(1, 6))]

    def fold(indices):
        product = elem_one()
        for i in indices:
            product = elem_mul(SIG, product, elem_gen(SIG, i))
        return product

    product = fold(factors)
    odd = [i for i in factors if degs[i].degree % 2]
    if len(set(odd)) != len(odd):
        assert product == {}
        return
    inversions = sum(
        1
        for s in range(len(factors))
        for t in range(s + 1, len(factors))
        if factors[s] > factors[t]
        and degs[factors[s]].degree % 2
        and degs[factors[t]].degree % 2
    )
    ((m, sign),) = product.items()
    assert sign == (-1) ** inversions
    assert fold(sorted(factors)) == {m: 1}


@given(st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_associativity_on_random_homogeneous(seed):
    rng = random.Random(seed)
    x = _random_homogeneous(rng, SIG, rng.randint(0, 4))
    y = _random_homogeneous(rng, SIG, rng.randint(0, 4))
    z = _random_homogeneous(rng, SIG, rng.randint(0, 4))
    assert elem_mul(SIG, elem_mul(SIG, x, y), z) == elem_mul(SIG, x, elem_mul(SIG, y, z))


@given(st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_graded_commutativity(seed):
    rng = random.Random(seed)
    p = rng.randint(0, 4)
    q = rng.randint(0, 4)
    x = _random_homogeneous(rng, SIG, p)
    y = _random_homogeneous(rng, SIG, q)
    swap = -1 if (p % 2 and q % 2) else 1
    assert elem_mul(SIG, x, y) == elem_scale(elem_mul(SIG, y, x), swap)


@given(st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_linear_plus_products_decomposition(seed):
    rng = random.Random(seed)
    x = {}
    for _ in range(3):
        x = elem_add(x, _random_homogeneous(rng, SIG, rng.randint(0, 5)))
    rebuilt = {}
    for i, c in linear_part(SIG, x).items():
        rebuilt = elem_add(rebuilt, elem_scale(elem_gen(SIG, i), c))
    constant = {m: c for m, c in x.items() if m == ONE_MONO}
    rest = elem_sub(elem_sub(x, rebuilt), constant)
    assert in_lambda_geq2(SIG, rest, None)
    assert elem_add(elem_add(rebuilt, constant), rest) == x



@given(st.integers(0, 10**9), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_power_is_the_repeated_product(seed, e):
    # square and multiply gives the same canonical element as e products,
    # on inhomogeneous elements too
    rng = random.Random(seed)
    x = elem_add(_random_homogeneous(rng, SIG, rng.randint(0, 3), max_terms=2),
                 _random_homogeneous(rng, SIG, rng.randint(0, 2), max_terms=2))
    repeated = elem_one()
    for _ in range(e):
        repeated = elem_mul(SIG, repeated, x)
    assert elem_pow(SIG, x, e) == repeated


def test_large_exponent_parses_in_log_many_products():
    sig = Signature.from_pairs([("v2", 2)])
    start = time.perf_counter()
    assert expr(f"v2^{MAX_EXPONENT}", sig) == {mono(sig, (0, MAX_EXPONENT)): 1}
    assert time.perf_counter() - start < 0.5


def test_exponent_past_the_field_raises_and_never_carries():
    # the field of v2 sits right below the one of w2: an exponent past it
    # must raise, not turn v2^(MAX_EXPONENT + 1) into some power of w2
    sig = Signature.from_pairs([("a1", 1), ("v2", 2), ("w2", 2), ("b1", 1)])
    top = mono(sig, (1, MAX_EXPONENT))
    assert mono_factors(sig, top) == ((1, MAX_EXPONENT),)
    v = mono_gen(sig, 1)
    for a, b in [(top, v), (v, top), (mono(sig, (1, 20000)), mono(sig, (1, 20000), (3, 1)))]:
        with pytest.raises(WordTooLongError, match="v2.* does not fit"):
            elem_mul(sig, {a: 1}, {b: 1})
        with pytest.raises(WordTooLongError):
            elem_mul(sig, {a: 1, ONE_MONO: 2}, {b: 3})
    with pytest.raises(WordTooLongError):
        expr(f"v2^{MAX_EXPONENT + 1}", sig)
    with pytest.raises(WordTooLongError):
        expr("(a1 + v2^30000)*(w2 + v2^3000)", sig)
    # the limit is per field: both even fields full is fine
    assert expr(f"v2^{MAX_EXPONENT}*w2^{MAX_EXPONENT}*a1*b1", sig) == {
        mono(sig, (0, 1), (1, MAX_EXPONENT), (2, MAX_EXPONENT), (3, 1)): 1}


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_a_prefix_signature_packs_its_monomials_alike(seed):
    # the parser builds each derivative against the generators declared so
    # far, so a monomial must not depend on the generators declared later
    rng = random.Random(seed)
    sig = _random_signature(rng)
    k = rng.randint(0, len(sig))
    prefix = Signature(sig.generators[:k])
    for p in range(6):
        assert basis_monomials(prefix, p) \
            == list(filter(subset_test(sig, range(k)), basis_monomials(sig, p)))


def test_derivatives_parsed_before_later_declarations_are_packed_alike():
    interleaved = parse("gen a1:1\ngen b1:1\ngen v2:2\nd v2 = a1*b1\ngen u3:3\nd u3 = v2*a1\n")
    declared_first = parse("gen a1:1\ngen b1:1\ngen v2:2\ngen u3:3\nd v2 = a1*b1\nd u3 = v2*a1\n")
    assert interleaved.diff == declared_first.diff


def test_salted_layout_spreads_the_hashes_of_a_wide_basis():
    # CPython hashes an int mod 2^61 - 1, so the bare field bits of 600 odd
    # generators fold onto 61 residues and their 179,700 degree-2 monomials
    # onto 1,891 hashes; the salt spreads them
    sig = Signature.from_pairs([(f"x{i}", 1) for i in range(600)])
    basis = basis_monomials(sig, 2)
    assert len(basis) == 179_700
    assert len(set(map(hash, basis))) >= 0.99 * len(basis)

def test_basis_monomials_distinct_and_homogeneous():
    for p in range(7):
        basis = basis_monomials(SIG, p)
        assert len(set(basis)) == len(basis)
        for m in basis:
            assert mono_degree(SIG, m) == p


def _random_signature(rng):
    return Signature.from_pairs(
        (f"x{i}", rng.randint(1, 4)) for i in range(rng.randint(1, 7)))


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_memoised_basis_is_the_fresh_enumeration(seed):
    # the basis is memoised on the signature; a fresh signature over the
    # same generators enumerates afresh, and filtering the memoised list by
    # a subset keeps the monomials over it in the same order
    rng = random.Random(seed)
    sig = _random_signature(rng)
    subset = rng.sample(range(len(sig)), rng.randint(0, len(sig)))
    for p in range(9):
        basis = basis_monomials(sig, p)
        assert basis == basis_monomials(Signature(sig.generators), p)
        assert basis_monomials(sig, p) is basis
        chosen = set(subset)
        assert [m for m in basis if all(i in chosen for i, _ in mono_factors(sig, m))] \
            == list(filter(subset_test(sig, subset), basis))
    assert sorted(sig._bases) == list(range(9))


def test_verify_leaves_the_memoised_bases_unchanged():
    # the sweep, the checker and the oracle all read the memoised lists,
    # which none of them may change
    rng = random.Random(20261018)
    for _ in range(6):
        dga = random_sullivan_algebra(rng, max_gens=8)
        lists = [basis_monomials(dga.sig, p) for p in range(8)]
        copies = [list(basis) for basis in lists]
        verify_algebra(dga, 6)
        assert all(basis_monomials(dga.sig, p) is lists[p] for p in range(8))
        assert lists == copies


# -- the unit-coefficient fast paths against the plain definitions ----------

MIXED = Signature.from_pairs(
    [("a1", 1), ("v2", 2), ("b3", 3), ("w2", 2), ("c1", 1), ("x4", 4), ("e5", 5)])


def _ref_mono_mul(sig, a, b):
    """Merge with the sign counted from the odd factors of ``a`` not yet merged."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    odd_suffix = [0] * (len(a) + 1)
    for k in range(len(a) - 1, -1, -1):
        odd_suffix[k] = odd_suffix[k + 1] + sig.degree(a[k][0]) % 2
    out, sign, ai, bi = [], 1, 0, 0
    while ai < len(a) and bi < len(b):
        (ia, ea), (ib, eb) = a[ai], b[bi]
        if ia < ib:
            out.append((ia, ea))
            ai += 1
        elif ia > ib:
            if sig.degree(ib) % 2 and odd_suffix[ai] % 2:
                sign = -sign
            out.append((ib, eb))
            bi += 1
        else:
            if sig.degree(ia) % 2:
                return 0, None
            out.append((ia, ea + eb))
            ai += 1
            bi += 1
    return sign, tuple(out + list(a[ai:]) + list(b[bi:]))


def _ref_elem_scale(x, c):
    c = Fraction(c)
    return {m: c * v for m, v in x.items()} if c else {}


def _ref_elem_add(x, y, sign=1):
    out = dict(x)
    for m, c in y.items():
        s = out.get(m, Fraction(0)) + sign * c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def _ref_elem_mul(sig, x, y):
    out = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            sign, m = _ref_mono_mul(sig, ma, mb)
            if m is None:
                continue
            c = ca * cb if sign > 0 else -(ca * cb)
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out


def _random_mono(rng, sig):
    mono = []
    for g in sig.generators:
        if rng.random() < 0.4:
            mono.append((g.index, 1 if g.degree % 2 else rng.randint(1, 3)))
    return tuple(mono)


def _random_elem(rng, sig):
    coeffs = [Fraction(1), Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2)]
    out = {}
    for _ in range(rng.randint(0, 4)):
        out[_random_mono(rng, sig)] = rng.choice(coeffs)
    return out


def _packed(sig, x):
    """A reference element, keyed by factor lists, keyed by monomials."""
    return {mono(sig, *m): c for m, c in x.items()}


@given(st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_kernel_fast_paths_match_plain_definitions(seed):
    # the packed kernels against the tuple reference, which merges factor
    # lists; factor lists and packed monomials correspond one to one
    rng = random.Random(seed)
    a, b = _random_mono(rng, MIXED), _random_mono(rng, MIXED)
    sign, m = _ref_mono_mul(MIXED, a, b)
    packed = elem_mul(MIXED, {mono(MIXED, *a): 1}, {mono(MIXED, *b): 1})
    assert packed == ({} if m is None else {mono(MIXED, *m): sign})
    if m is not None:
        assert [mono_factors(MIXED, k) for k in packed] == [m]
    x, y = _random_elem(rng, MIXED), _random_elem(rng, MIXED)
    if rng.random() < 0.5:
        x = {_random_mono(rng, MIXED): Fraction(1)}  # the unit left factor of gen * tail
    ref = _packed(MIXED, _ref_elem_mul(MIXED, x, y))
    x, y = _packed(MIXED, x), _packed(MIXED, y)
    product = elem_mul(MIXED, x, y)
    # same terms in the same order, so anything printed from it is unchanged
    assert list(product.items()) == list(ref.items())
    assert all(is_coefficient(c) for c in product.values())
    # sums that cancel, and sums that add fresh terms
    y = {**y, **{m: -c for m, c in list(x.items())[:2]}}
    assert list(elem_add(x, y).items()) == list(_ref_elem_add(x, y).items())
    assert list(elem_sub(x, y).items()) == list(_ref_elem_add(x, y, -1).items())
    for c in (1, Fraction(1), Fraction(-1), 0, Fraction(3, 4)):
        assert list(elem_scale(x, c).items()) == list(_ref_elem_scale(x, c).items())
    assert elem_scale(x, 1) is x


def test_mono_mul_sign_and_odd_square_cases():
    a1, v2, b3, w2, c1 = ((0, 1),), ((1, 1),), ((2, 1),), ((3, 1),), ((4, 1),)
    # cases and results are factor lists, packed for elem_mul
    cases = [
        ((*a1, *b3), (*v2, *c1)),   # only the even v2 moves: sign +1
        ((*b3, *c1), a1),           # a1 passes c1 and b3: sign +1
        ((*b3, *w2), (*a1, *v2)),   # a1 passes b3 and the even w2: sign -1
        ((*a1, *v2), (*v2, *b3)),   # even square, no odd transposition
        ((*a1, *c1), (*b3,)),       # b3 passes c1: sign -1
        ((*a1, *b3), (*b3, *c1)),   # b3 squared: zero
    ]
    expected = [
        (1, (*a1, *v2, *b3, *c1)),
        (1, (*a1, *b3, *c1)),
        (-1, (*a1, *v2, *b3, *w2)),
        (1, ((0, 1), (1, 2), (2, 1))),
        (-1, (*a1, *b3, *c1)),
        (0, None),
    ]
    for (x, y), (sign, m) in zip(cases, expected):
        assert _ref_mono_mul(MIXED, x, y) == (sign, m)
        packed = {} if m is None else {mono(MIXED, *m): sign}
        assert elem_mul(MIXED, {mono(MIXED, *x): 1}, {mono(MIXED, *y): 1}) == packed


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_basis_comes_in_the_factor_list_order(seed):
    # basis_monomials pushes children in reverse instead of sorting: its
    # order must be the sort by factor lists, for every prefix signature
    rng = random.Random(seed)
    sig = _random_signature(rng)
    prefix = Signature(sig.generators[:rng.randint(0, len(sig))])
    for p in range(9):
        for basis in (basis_monomials(sig, p), basis_monomials(prefix, p)):
            keys = [mono_factors(sig, m) for m in basis]
            assert keys == sorted(keys)
            assert [mono(sig, *k) for k in keys] == basis


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_first_factor_and_splits_take_a_monomial_apart(seed):
    # the splits are checked against the factor sequence by
    # test_morphisms.py::test_splits_slice_as_the_expanded_sequence_does
    rng = random.Random(seed)
    factors = _random_mono(rng, MIXED)
    m = mono(MIXED, *factors)
    if factors:
        i, rest = mono_first(MIXED, m)
        head = ((i, factors[0][1] - 1),) if factors[0][1] > 1 else ()
        assert (i, rest) == (factors[0][0], mono(MIXED, *head, *factors[1:]))


def _head(factors):
    """The reference ``(i, rest)`` of a factor list: its first factor off."""
    (i, e), tail = factors[0], factors[1:]
    return i, ((i, e - 1),) + tail if e > 1 else tail


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_a_memo_hit_equals_a_miss(seed):
    # sign masks and head splits are memoised on the signature: the first
    # call fills the memo, the second is served from it, and both equal the
    # factor-list reference
    rng = random.Random(seed)
    for sig in (Signature(MIXED.generators), _random_signature(rng)):
        for _ in range(8):
            a, b = _random_mono(rng, sig), _random_mono(rng, sig)
            sign, m = _ref_mono_mul(sig, a, b)
            ref = {} if m is None else {mono(sig, *m): sign}
            x, y = {mono(sig, *a): 1}, {mono(sig, *b): 1}
            assert elem_mul(sig, x, y) == ref
            odd = mono(sig, *a) & sig._odd_mask
            assert not odd or odd in sig._flips
            assert elem_mul(sig, x, y) == ref
        for p in range(1, 7):
            for m in basis_monomials(sig, p):
                first = mono_first(sig, m)
                assert sig._firsts[m] is first
                assert mono_first(sig, m) is first
                i, rest = _head(mono_factors(sig, m))
                assert first == (i, mono(sig, *rest))


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_an_extension_fills_a_memo_of_its_own(seed):
    # a sign mask depends on every odd generator, so an extension with new
    # odd generators starts with empty memos of its own, and products on the
    # prefix and then on the extension each match the reference
    def check(sig, x, y):
        sign, m = _ref_mono_mul(sig, x, y)
        assert elem_mul(sig, {mono(sig, *x): 1}, {mono(sig, *y): 1}) == \
            ({} if m is None else {mono(sig, *m): sign})

    rng = random.Random(seed)
    prefix = _random_signature(rng)
    n = len(prefix)
    pairs = [(_random_mono(rng, prefix), _random_mono(rng, prefix)) for _ in range(8)]
    for a, b in pairs:
        check(prefix, a, b)
        if a:
            mono_first(prefix, mono(prefix, *a))
    longer = prefix.extended([("z1", 1), ("z3", 3)])
    assert not longer._flips and not longer._firsts
    for extra in (((n, 1),), ((n + 1, 1),)):
        for a, b in pairs:
            check(longer, a + extra, b)
            check(longer, a, b + extra)
