import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sulmin.at_model import compute_at_model
from sulmin.differential import DGAlgebra
from sulmin.dsl import parse
from sulmin.graded_algebra import (
    Signature, basis_monomials, lin_axpy, mono_factors, subset_test)
from sulmin.homology_oracle import (
    NotClosedError,
    cohomology_dims,
    column_reduce,
    compare_cohomology,
    module_homology_dims,
    rank_of_columns,
)
from sulmin.minimal_model import _d_preimage
from sulmin.random_inputs import (
    random_dg_module, random_homogeneous_element, random_sullivan_algebra)


def test_surviving_algebra_dims_ex1(contractions):
    c = contractions["ex1"]
    derived = DGAlgebra(c.sig, c.dW)
    dims = dict(cohomology_dims(derived, c.W, 3))
    assert dims == {0: 1, 1: 2, 2: 1, 3: 1}


def test_source_matches_surviving_dims_ex1(algebras, contractions):
    c = contractions["ex1"]
    full = dict(cohomology_dims(algebras["ex1"], None, 3))
    assert full == {0: 1, 1: 2, 2: 1, 3: 1}


def test_empty_algebra_is_the_ground_field():
    dga = DGAlgebra(Signature.from_pairs([]), {})
    dims = cohomology_dims(dga, None, 4)
    assert dims == [(0, 1), (1, 0), (2, 0), (3, 0), (4, 0)]


def test_polynomial_line_on_one_even_generator():
    dga = DGAlgebra(Signature.from_pairs([("v2", 2)]), {})
    dims = dict(cohomology_dims(dga, None, 8))
    assert dims == {p: (1 if p % 2 == 0 else 0) for p in range(9)}


def test_exterior_line_on_one_odd_generator():
    dga = DGAlgebra(Signature.from_pairs([("e3", 3)]), {})
    dims = dict(cohomology_dims(dga, None, 8))
    assert dims == {p: (1 if p in (0, 3) else 0) for p in range(9)}


def test_even_sphere_truncation():
    # killing the square of the even generator leaves classes in 0 and 2 only
    dga = parse("gen v2:2\ngen e3:3\nd e3 = v2^2\n")
    dims = dict(cohomology_dims(dga, None, 10))
    assert dims == {p: (1 if p in (0, 2) else 0) for p in range(11)}


def test_contractible_pair_has_trivial_cohomology():
    dga = parse("gen v2:2\ngen a1:1\nd a1 = v2\n")
    dims = dict(cohomology_dims(dga, None, 8))
    assert dims == {p: (1 if p == 0 else 0) for p in range(9)}


def test_non_closed_subset_rejected(algebras):
    dga = algebras["ex1"]
    a1 = dga.sig.by_name("a1").index
    with pytest.raises(NotClosedError):
        cohomology_dims(dga, [a1], 3)


def test_cap_builds_no_basis_above_it():
    # rows are keyed by monomials, so degree p+1 needs no basis of its own:
    # at cap 1, 1200 degree-1 generators must not cost the 719,400-monomial
    # degree-2 basis
    sig = Signature.from_pairs((f"e{i}", 1) for i in range(1200))
    assert cohomology_dims(DGAlgebra(sig, {}), None, 1) == [(0, 1), (1, 1200)]
    assert sorted(sig._bases) == [0, 1]


def test_module_dims_at_every_cap_truncate_the_full_range():
    # generators above the cap change nothing below it, and a cap above the
    # top degree adds zeros
    rng = random.Random(41)
    for _ in range(40):
        M = random_dg_module(rng, max_gens=30, max_degree=5)
        full = module_homology_dims(M)
        for cap in range(8):
            want = full[:cap + 1] + [(p, 0) for p in range(len(full), cap + 1)]
            assert module_homology_dims(M, cap) == want


def _by_position(columns, rows):
    index = {r: k for k, r in enumerate(rows)}
    return [{index[r]: c for r, c in col.items()} for col in columns]


def _assert_row_keys_do_not_matter(columns, rows):
    # rows sorted, so positions are ordered as the elements: the least-key
    # pivot picks the same row either way, with the same arithmetic
    positional = _by_position(columns, rows)
    rank, kernel = column_reduce(columns)
    rank_p, kernel_p = column_reduce(positional)
    assert rank == rank_p == rank_of_columns(columns) == rank_of_columns(positional)
    assert [list(k.items()) for k in kernel] == [list(k.items()) for k in kernel_p]


def test_algebra_columns_keyed_by_monomials_reduce_as_by_positions():
    # rows keyed by factor lists, the basis order, reduce as rows keyed by
    # positions in the basis; the rank of the packed columns is the same
    rng = random.Random(20260810)
    for _ in range(25):
        dga = random_sullivan_algebra(rng, max_gens=8)
        sig = dga.sig
        for p in range(7):
            packed = [dga.ev.on_monomial(m) for m in basis_monomials(sig, p)]
            columns = [{mono_factors(sig, m): c for m, c in col.items()} for col in packed]
            rows = [mono_factors(sig, m) for m in basis_monomials(sig, p + 1)]
            _assert_row_keys_do_not_matter(columns, rows)
            assert rank_of_columns(packed) == rank_of_columns(columns)


def test_module_columns_keyed_by_generators_reduce_as_by_positions():
    rng = random.Random(3)
    for _ in range(40):
        M = random_dg_module(rng, max_gens=30, max_degree=5)
        degrees = [d for _, d in M.generators]
        for p in range(max(degrees) + 1):
            columns = [M.diff.get(i, {}) for i, d in enumerate(degrees) if d == p]
            rows = [i for i, d in enumerate(degrees) if d == p + 1]
            _assert_row_keys_do_not_matter(columns, rows)


def _rekeyed(columns, key):
    return [{key[r]: c for r, c in col.items()} for col in columns]


def _assert_kernels_as_defined(columns, rank, kernel):
    # a kernel vector belongs to the dependent column it ends on: 1 there,
    # its other support on earlier pivot columns, and a vanishing combination;
    # the pivot columns are independent and as many as the rank
    own = [max(combo) for combo in kernel]
    assert own == sorted(set(own))
    pivots = [k for k in range(len(columns)) if k not in set(own)]
    assert rank == len(pivots) == rank_of_columns(columns) \
        == rank_of_columns([columns[k] for k in pivots])
    for pos, combo in zip(own, kernel):
        assert combo[pos] == 1
        assert all(c and (k == pos or (k < pos and k not in own)) for k, c in combo.items())
        total = {}
        for k, c in combo.items():
            lin_axpy(total, c, columns[k])
        assert total == {}


def _assert_every_keying_gives_the_same_kernels(columns, keyings):
    rank, kernel = column_reduce(columns)
    _assert_kernels_as_defined(columns, rank, kernel)
    for key in keyings:
        assert column_reduce(_rekeyed(columns, key)) == (rank, kernel)


def test_kernels_do_not_depend_on_the_order_of_row_keys():
    # the chain correction and the random pools hand column_reduce packed
    # monomials, whose int order is not the basis order: every total order
    # of the row keys gives the same rank and the same kernels
    rng = random.Random(20261019)
    for _ in range(20):
        dga = random_sullivan_algebra(rng, max_gens=10)
        sig = dga.sig
        for p in range(7):
            columns = [dga.ev.on_monomial(m) for m in basis_monomials(sig, p)]
            rows = basis_monomials(sig, p + 1)
            relabel = rng.sample(range(10 * len(rows) + 1), len(rows))
            _assert_every_keying_gives_the_same_kernels(columns, [
                {m: mono_factors(sig, m) for m in rows},
                {m: k for k, m in enumerate(rows)},
                dict(zip(rows, relabel))])
    for _ in range(40):
        M = random_dg_module(rng, max_gens=30, max_degree=5)
        degrees = [d for _, d in M.generators]
        for p in range(max(degrees) + 1):
            columns = [M.diff.get(i, {}) for i, d in enumerate(degrees) if d == p]
            rows = [i for i, d in enumerate(degrees) if d == p + 1]
            relabel = rng.sample(range(10 * len(rows) + 1), len(rows))
            _assert_every_keying_gives_the_same_kernels(columns, [
                {i: k for k, i in enumerate(rows)}, dict(zip(rows, relabel))])


def test_d_preimage_solves_over_the_prefix():
    # the chain correction's u satisfies d(u) = target over the first i
    # generators, and is the target column's kernel vector for every keying
    rng = random.Random(20261020)
    solved = 0
    for _ in range(30):
        dga = random_sullivan_algebra(rng, max_gens=10)
        sig = dga.sig
        i = rng.randint(1, len(sig))
        prefix = Signature(sig.generators[:i])
        for p in range(1, 6):
            target = dga.ev.on_element(random_homogeneous_element(rng, prefix, p))
            if not target:
                continue
            u = _d_preimage(prefix, dga.ev, p, target)
            assert dga.ev.on_element(u) == target
            assert all(map(subset_test(sig, range(i)), u))
            basis = basis_monomials(prefix, p)
            columns = [dga.ev.on_monomial(m) for m in basis] + [target]
            _, kernel = column_reduce(_rekeyed(
                columns, {m: mono_factors(sig, m) for m in basis_monomials(prefix, p + 1)}))
            combo = next(k for k in kernel if len(basis) in k)
            assert u == {basis[k]: Fraction(-c) / combo[len(basis)]
                         for k, c in combo.items() if k != len(basis)}
            solved += 1
    assert solved > 20


def test_rank_plus_kernel_is_dimension():
    rng = random.Random(5)
    cols = []
    for _ in range(12):
        cols.append({rng.randrange(6): Fraction(rng.randint(-3, 3))
                     for _ in range(rng.randint(0, 3))})
    cols = [{k: v for k, v in c.items() if v} for c in cols]
    rank, kernel = column_reduce(cols)
    assert rank + len(kernel) == len(cols)


def test_rank_is_order_independent():
    rng = random.Random(17)
    cols = []
    for _ in range(15):
        cols.append({rng.randrange(8): Fraction(rng.randint(-4, 4))
                     for _ in range(rng.randint(1, 4))})
    cols = [{k: v for k, v in c.items() if v} for c in cols]
    base = rank_of_columns(cols)
    for _ in range(5):
        perm = list(range(len(cols)))
        rng.shuffle(perm)
        rowperm = list(range(8))
        rng.shuffle(rowperm)
        shuffled = [{rowperm[k]: v for k, v in cols[i].items()} for i in perm]
        assert rank_of_columns(shuffled) == base


_RATIONALS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
_COLUMNS = st.dictionaries(st.integers(0, 7), _RATIONALS, max_size=5)


@st.composite
def _column_sets(draw):
    """Sparse rational columns, with empty columns, repeated columns and
    combinations of earlier columns mixed in."""
    cols = draw(st.lists(_COLUMNS, max_size=10))
    for _ in range(draw(st.integers(0, 4))):
        if not cols:
            break
        x, y = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
        a, b = draw(_RATIONALS), draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3)]))
        combo = {}
        for r in set(x) | set(y):
            c = a * x.get(r, 0) + b * y.get(r, 0)
            if c:
                combo[r] = c
        cols.insert(draw(st.integers(0, len(cols))), combo)
    return cols


@given(_column_sets())
@settings(max_examples=150, deadline=None)
def test_fraction_free_rank_matches_rational_elimination(cols):
    assert rank_of_columns(cols) == column_reduce(cols)[0]


def test_fraction_free_rank_on_large_denominators():
    # entries 1/3^k make the integer scaling reach 3^40; a dependent third
    # column must still reduce to zero exactly
    x = {r: Fraction(1, 3 ** (r + 35)) for r in range(6)}
    y = {r: Fraction(r + 1, 7 ** (r + 1)) for r in range(6)}
    z = {r: x[r] * Fraction(2, 3) - y[r] * 5 for r in range(6)}
    assert rank_of_columns([x, y, z]) == 2 == column_reduce([x, y, z])[0]
    assert rank_of_columns([{}, {0: Fraction(1, 2)}, {}, {0: Fraction(-3)}]) == 1


def test_compare_source_against_survivors(algebras, contractions):
    for name in ("ex1", "ex2", "ex3", "ex4", "nested"):
        c = contractions[name]
        report = compare_cohomology(
            (algebras[name], None), (DGAlgebra(c.sig, c.dW), c.W), 10)
        assert report.equal, f"{name}:\n{report}"


def test_compare_detects_missing_generator(algebras, contractions):
    c = contractions["ex1"]
    crippled = tuple(w for w in c.W if c.sig.name(w) != "u3")
    report = compare_cohomology(
        (algebras["ex1"], None), (DGAlgebra(c.sig, c.dW), crippled), 4)
    assert not report.equal
    assert report.first_mismatch == 3


def test_compare_algebra_with_itself(algebras):
    report = compare_cohomology((algebras["ex3"], None), (algebras["ex3"], None), 6)
    assert report.equal


def test_module_oracle_agrees_with_contraction_counts():
    rng = random.Random(23)
    for _ in range(8):
        M = random_dg_module(rng, max_gens=25)
        A = compute_at_model(M)
        counts = Counter(M.generators[h][1] for h in A.H)
        for p, dim in module_homology_dims(M):
            assert counts.get(p, 0) == dim


def test_random_algebra_and_its_model_agree():
    rng = random.Random(31)
    for _ in range(5):
        dga = random_sullivan_algebra(rng, max_gens=6)
        from sulmin.minimal_model import compute_minimal_model
        c = compute_minimal_model(dga)
        report = compare_cohomology(
            (dga, None), (DGAlgebra(dga.sig, c.dW), c.W), 8)
        assert report.equal, str(report)
        # the ground field always survives in degree zero
        assert report.dims_a[0] == (0, 1)
