import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_coefficient
from sulmin.at_model import (
    ATModel,
    DGModule,
    check_at_model,
    compute_at_model,
    homology_class_dims,
    lin_apply,
    validate_module,
)
from sulmin.graded_algebra import lin_axpy
from sulmin.homology_oracle import module_homology_dims
from sulmin.random_inputs import random_dg_module


def test_all_cycles_survive():
    M = DGModule((("m0", 0), ("m1", 1), ("m2", 2)), {})
    A = compute_at_model(M)
    assert A.H == (0, 1, 2)
    for i in range(3):
        assert A.f[i] == {i: 1}
        assert A.g[i] == {i: 1}
        assert A.phi[i] == {}
    assert A.pairs == ()


def test_segment_collapse():
    # two degree-1 points joined by a degree-0 edge under the raising convention
    M = DGModule((("v0", 1), ("v1", 1), ("e", 0)),
                 {2: {1: Fraction(1), 0: Fraction(-1)}})
    A = compute_at_model(M)
    assert A.H == (0,)
    assert A.f[1] == {0: Fraction(1)}
    assert A.phi[1] == {2: Fraction(1)}
    assert A.pairs == ((2, 1),)


def test_non_unit_pivot_coefficient():
    M = DGModule((("m0", 1), ("m1", 0)), {1: {0: Fraction(2)}})
    A = compute_at_model(M)
    assert A.H == ()
    assert A.phi[0] == {1: Fraction(1, 2)}
    assert A.pairs == ((1, 0),)


def test_identities_hold_on_computed_models():
    rng = random.Random(7)
    for _ in range(10):
        M = random_dg_module(rng, max_gens=20)
        A = compute_at_model(M)
        report = check_at_model(M, A)
        assert all(ch.ok for ch in report), "\n".join(str(ch) for ch in report)


def test_corrupted_homotopy_detected():
    M = DGModule((("v0", 1), ("v1", 1), ("e", 0)),
                 {2: {1: Fraction(1), 0: Fraction(-1)}})
    A = compute_at_model(M)
    bad_phi = dict(A.phi)
    bad_phi[1] = {}
    bad = ATModel(A.H, A.f, A.g, bad_phi, A.pairs)
    report = check_at_model(M, bad)
    failing = [ch.name for ch in report if not ch.ok]
    assert "id - gf = phi d + d phi" in failing
    assert [str(ch) for ch in report] == [
        "f d = 0: pass",
        "d g = 0: pass",
        "f phi = 0: pass",
        "phi g = 0: pass",
        "phi phi = 0: pass",
        "id - gf = phi d + d phi: FAIL at v1",
        "f g = id: pass",
        "phi d phi = phi: pass",
        "d phi d = d: FAIL at e",
    ]


def test_empty_module_passes_vacuously():
    M = DGModule((), {})
    A = compute_at_model(M)
    assert A.H == ()
    assert all(ch.ok for ch in check_at_model(M, A))


def test_invalid_module_rejected_before_loop():
    M = DGModule((("a", 0), ("b", 1)), {0: {1: Fraction(1)}})
    assert validate_module(M)
    with pytest.raises(ValueError):
        compute_at_model(M)


def test_replays_are_deterministic():
    rng = random.Random(99)
    M = random_dg_module(rng, max_gens=25)
    A1 = compute_at_model(M)
    A2 = compute_at_model(M)
    assert (A1.H, A1.f, A1.g, A1.phi, A1.pairs) == (A2.H, A2.f, A2.g, A2.phi, A2.pairs)


def test_pairs_and_survivors_partition_generators():
    rng = random.Random(3)
    for _ in range(10):
        M = random_dg_module(rng, max_gens=25)
        A = compute_at_model(M)
        touched = set(A.H)
        for i, j in A.pairs:
            assert j < i
            # the differential raises degree, so the killed class sits one above
            assert M.degree(j) == M.degree(i) + 1
            touched.update((i, j))
        assert touched == set(range(len(M.generators)))


def test_class_counts_match_oracle():
    rng = random.Random(11)
    for _ in range(10):
        M = random_dg_module(rng, max_gens=30)
        A = compute_at_model(M)
        counts = homology_class_dims(M, A)
        for p, dim in module_homology_dims(M):
            assert counts.get(p, 0) == dim


# -- the linear kernel ------------------------------------------------------------

def _fold_add(x, y):
    out = dict(x)
    for i, c in y.items():
        s = out.get(i, Fraction(0)) + c
        if s:
            out[i] = s
        elif i in out:
            del out[i]
    return out


def _fold_apply(table, x):
    """The extension by one copy per term that lin_apply replaced."""
    out = {}
    for i, c in x.items():
        out = _fold_add(out, {j: c * v for j, v in table[i].items()} if c else {})
    return out


# units and a few values that cancel against each other
_COEFFS = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7)])
_IMAGES = st.dictionaries(st.integers(0, 5), _COEFFS, max_size=4)


@st.composite
def _tables_and_elements(draw):
    table = dict(enumerate(draw(st.lists(_IMAGES, min_size=1, max_size=6))))
    if draw(st.booleans()):
        # an image that is minus another one, so their sum cancels to zero
        src = draw(st.sampled_from(sorted(table)))
        table[len(table)] = {j: -v for j, v in table[src].items()}
    x = draw(st.dictionaries(st.sampled_from(sorted(table)), _COEFFS))
    return table, x


@given(_tables_and_elements())
@settings(max_examples=300, deadline=None)
def test_lin_apply_matches_the_fold(case):
    table, x = case
    before = copy.deepcopy(table)
    out = lin_apply(table, x)
    assert out == _fold_apply(table, x)
    assert table == before
    assert all(out is not image for image in table.values())
    assert all(is_coefficient(v) and v for v in out.values())


def test_module_tables_are_not_shared_or_written():
    rng = random.Random(2024)
    for _ in range(8):
        M = random_dg_module(rng, max_gens=40)
        before = copy.deepcopy(M.diff)
        assert validate_module(M) == []
        A = compute_at_model(M)
        assert all(ch.ok for ch in check_at_model(M, A))
        assert M.diff == before
        entries = [*A.f.values(), *A.g.values(), *A.phi.values()]
        assert len({id(e) for e in entries}) == len(entries)
        assert not {id(e) for e in entries} & {id(e) for e in M.diff.values()}
        for image in entries:
            assert all(is_coefficient(v) for v in image.values())


def _scanning_at_model(M):
    """The sweep as it was before its reverse index: every pairing scans all
    earlier generators for the killed class."""
    H, in_h, f, g, phi, pairs = [], set(), {}, {}, {}, []
    one = Fraction(1)
    for i in range(len(M.generators)):
        di = M.d_of(i)
        a = lin_apply(f, di)
        b = lin_axpy({i: one}, -one, lin_apply(phi, di))
        if not a:
            H.append(i)
            in_h.add(i)
            f[i] = {i: one}
            g[i] = b
            phi[i] = {}
        else:
            j = max(k for k in a if k in in_h)
            alpha = a[j]
            H.remove(j)
            in_h.discard(j)
            f[i] = {}
            phi[i] = {}
            g.pop(j, None)
            pairs.append((i, j))
            for m in range(i):
                fm = f[m]
                if j not in fm:
                    continue
                lam = Fraction(fm[j], alpha)
                f[m] = lin_axpy(dict(fm), -lam, a)
                phi[m] = lin_axpy(dict(phi[m]), lam, b)
    return ATModel(tuple(H), f, g, phi, tuple(pairs))


@given(st.integers(0, 10**9), st.integers(2, 80))
@settings(max_examples=60, deadline=None)
def test_indexed_corrections_match_the_scan(seed, max_gens):
    M = random_dg_module(random.Random(seed), max_gens=max_gens)
    A = compute_at_model(M)
    ref = _scanning_at_model(M)
    assert A == ref
    # entry by entry in the same key order, so the emitted text is the same too
    for table, expected in ((A.f, ref.f), (A.g, ref.g), (A.phi, ref.phi)):
        assert [list(table[m].items()) for m in table] == \
            [list(expected[m].items()) for m in expected]
