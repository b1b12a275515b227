import copy
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_coefficient, is_row, written_module
from sulmin import at_model, dsl
from sulmin.at_model import (
    ATModel,
    DGModule,
    check_at_model,
    compute_at_model,
    row_apply,
    validate_module,
)
from sulmin.cli import RunConfig, _cmd_at_model, run
from sulmin.dsl import format_linear, parse
from sulmin.graded_algebra import int_row, lin_axpy
from sulmin.homology_oracle import module_homology_dims, rank_of_columns
from sulmin.random_inputs import random_dg_module


def test_all_cycles_survive():
    M = DGModule((("m0", 0), ("m1", 1), ("m2", 2)), {})
    A = compute_at_model(M)
    assert A.H == (0, 1, 2)
    for i in range(3):
        assert A.f[i] == (1, {i: 1})
        assert A.g[i] == (1, {i: 1})
        assert A.phi[i] == (1, {})
    assert A.pairs == ()


def test_segment_collapse():
    # two degree-1 points joined by a degree-0 edge under the raising convention
    M = DGModule((("v0", 1), ("v1", 1), ("e", 0)),
                 {2: {1: Fraction(1), 0: Fraction(-1)}})
    A = compute_at_model(M)
    assert A.H == (0,)
    assert A.f[1] == int_row({0: Fraction(1)})
    assert A.phi[1] == int_row({2: Fraction(1)})
    assert A.pairs == ((2, 1),)


def test_non_unit_pivot_coefficient():
    M = DGModule((("m0", 1), ("m1", 0)), {1: {0: Fraction(2)}})
    A = compute_at_model(M)
    assert A.H == ()
    assert A.phi[0] == int_row({1: Fraction(1, 2)})
    assert A.pairs == ((1, 0),)


def test_identities_hold_on_computed_models():
    rng = random.Random(7)
    for _ in range(10):
        M = random_dg_module(rng, max_gens=20)
        A = compute_at_model(M)
        report = check_at_model(M, A)
        assert all(ch.ok for ch in report), "\n".join(str(ch) for ch in report)


_CORRUPTED_REPORT = [
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


def test_corrupted_homotopy_detected():
    M = DGModule((("v0", 1), ("v1", 1), ("e", 0)),
                 {2: {1: Fraction(1), 0: Fraction(-1)}})
    A = compute_at_model(M)
    bad_phi = dict(A.phi)
    bad_phi[1] = (1, {})
    bad = ATModel(A.H, A.f, A.g, bad_phi, A.pairs)
    report = check_at_model(M, bad)
    failing = [ch.name for ch in report if not ch.ok]
    assert "id - gf = phi d + d phi" in failing
    assert [str(ch) for ch in report] == _CORRUPTED_REPORT


def _scaled(table, k):
    """Every row of ``table`` with its denominator and values times ``k``."""
    return {m: (k * den, {j: k * v for j, v in vals.items()}) for m, (den, vals) in table.items()}


def test_checker_reads_rows_not_in_lowest_terms():
    rng = random.Random(17)
    for _ in range(10):
        M = random_dg_module(rng, max_gens=30)
        A = compute_at_model(M)
        scaled = ATModel(A.H, _scaled(A.f, 3), _scaled(A.g, 3), _scaled(A.phi, 3), A.pairs)
        report = check_at_model(M, scaled)
        assert all(ch.ok for ch in report), "\n".join(str(ch) for ch in report)
    # the corrupted homotopy above, every row scaled, the wrong entry as a row
    M = DGModule((("v0", 1), ("v1", 1), ("e", 0)),
                 {2: {1: Fraction(1), 0: Fraction(-1)}})
    A = compute_at_model(M)
    bad_phi = _scaled(A.phi, 3)
    bad_phi[1] = (3, {})
    bad = ATModel(A.H, _scaled(A.f, 3), _scaled(A.g, 3), bad_phi, A.pairs)
    assert [str(ch) for ch in check_at_model(M, bad)] == _CORRUPTED_REPORT


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


@pytest.mark.parametrize("diff,index", [
    ({5: {0: 1}}, 5), ({1: {7: 1}}, 7), ({1: {-1: 1}}, -1), ({-1: {0: 1}}, -1)],
    ids=("key-past-end", "term-past-end", "negative-term", "negative-key"))
def test_module_rejects_indices_outside_its_generators(diff, index):
    # a negative index would otherwise wrap round and blame the wrong generator
    with pytest.raises(ValueError, match=f"index {index} outside the generators"):
        DGModule((("a", 1), ("b", 0)), diff)


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
            assert M.generators[j][1] == M.generators[i][1] + 1
            touched.update((i, j))
        assert touched == set(range(len(M.generators)))


def test_class_counts_match_oracle():
    rng = random.Random(11)
    for _ in range(10):
        M = random_dg_module(rng, max_gens=30)
        A = compute_at_model(M)
        counts = Counter(M.generators[h][1] for h in A.H)
        for p, dim in module_homology_dims(M):
            assert counts.get(p, 0) == dim


def _lemma_pairs(M):
    """The persistence pairs of ``M`` with the declaration order as the
    filtration, by the pairing lemma: ``(i, j)``, ``j < i``, is a pair
    exactly when ``rk D[j:, :i] - rk D[j+1:, :i] - rk D[j:, :i-1] +
    rk D[j+1:, :i-1] = 1``, where ``D[r:, :c]`` is the differential on the
    columns ``<= c`` restricted to the rows ``>= r``.  Only degree
    ``deg i + 1`` rows can pair with column ``i``."""
    degrees = [d for _, d in M.generators]

    def rk(r, c):
        return rank_of_columns([{k: v for k, v in M.diff.get(m, {}).items() if k >= r}
                                for m in range(c + 1)])

    return {(i, j) for i in range(len(degrees)) for j in range(i)
            if degrees[j] == degrees[i] + 1
            and rk(j, i) - rk(j + 1, i) - rk(j, i - 1) + rk(j + 1, i - 1) == 1}


@given(st.integers(0, 10**9), st.integers(2, 40))
@settings(max_examples=25, deadline=None)
def test_the_pairs_are_the_persistence_pairs(seed, max_gens):
    M = random_dg_module(random.Random(seed), max_gens=max_gens)
    assert set(compute_at_model(M).pairs) == _lemma_pairs(M)


def test_killing_the_lowest_class_breaks_the_pairing_lemma(monkeypatch):
    # the sweep's one max picks the class to kill; min kills the lowest one,
    # which still contracts but pairs differently
    monkeypatch.setattr(at_model, "max", min, raising=False)
    rng = random.Random(5)
    modules = [random_dg_module(rng, max_gens=40) for _ in range(10)]
    assert any(set(compute_at_model(M).pairs) != _lemma_pairs(M) for M in modules)


def test_closed_generators_get_rows_of_their_own():
    # a and b are closed; c kills b, so the correction writes b's f and phi
    # rows in place, and no other row may change with them
    M = DGModule((("a", 1), ("b", 1), ("c", 0), ("e", 2)),
                 {2: {0: Fraction(1), 1: Fraction(2)}})
    A = compute_at_model(M)
    assert A.H == (0, 3) and A.pairs == ((2, 1),)
    assert A.phi == {0: (1, {}), 1: (2, {2: 1}), 2: (1, {}), 3: (1, {})}
    assert A.f[3] == A.g[3] == (1, {3: 1}) and A.g[0] == (1, {0: 1})
    for M in [M] + [random_dg_module(random.Random(s), max_gens=40) for s in range(8)]:
        A = compute_at_model(M)
        entries = [vals for table in (A.f, A.g, A.phi) for _, vals in table.values()]
        assert len({id(e) for e in entries}) == len(entries)
        assert not {id(e) for e in entries} & {id(vals) for _, vals in M.rows.values()}
        assert at_model._ZERO == (1, {})


# -- the linear extension ---------------------------------------------------------

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
    """The linear extension in Fraction arithmetic, one copy per term: the
    reference for the integer rows of row_apply."""
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
def test_row_apply_matches_the_fold(case):
    table, x = case
    rows = {k: int_row(v) for k, v in table.items()}
    before = copy.deepcopy(rows)
    den, out = got = row_apply(rows, int_row(x))
    assert got == int_row(_fold_apply(table, x))
    assert rows == before
    assert all(out is not image for _, image in rows.values())
    # in lowest terms, so equal vectors are equal rows
    assert den > 0 and all(v.__class__ is int and v for v in out.values())
    assert gcd(den, *out.values()) == 1


def test_module_tables_are_not_shared_or_written():
    rng = random.Random(2024)
    for _ in range(8):
        M = random_dg_module(rng, max_gens=40)
        before = copy.deepcopy(M.diff)
        assert validate_module(M) == []
        rows_before = copy.deepcopy(M.rows)
        A = compute_at_model(M)
        assert all(ch.ok for ch in check_at_model(M, A))
        assert M.diff == before and M.rows == rows_before
        rows = [*A.f.values(), *A.g.values(), *A.phi.values()]
        entries = [vals for _, vals in rows]
        assert len({id(e) for e in entries}) == len(entries)
        assert not {id(e) for e in entries} & {id(e) for e in M.diff.values()}
        assert not {id(e) for e in entries} & {id(vals) for _, vals in M.rows.values()}
        assert all(is_row(row) for row in rows)


def _scanning_at_model(M):
    """The sweep as it was before its reverse index: every pairing scans all
    earlier generators for the killed class."""
    H, in_h, f, g, phi, pairs = [], set(), {}, {}, {}, []
    one = Fraction(1)
    for i in range(len(M.generators)):
        di = M.diff.get(i, {})
        a = _fold_apply(f, di)
        b = lin_axpy({i: one}, -one, _fold_apply(phi, di))
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


def _rows(A):
    """A model whose tables hold coefficient maps, with every entry brought
    to a row by ``int_row``."""
    return ATModel(A.H, *({m: int_row(v) for m, v in table.items()}
                          for table in (A.f, A.g, A.phi)), A.pairs)


@given(st.integers(0, 10**9), st.integers(2, 80))
@settings(max_examples=60, deadline=None)
def test_indexed_corrections_match_the_scan(seed, max_gens):
    M = random_dg_module(random.Random(seed), max_gens=max_gens)
    A = compute_at_model(M)
    ref = _rows(_scanning_at_model(M))
    assert A == ref
    # entry by entry in the same key order, so the emitted text is the same too
    for table, expected in ((A.f, ref.f), (A.g, ref.g), (A.phi, ref.phi)):
        assert [list(table[m][1].items()) for m in table] == \
            [list(expected[m][1].items()) for m in expected]


# -- integer rows: exact, and free of Fraction arithmetic ------------------------

def _fraction_dd_nonzero(M):
    """The names of the generators x with d(d x) != 0, folded in Fractions."""
    bad = set()
    for i, dx in M.diff.items():
        ddx = {}
        for k, c in dx.items():
            ddx = _fold_add(ddx, {j: Fraction(c) * v for j, v in M.diff.get(k, {}).items()})
        if ddx:
            bad.add(M.name(i))
    return bad


def test_integer_dd_check_is_exact():
    # a perturbation of 1/(2^61 - 1), a prime that no pool denominator shares,
    # survives only in exact arithmetic; every d(d x) it reaches is nonzero
    tiny = Fraction(1, 2**61 - 1)
    reported_any = 0
    for seed in range(60):
        rng = random.Random(seed)
        M = random_dg_module(rng, max_gens=30)
        assert validate_module(M) == [] and not _fraction_dd_nonzero(M)
        if not M.diff:
            continue
        # perturb d of a generator that some other d mentions, where there is one
        used = sorted({k for dx in M.diff.values() for k in dx} & set(M.diff))
        i = rng.choice(used or sorted(M.diff))
        k = rng.choice(sorted(M.diff[i]))
        diff = {m: dict(dx) for m, dx in M.diff.items()}
        diff[i][k] += tiny
        bad = DGModule(M.generators, diff)
        reported = {msg[len("d(d("):-len(")) is nonzero")]
                    for msg in validate_module(bad) if msg.endswith(" is nonzero")}
        assert reported == _fraction_dd_nonzero(bad)
        reported_any += bool(reported)
    assert reported_any


_FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
    "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__",
    "__pos__", "__abs__")


def _at_model_text(M, A):
    """The ``at-model`` document of a model whose tables hold coefficient
    maps, each printed as a coefficient map."""
    n = range(len(M.generators))
    lines = ["H = {" + ", ".join(M.name(h) for h in A.H) + "}"]
    lines += [f"f {M.name(i)} = {format_linear(M, A.f[i])}" for i in n]
    lines += [f"g {M.name(h)} = {format_linear(M, A.g[h])}" for h in A.H]
    lines += [f"phi {M.name(i)} = {format_linear(M, A.phi[i])}" for i in n]
    lines += [f"pair {M.name(i)} {M.name(j)}" for i, j in A.pairs]
    return "\n".join(lines) + "\n"


def _refuse_fraction_arithmetic(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction arithmetic in the module layer")

    for name in _FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, refuse)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(refuse))


def test_module_layer_does_no_fraction_arithmetic(monkeypatch):
    M = random_dg_module(random.Random(5), max_gens=60)
    assert any(type(c) is Fraction for dx in M.diff.values() for c in dx.values())
    reference = _scanning_at_model(M)
    M = DGModule(M.generators, M.diff)  # no rows built yet

    # from a built module to stdout, no Fraction is made or computed with
    _refuse_fraction_arithmetic(monkeypatch)
    assert validate_module(M) == []
    A = compute_at_model(M)
    printed = _cmd_at_model(M, RunConfig("at-model", "module.sul"))
    monkeypatch.undo()
    assert A == _rows(reference)
    assert any(den != 1 for den, _ in A.phi.values())
    assert printed == (0, _at_model_text(M, reference), "")


def test_at_model_from_written_text_makes_no_fraction_and_lexes_nothing(monkeypatch, tmp_path):
    M = random_dg_module(random.Random(5), max_gens=60)
    reference = _scanning_at_model(M)
    path = tmp_path / "module.sul"
    path.write_text(written_module(M), encoding="utf-8")

    def refuse(*args):
        raise AssertionError("the token lexer on the at-model path")

    # from the written text to stdout: no Fraction, and no token cursor
    _refuse_fraction_arithmetic(monkeypatch)
    monkeypatch.setattr(dsl, "_lex", refuse)
    printed = run(RunConfig("at-model", str(path)))
    monkeypatch.undo()
    assert printed == (0, _at_model_text(M, reference), "")


def _homology_text_from_maps(M, max_degree):
    """``homology``'s listing of ``M``, ranked from its coefficient maps."""
    lines, below = [], 0
    for p in range(max_degree + 1):
        columns = [M.diff.get(i, {}) for i, (_, d) in enumerate(M.generators) if d == p]
        rank = rank_of_columns(columns)
        lines.append(f"H^{p}: {len(columns) - rank - below}\n")
        below = rank
    return "".join(lines)


def test_homology_of_written_text_makes_no_fraction(monkeypatch, tmp_path):
    M = random_dg_module(random.Random(5), max_gens=60)
    expected = _homology_text_from_maps(M, 10)
    path = tmp_path / "module.sul"
    path.write_text(written_module(M), encoding="utf-8")

    _refuse_fraction_arithmetic(monkeypatch)
    printed = run(RunConfig("homology", str(path)))
    monkeypatch.undo()
    assert printed == (0, expected, "")


@given(st.integers(0, 10**9), st.integers(2, 60))
@settings(max_examples=40, deadline=None)
def test_a_parsed_module_equals_the_module_built_from_its_maps(seed, max_gens):
    M = random_dg_module(random.Random(seed), max_gens=max_gens)
    parsed = parse(written_module(M))
    built = DGModule(M.generators, M.diff)
    assert parsed == built and built == parsed
    assert parsed.diff == built.diff == M.diff
    assert all(is_coefficient(c) for dx in parsed.diff.values() for c in dx.values())
    assert parsed.rows == built.rows and all(map(is_row, parsed.rows.values()))
    if M.diff:
        i = max(M.diff)
        other = {**M.diff, i: {k: 2 * c for k, c in M.diff[i].items()}}
        assert parsed != DGModule(M.generators, other)
    assert parsed != DGModule(M.generators + (("extra", 0),), M.diff)


def test_a_module_from_rows_drops_zero_rows_and_is_immutable():
    rows = {1: (2, {0: 1}), 2: (1, {})}
    M = DGModule.from_rows((("a", 1), ("b", 0), ("c", 0)), rows)
    assert M.rows == {1: (2, {0: 1})} and M.rows is not rows
    assert M.diff == {1: {0: Fraction(1, 2)}}
    assert M == DGModule((("a", 1), ("b", 0), ("c", 0)), {1: {0: Fraction(1, 2)}, 2: {}})
    with pytest.raises(AttributeError):
        M.generators = ()
