import copy
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_coefficient, mono
from sulmin.differential import DGAlgebra, Extension
from sulmin.dsl import emit_machine, emit_report, parse_expression, parse_machine
from sulmin.graded_algebra import (
    ONE_MONO,
    Signature,
    basis_monomials,
    elem_add,
    elem_gen,
    elem_mul,
    elem_one,
    elem_scale,
    elem_sub,
    mono_degree,
    mono_elem,
    mono_factors,
    mono_splits,
    mono_str,
)
from sulmin.homology_oracle import compare_cohomology, rank_of_columns
from sulmin.minimal_model import compute_minimal_model
from sulmin.random_inputs import random_sullivan_algebra
from sulmin.morphisms import (
    ContractionReport,
    FullContraction,
    IdentityCheck,
    check_contraction,
    homotopy_extension,
)

SIG = Signature.from_pairs([("b1", 1), ("c1", 1), ("v2", 2), ("a1", 1), ("u3", 3)])
B1, C1, V2, A1, U3 = range(5)


def expr(text, sig=SIG):
    return parse_expression(sig, text)


def _ex1_state():
    # projection/inclusion evaluators and the homotopy evaluator built on
    # them, from the tables right after the only pair step
    f = Extension(SIG, {B1: expr("b1"), C1: expr("c1"), V2: {}, A1: {}, U3: expr("u3")})
    g = Extension(SIG, {B1: expr("b1"), C1: expr("c1"), U3: expr("u3 - a1*v2")})
    phi = homotopy_extension(SIG, {B1: {}, C1: {}, V2: expr("a1"), A1: {}, U3: {}}, f, g)
    return f, g, phi


def test_multiplicative_kills_square_of_killed_generator():
    f, _, _ = _ex1_state()
    assert f.on_element(expr("v2^2")) == {}


def test_multiplicative_reads_table_verbatim_on_generators():
    _, g, _ = _ex1_state()
    assert g.on_element(expr("u3", )) == expr("u3 - a1*v2")


def test_identity_table_acts_as_identity():
    table = {i: elem_gen(SIG, i) for i in range(len(SIG))}
    x = expr("u3 - a1*v2 + 2*b1*c1")
    assert Extension(SIG, table).on_element(x) == x


def test_homotopy_on_even_square():
    _, _, phi = _ex1_state()
    # phi(v2^2) = v2*phi(v2) + phi(v2)*g(f(v2)) with f(v2) = 0
    assert phi.on_element(expr("v2^2")) == expr("a1*v2")


def test_homotopy_kills_scalars():
    _, _, phi = _ex1_state()
    assert phi.on_element(elem_one()) == {}
    assert phi.on_element({ONE_MONO: 3}) == {}


def test_homotopy_on_single_generator_is_table_entry():
    _, _, phi = _ex1_state()
    assert phi.on_element(expr("v2")) == expr("a1")


def test_degree_discipline():
    f, _, phi = _ex1_state()
    for p in range(1, 8):
        for m in basis_monomials(SIG, p):
            img = f.on_element({m: 1})
            if img:
                assert {mono_degree(SIG, m) for m in img} == {p}
            low = phi.on_element({m: 1})
            if low:
                assert {mono_degree(SIG, m) for m in low} == {p - 1}


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_homotopy_commutes_with_canonicalization(seed):
    # evaluating on a product equals evaluating on the sign-normalized product
    rng = random.Random(seed)
    _, _, phi = _ex1_state()
    p = rng.randint(1, 4)
    q = rng.randint(1, 4)

    def rand_homog(degree):
        basis = basis_monomials(SIG, degree)
        out = {}
        for m in rng.sample(basis, min(2, len(basis))):
            c = rng.randint(-2, 2)
            if c:
                out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}

    x = rand_homog(p)
    y = rand_homog(q)
    swap = -1 if (p % 2 and q % 2) else 1
    lhs = phi.on_element(elem_mul(SIG, x, y))
    rhs = phi.on_element(elem_scale(elem_mul(SIG, y, x), swap))
    assert lhs == rhs


def test_full_suite_passes_on_first_example(contractions):
    report = check_contraction(contractions["ex1"], 10)
    assert report.ok, str(report)


def test_identity_contraction_passes():
    sig = Signature.from_pairs([("a1", 1), ("v2", 2)])
    dga = DGAlgebra(sig, {})
    table = {i: elem_gen(sig, i) for i in range(len(sig))}
    zero = {i: {} for i in range(len(sig))}
    c = FullContraction(
        source=dga, W=(0, 1), dW={},
        f=table, g=table, phi=zero, pairs=())
    assert check_contraction(c, 8).ok


def test_corrupted_inclusion_is_detected(contractions):
    c = contractions["ex1"]
    bad_g = dict(c.g)
    bad_g[U3] = expr("u3", c.sig)
    corrupted = FullContraction(
        source=c.source, W=c.W, dW=c.dW, f=c.f,
        g=bad_g, phi=c.phi, pairs=c.pairs)
    report = check_contraction(corrupted, 8)
    failing = {ch.name: ch.counterexample for ch in report.checks if not ch.ok}
    assert "id - gf = phi d + d phi" in failing
    assert failing["id - gf = phi d + d phi"] == "u3"


def test_missing_homotopy_entry_is_zero_and_missing_map_entry_raises(contractions):
    # phi is a twisted derivation, so a generator absent from its table maps
    # to zero and the checker reports the broken identity; f and g are
    # algebra maps, which raise KeyError naming the absent generator
    c = contractions["ex1"]

    def without_v2(table):
        return {k: v for k, v in table.items() if k != V2}

    no_phi = FullContraction(source=c.source, W=c.W, dW=c.dW, f=c.f, g=c.g,
                             phi=without_v2(c.phi), pairs=c.pairs)
    report = check_contraction(no_phi, 8)
    failing = {ch.name: ch.counterexample for ch in report.checks if not ch.ok}
    assert failing["id - gf = phi d + d phi"] == "a1"
    no_f = FullContraction(source=c.source, W=c.W, dW=c.dW, f=without_v2(c.f), g=c.g,
                           phi=c.phi, pairs=c.pairs)
    with pytest.raises(KeyError, match="no image for generator v2"):
        check_contraction(no_f, 8)


def test_inclusion_injective_on_surviving_basis(contractions):
    for name in ("ex1", "ex3"):
        c = contractions[name]
        sig = c.sig
        g_ev = Extension(sig, c.g)
        for p in range(1, 8):
            basis = basis_monomials(sig, p, c.W)
            target = {m: k for k, m in enumerate(basis_monomials(sig, p))}
            cols = []
            for m in basis:
                img = g_ev.on_monomial(m)
                cols.append({target[mm]: cc for mm, cc in img.items()})
            assert rank_of_columns(cols) == len(basis)


def test_checker_leaves_shared_tables_untouched():
    # the evaluators hand out cached images and tables without copying, and
    # the contraction holds the sweep's own dicts, so a caller that mutated
    # one would corrupt later results; two checks of one model must agree,
    # and neither the checks nor emitting and re-reading the model may change
    # any table, whose coefficients keep the coefficient rule
    rng = random.Random(20261018)
    for _ in range(6):
        c = compute_minimal_model(random_sullivan_algebra(rng, max_gens=7))
        sig = c.sig
        tables = (c.f, c.g, c.phi, c.dW)
        before = copy.deepcopy(tables)
        # the sweep, the checker and the oracle share the source algebra's
        # d evaluator, so none of them may change an image another cached
        d_images = c.source.ev.cache
        swept = copy.deepcopy(d_images)
        first = check_contraction(c, 6)
        assert {m: d_images[m] for m in swept} == swept
        checked = copy.deepcopy(d_images)
        second = check_contraction(c, 6)
        assert first == second
        compare_cohomology((c.source, None), (c.model, c.W), 6)
        assert {m: d_images[m] for m in checked} == checked
        emit_report(c)
        parse_machine(emit_machine(c), c.sig)
        assert tables == before
        for table in tables:
            for image in table.values():
                assert all(is_coefficient(v) for v in image.values())
        # scaling a one-term element must not touch the cached monomial image,
        # under both rules of the one evaluator: algebra maps (f, g and a
        # pair-collapse substitution) and twisted derivations (dW with right
        # leg mono_elem, phi with right leg g f, and a pair homotopy whose
        # right leg is the substitution)
        f_ev, g_ev = Extension(sig, c.f), Extension(sig, c.g)
        subst_table = {k: elem_gen(sig, k) for k in range(len(sig))}
        subst_table[0] = elem_scale(subst_table[0], Fraction(-1, 2))
        subst = Extension(sig, subst_table)
        pair_phi = Extension(sig, {j: elem_gen(sig, i) for i, j in c.pairs}, subst.on_monomial)
        v_basis, w_basis = basis_monomials(sig, 4), basis_monomials(sig, 4, c.W)
        for ev, basis in ((f_ev, v_basis), (g_ev, w_basis), (Extension(sig, c.dW, mono_elem), w_basis),
                          (homotopy_extension(sig, c.phi, f_ev, g_ev), v_basis),
                          (subst, v_basis), (pair_phi, v_basis)):
            for m in basis:
                image = copy.deepcopy(ev.on_monomial(m))
                for coeff in (Fraction(-3, 2), Fraction(1), Fraction(2)):
                    assert ev.on_element({m: coeff}) == elem_scale(image, coeff)
                assert ev.on_monomial(m) == image
        assert tables == before


def _copy_fold(ev, x):
    # the linear extension on_element replaced: one copy of the sum per term
    out = {}
    for m, c in x.items():
        img = ev.on_monomial(m)
        if img:
            out = elem_add(out, elem_scale(img, c))
    return out


@given(st.integers(0, 10**9), st.data())
@settings(max_examples=30, deadline=None)
def test_on_element_folds_into_a_fresh_dict(seed, data):
    # on_element accumulates multi-term elements in place, so it must equal
    # the copy-per-term fold, hand back no table entry or cached image, and
    # leave the table and every cached image as they were; checked for an
    # algebra map (f, a pair-collapse substitution) and for derivations
    # (d, phi with right leg g f, a pair homotopy with the substitution as
    # its right leg)
    c = compute_minimal_model(random_sullivan_algebra(random.Random(seed), max_gens=7))
    sig = c.sig
    f_ev, g_ev = Extension(sig, c.f), Extension(sig, c.g)
    subst_table = {k: elem_gen(sig, k) for k in range(len(sig))}
    subst_table[0] = elem_scale(subst_table[0], Fraction(-1, 2))
    subst = Extension(sig, subst_table)
    coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)])
    bases = [b for b in (basis_monomials(sig, p) for p in range(1, 5)) if len(b) > 1]
    for ev in (f_ev, Extension(sig, c.source.diff, mono_elem),
               homotopy_extension(sig, c.phi, f_ev, g_ev), subst,
               Extension(sig, {j: elem_gen(sig, i) for i, j in c.pairs}, subst.on_monomial)):
        table = copy.deepcopy(dict(ev.table))
        elements = []
        for basis in bases:
            monos = data.draw(st.lists(st.sampled_from(basis), min_size=2, max_size=4, unique=True))
            elements.append({m: data.draw(coeffs) for m in monos})
        wants = [_copy_fold(ev, x) for x in elements]  # caches every image used
        cache = copy.deepcopy(ev.cache)
        for x, want in zip(elements, wants):
            got = ev.on_element(x)
            assert got == want
            assert all(got is not img for img in ev.cache.values())
            assert all(got is not img for img in ev.table.values())
        assert ev.cache == cache
        assert dict(ev.table) == table


def _reference_splits(sig, m):
    # split the written-out factor sequence of the factor list of m, and
    # pack both halves
    copies = []
    for i, e in mono_factors(sig, m):
        copies.extend([i] * e)
    for t in range(1, len(copies)):
        yield mono(sig, *_reference_pack(copies[:t])), mono(sig, *_reference_pack(copies[t:]))


def _reference_pack(copies):
    out = []
    for i in copies:
        if out and out[-1][0] == i:
            out[-1] = (i, out[-1][1] + 1)
        else:
            out.append((i, 1))
    return tuple(out)


_SPLIT_SIG = Signature.from_pairs([("a1", 1), ("v2", 2), ("b1", 1), ("w4", 4)])


@given(st.tuples(st.integers(0, 1), st.integers(0, 5), st.integers(0, 1), st.integers(0, 4)))
@settings(max_examples=200, deadline=None)
def test_splits_slice_as_the_expanded_sequence_does(exps):
    # every split of the written-out factor sequence, powers included, in
    # order, with both degrees
    m = mono(_SPLIT_SIG, *((i, e) for i, e in enumerate(exps) if e))
    total = mono_degree(_SPLIT_SIG, m)
    want = [(x, mono_degree(_SPLIT_SIG, x), y, total - mono_degree(_SPLIT_SIG, x))
            for x, y in _reference_splits(_SPLIT_SIG, m)]
    assert list(mono_splits(_SPLIT_SIG, m)) == want


def _reference_check_contraction(c, max_degree):
    # the subtract-and-test checker: every identity builds its residual and
    # tests it for zero, with fresh evaluators of its own and g f recomputed
    # wherever it is used
    sig = c.sig
    f_ev = Extension(sig, c.f)
    g_ev = Extension(sig, c.g)
    phi_ev = Extension(sig, c.phi, lambda r: g_ev.on_element(f_ev.on_monomial(r)))
    d_ev = Extension(sig, c.source.diff, mono_elem)
    dw_ev = Extension(sig, c.dW, mono_elem)
    v_basis = []
    for p in range(max_degree + 1):
        v_basis.extend(basis_monomials(sig, p, range(len(sig))))
    w_basis = [m for p in range(max_degree + 1) for m in basis_monomials(sig, p, c.W)]
    failures = {}

    def record(name, residual, m):
        if name not in failures and residual:
            failures[name] = mono_str(sig, m)

    for m in v_basis:
        me = mono_elem(m)
        fm = f_ev.on_monomial(m)
        dm = d_ev.on_monomial(m)
        phim = phi_ev.on_monomial(m)
        record("f phi = 0", f_ev.on_element(phim), m)
        record("phi phi = 0", phi_ev.on_element(phim), m)
        lhs = elem_sub(me, g_ev.on_element(fm))
        rhs = elem_add(phi_ev.on_element(dm), d_ev.on_element(phim))
        record("id - gf = phi d + d phi", elem_sub(lhs, rhs), m)
        record("f d = dW f", elem_sub(f_ev.on_element(dm), dw_ev.on_element(fm)), m)
    for m in w_basis:
        gm = g_ev.on_monomial(m)
        record("f g = id", elem_sub(f_ev.on_element(gm), mono_elem(m)), m)
        record("phi g = 0", phi_ev.on_element(gm), m)
        dwm = dw_ev.on_monomial(m)
        record("d g = g dW", elem_sub(d_ev.on_element(gm), g_ev.on_element(dwm)), m)
        record("dW dW = 0", dw_ev.on_element(dwm), m)

    def rule(u, v):
        left = elem_mul(sig, mono_elem(u), phi_ev.on_monomial(v))
        if mono_degree(sig, u) % 2:
            left = elem_scale(left, -1)
        phi_u = phi_ev.on_monomial(u)
        if not phi_u:
            return left
        return elem_add(left, elem_mul(sig, phi_u, g_ev.on_element(f_ev.on_monomial(v))))

    for m in v_basis:
        fm = f_ev.on_monomial(m)
        phim = phi_ev.on_monomial(m)
        for x, y in _reference_splits(sig, m):
            swap = -1 if (mono_degree(sig, x) % 2 and mono_degree(sig, y) % 2) else 1
            fx, fy = f_ev.on_monomial(x), f_ev.on_monomial(y)
            record("f mu = mu (f x f)", elem_sub(fm, elem_mul(sig, fx, fy)), m)
            record("f mu = mu (f x f)", elem_sub(elem_scale(fm, swap), elem_mul(sig, fy, fx)), m)
            record("phi mu rule", elem_sub(phim, rule(x, y)), m)
            record("phi mu rule", elem_sub(elem_scale(phim, swap), rule(y, x)), m)

    names = [
        "f g = id", "f phi = 0", "phi g = 0", "phi phi = 0",
        "id - gf = phi d + d phi", "f d = dW f", "d g = g dW", "dW dW = 0",
        "f mu = mu (f x f)", "phi mu rule",
    ]
    return ContractionReport(tuple(
        IdentityCheck(n, n not in failures, failures.get(n)) for n in names))


def _mutants(c, rng):
    # one perturbed entry each in f, g, phi and dW: a survivor generator w is
    # added to the image, so every evaluator the checker runs stays defined
    # (f and dW images stay in the surviving subalgebra) and the perturbed
    # contraction breaks at least one identity
    sig = c.sig
    w = elem_gen(sig, rng.choice(c.W))
    for field, keys in (("f", sorted(c.f)), ("g", sorted(c.g)),
                        ("phi", sorted(c.phi)), ("dW", list(c.W))):
        table = dict(getattr(c, field))
        k = rng.choice(keys)
        table[k] = elem_add(table.get(k, {}), w)
        yield field, replace(c, **{field: table})


def test_equality_checker_matches_subtract_and_test_reference():
    # every identity now compares canonical elements instead of testing a
    # residual for zero, and reads d, the bases and g f from shared caches;
    # on random models and on one-entry mutants of each table the reports
    # must agree in every flag and every first counterexample
    rng = random.Random(20261018)
    models = 0
    while models < 15:
        c = compute_minimal_model(random_sullivan_algebra(rng, max_gens=7))
        if not c.W:
            continue
        models += 1
        assert check_contraction(c, 6) == _reference_check_contraction(c, 6)
        for field, mutant in _mutants(c, rng):
            report = check_contraction(mutant, 6)
            assert report == _reference_check_contraction(mutant, 6), field
            assert not report.ok, field
