import copy
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INPUTS, PLANTED, is_coefficient, mono, random_homogeneous_element
from sulmin import morphisms
from sulmin.differential import DGAlgebra, Extension
from sulmin.dsl import (
    emit_machine, emit_report, format_element, parse, parse_expression, parse_machine)
from sulmin.graded_algebra import (
    ONE_MONO,
    Signature,
    basis_monomials,
    basis_splits,
    elem_add,
    elem_gen,
    elem_mul,
    elem_one,
    elem_scale,
    elem_sub,
    mono_degree,
    mono_elem,
    mono_factors,
    mono_gen,
    mono_str,
    subset_test,
)
from sulmin.homology_oracle import cohomology_dims, compare_dims, rank_of_columns
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


def test_a_failed_identity_is_not_evaluated_again(contractions, monkeypatch):
    # ex4 and nested_pair fail id - gf below the cap, and only that identity
    # evaluates phi on d(m), of degree cap + 1; once it has failed, the
    # checker leaves phi's cache without a monomial above the cap
    kept = []

    def keep(*args):
        kept.append(homotopy_extension(*args))
        return kept[-1]

    monkeypatch.setattr(morphisms, "homotopy_extension", keep)
    for name in ("ex4", "nested"):
        c = contractions[name]
        report = check_contraction(c, 8)
        failing = {ch.name for ch in report.checks if not ch.ok}
        assert "id - gf = phi d + d phi" in failing, name
        assert max(mono_degree(c.sig, m) for m in kept.pop().cache) <= 8, name


def test_inclusion_injective_on_surviving_basis(contractions):
    for name in ("ex1", "ex3"):
        c = contractions[name]
        sig = c.sig
        g_ev = Extension(sig, c.g)
        for p in range(1, 8):
            basis = list(filter(subset_test(sig, c.W), basis_monomials(sig, p)))
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
        compare_dims(cohomology_dims(c.source, None, 6), cohomology_dims(c.model, c.W, 6))
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
        v_basis = basis_monomials(sig, 4)
        w_basis = list(filter(subset_test(sig, c.W), v_basis))
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
    # on_element accumulates every element in place, one term or many, so
    # it must equal the copy-per-term fold, hand back no table entry or
    # cached image (not even for one term with coefficient 1), and leave the
    # table and every cached image as they were; checked for an algebra map
    # (f, a pair-collapse substitution) and for derivations (d, phi with
    # right leg g f, a pair homotopy with the substitution as its right leg)
    c = compute_minimal_model(random_sullivan_algebra(random.Random(seed), max_gens=7))
    sig = c.sig
    f_ev, g_ev = Extension(sig, c.f), Extension(sig, c.g)
    subst_table = {k: elem_gen(sig, k) for k in range(len(sig))}
    subst_table[0] = elem_scale(subst_table[0], Fraction(-1, 2))
    subst = Extension(sig, subst_table)
    coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)])
    bases = [b for b in (basis_monomials(sig, p) for p in range(1, 5)) if b]
    for ev in (f_ev, Extension(sig, c.source.diff, mono_elem),
               homotopy_extension(sig, c.phi, f_ev, g_ev), subst,
               Extension(sig, {j: elem_gen(sig, i) for i, j in c.pairs}, subst.on_monomial)):
        table = copy.deepcopy(dict(ev.table))
        elements = []
        for basis in bases:
            monos = data.draw(st.lists(st.sampled_from(basis), min_size=1, max_size=4, unique=True))
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
    assert basis_splits(_SPLIT_SIG, total)[m] == want


def test_basis_splits_list_every_basis_monomial_as_the_reference_does(algebras):
    # the memoised lists, each built from its suffix's list, key the full
    # bases in order and equal the splits derived from the factor list
    for name, dga in algebras.items():
        sig = dga.sig
        splits = basis_splits(sig, 8)
        assert list(splits) == [m for p in range(9) for m in basis_monomials(sig, p)], name
        for m, got in splits.items():
            want = [(x, mono_degree(sig, x), y, mono_degree(sig, y))
                    for x, y in _reference_splits(sig, m)]
            assert got == want, (name, mono_str(sig, m))


def _arbitrary_table(rng, sig):
    """An ``f`` table of random elements of any degrees, unit and zero
    included, so it need not preserve degree or its parity."""
    table = {}
    for i in range(len(sig)):
        x = {}
        for _ in range(rng.randint(0, 2)):
            x.update(random_homogeneous_element(rng, sig, rng.randint(0, 3)))
        table[i] = x
    return table


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_a_map_is_multiplicative_on_every_split_in_the_canonical_order(seed):
    # the evaluator builds f(m) as the product of its letters' images in the
    # canonical order, which a split (x, y) cuts without reordering, so
    # f(x*y) = f(x) f(y) by associativity for any table: this is why
    # check_contraction tests f mu in the reverse order only
    rng = random.Random(seed)
    sig = Signature.from_pairs(
        (f"x{i}", rng.randint(1, 3)) for i in range(rng.randint(1, 5)))
    f_ev = Extension(sig, _arbitrary_table(rng, sig))
    for p in range(6):
        for m in basis_monomials(sig, p):
            fm = f_ev.on_monomial(m)
            for x, y in _reference_splits(sig, m):
                assert elem_mul(sig, f_ev.on_monomial(x), f_ev.on_monomial(y)) == fm


def test_the_forward_phi_rule_needs_a_g_that_preserves_degree():
    # three odd generators, f swapping b and c.  With g(c) = a*c, of even
    # degree, gf(b*c) = a*b*c while gf(b) gf(c) = -a*b*c, and the two-leg
    # phi breaks its own rule at a*b*c on the canonical split a*b | c; with
    # g(c) = c it holds.  A table given to check_contraction from outside
    # need not preserve degree, so the checker keeps the forward order of
    # the phi mu rule
    sig = Signature.from_pairs([("a", 1), ("b", 1), ("c", 1)])
    a, b, c = (elem_gen(sig, i) for i in range(3))
    ab, abc = mono(sig, (0, 1), (1, 1)), mono(sig, (0, 1), (1, 1), (2, 1))
    f_ev = Extension(sig, {0: a, 1: c, 2: b})
    for g_c, holds in ((elem_mul(sig, a, c), False), (c, True)):
        g_ev = Extension(sig, {0: a, 1: b, 2: g_c})
        phi_ev = homotopy_extension(sig, {0: elem_one()}, f_ev, g_ev)
        # phi(u*v) = (-1)^{|u|} u*phi(v) + phi(u)*gf(v), u = a*b of even degree
        rule = elem_add(elem_mul(sig, mono_elem(ab), phi_ev.on_element(c)),
                        elem_mul(sig, phi_ev.on_monomial(ab), phi_ev.right(mono_gen(sig, 2))))
        assert (phi_ev.on_monomial(abc) == rule) is holds
        if not holds:
            assert phi_ev.on_monomial(abc) == mono_elem(abc)
            assert rule == {abc: -1}


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
    # a fresh signature packs alike and enumerates its bases afresh
    fresh = Signature(sig.generators)
    v_basis = [m for p in range(max_degree + 1) for m in basis_monomials(fresh, p)]
    w_basis = list(filter(subset_test(sig, c.W), v_basis))
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


def _zeroing_mutants(c, rng):
    # one nonzero entry emptied in each of f and g (at a survivor), phi and
    # dW, and one empty phi entry made nonzero: these put a zero operand
    # against a nonzero other side, which the checker tests as the emptiness
    # of that side in the phi identities and as a plain equality in the
    # others.  Two cases never meet one: f is an algebra map, so a zero f(x)
    # makes f(x*y) zero for any table (the evaluator multiplies the images
    # of its letters in order), and phi satisfies its two-leg rule on every
    # split in the canonical order when g preserves degree, as every g here
    # does (an emptied entry is of every degree), so zero phi(x) and phi(y)
    # make phi(x*y) zero
    sig = c.sig
    for field, keys in (("f", c.W), ("g", c.W), ("phi", sorted(c.phi)), ("dW", c.W)):
        table = getattr(c, field)
        nonzero = [k for k in keys if table.get(k)]
        if nonzero:
            table = dict(table)
            table[rng.choice(nonzero)] = {}
            yield field, replace(c, **{field: table})
    empty = [k for k in range(len(sig)) if not c.phi.get(k)]
    if empty:
        phi = dict(c.phi)
        phi[rng.choice(empty)] = elem_gen(sig, rng.randrange(len(sig)))
        yield "phi on a zero entry", replace(c, phi=phi)


def test_zero_operand_shortcuts_match_subtract_and_test_reference(contractions):
    # on random models, the bundled algebras and the planted inputs (whose
    # identities fail), and on their zeroing mutants, the reports must agree
    # with the reference in every flag and every first counterexample
    rng = random.Random(20261019)
    models = list(contractions.values())
    models += [compute_minimal_model(parse(text)) for text in PLANTED]
    draws = []
    while len(draws) < 12:
        c = compute_minimal_model(random_sullivan_algebra(rng, max_gens=7))
        if c.W:
            draws.append(c)
    models += draws
    kinds = set()
    for c in models:
        assert check_contraction(c, 6) == _reference_check_contraction(c, 6)
        for kind, mutant in _zeroing_mutants(c, rng):
            kinds.add(kind)
            assert check_contraction(mutant, 6) == _reference_check_contraction(mutant, 6), kind
    assert kinds == {"f", "g", "phi", "dW", "phi on a zero entry"}


_ON_GENERATORS = {"f d = dW f", "f g = id", "d g = g dW", "dW dW = 0"}


def _graded_mutants(c, rng):
    # one entry of f, g and dW plus a monomial of the entry's own degree,
    # taken in the survivor subalgebra for f and dW, so the tables keep the
    # precondition of the generator checks and those checks decide
    sig = c.sig
    in_w = subset_test(sig, c.W)
    for field, keys, shift, keep in (("f", range(len(sig)), 0, in_w),
                                     ("g", c.W, 0, lambda m: True), ("dW", c.W, 1, in_w)):
        choices = [(k, m) for k in keys
                   for m in basis_monomials(sig, sig.degree(k) + shift) if keep(m)]
        if choices:
            k, m = rng.choice(choices)
            table = dict(getattr(c, field))
            table[k] = elem_add(table.get(k, {}), {m: rng.choice((1, -1, 2))})
            yield field, replace(c, **{field: table})


def _proved(c, max_degree):
    sig = c.sig
    return morphisms._proved_on_generators(
        c, max_degree, Extension(sig, c.f), Extension(sig, c.g), c.source.ev, c.model.ev)


def test_degree_preserving_mutants_match_subtract_and_test_reference(contractions):
    # a mutant that keeps every degree passes the precondition, so an
    # identity that fails on a generator is scanned from the first basis
    # monomial; its report must equal the reference's, and each of the four
    # identities checked on generators must be broken somewhere
    rng = random.Random(20261021)
    models = list(contractions.values())
    models += [compute_minimal_model(parse(text)) for text in PLANTED]
    draws = []
    while len(draws) < 12:
        c = compute_minimal_model(random_sullivan_algebra(rng, max_gens=7))
        if c.W:
            draws.append(c)
    models += draws
    broken = set()
    for c in models:
        for field, mutant in _graded_mutants(c, rng):
            proved = _proved(mutant, 6)
            assert proved is not None, field
            report = check_contraction(mutant, 6)
            assert report == _reference_check_contraction(mutant, 6), field
            failing = {ch.name for ch in report.checks if not ch.ok}
            assert failing & _ON_GENERATORS == _ON_GENERATORS - set(proved), field
            broken |= failing & _ON_GENERATORS
    assert broken == _ON_GENERATORS


def test_phi_free_identities_are_decided_on_generators(contractions, monkeypatch):
    # elem_mul's one caller in the checker is the f mu scan, which the
    # precondition makes needless; every sweep output here settles all five
    # phi-free identities on generators, so none reaches the fallback scan.
    # An f entry that breaks its generator's degree parity fails the
    # precondition, and every identity is scanned
    calls = []

    def counting(*args):
        calls.append(args)
        return elem_mul(*args)

    monkeypatch.setattr(morphisms, "elem_mul", counting)
    rng = random.Random(20261022)
    models = list(contractions.values())
    while len(models) < 12:
        models.append(compute_minimal_model(random_sullivan_algebra(rng, max_gens=7)))
    for c in models:
        assert set(_proved(c, 6)) == _ON_GENERATORS | {"f mu = mu (f x f)"}
        check_contraction(c, 6)
    assert not calls
    c = contractions["ex1"]
    f = dict(c.f)
    f[B1] = elem_add(f[B1], expr("b1*c1", c.sig))
    mutant = replace(c, f=f)
    assert _proved(mutant, 6) is None
    report = check_contraction(mutant, 6)
    assert calls
    assert report == _reference_check_contraction(mutant, 6)


def _phi_mutants(c, rng):
    # each phi entry, in turn, plus a monomial of the entry's own degree
    # |v| - 1 (the unit for a degree-1 generator), where that degree has a
    # basis: phi enters no precondition, so every mutant is checked on the
    # head cut only
    sig = c.sig
    for v in range(len(sig)):
        basis = basis_monomials(sig, sig.degree(v) - 1)
        if not basis:
            continue
        phi = dict(c.phi)
        phi[v] = elem_add(phi.get(v, {}), {rng.choice(basis): rng.choice((1, -1, 2))})
        yield replace(c, phi=phi)


def test_phi_mutants_match_the_reference_on_every_cut(contractions):
    # the head cut alone finds the first monomial that fails the phi mu rule
    # on any cut, and f phi = 0 decided on generators fails exactly when the
    # scan does: on the bundled algebras, the planted inputs and random
    # draws, each one-entry phi mutant's report equals the reference's,
    # which tests every cut in both orders and f phi on every monomial
    rng = random.Random(20261023)
    models = list(contractions.values())
    models += [compute_minimal_model(parse(text)) for text in PLANTED]
    draws = []
    while len(draws) < 12:
        c = compute_minimal_model(random_sullivan_algebra(rng, max_gens=7))
        if c.W:
            draws.append(c)
    models += draws
    failing = Counter()
    mutants = 0
    for c in models:
        for mutant in _phi_mutants(c, rng):
            mutants += 1
            assert _proved(mutant, 6) is not None
            report = check_contraction(mutant, 6)
            assert report == _reference_check_contraction(mutant, 6)
            failing.update(ch.name for ch in report.checks if not ch.ok)
    assert mutants >= 100
    assert failing["phi mu rule"] and failing["f phi = 0"]


def test_only_the_fallback_lists_every_cut(contractions, monkeypatch):
    # under the precondition the checker tests the head cut of each
    # monomial and never builds basis_splits; an f entry that breaks its
    # generator's degree parity fails the precondition, and the fallback
    # tests every cut
    calls = []

    def counting(*args):
        calls.append(args)
        return basis_splits(*args)

    monkeypatch.setattr(morphisms, "basis_splits", counting)
    rng = random.Random(20261024)
    models = list(contractions.values())
    while len(models) < 12:
        models.append(compute_minimal_model(random_sullivan_algebra(rng, max_gens=7)))
    for c in models:
        check_contraction(c, 6)
    assert not calls
    c = contractions["ex1"]
    f = dict(c.f)
    f[B1] = elem_add(f[B1], expr("b1*c1", c.sig))
    mutant = replace(c, f=f)
    assert check_contraction(mutant, 6) == _reference_check_contraction(mutant, 6)
    assert calls


def test_the_readme_library_snippets_run_as_stated(monkeypatch, capsys):
    # the Library section's code blocks, run as written from the repository
    # root; the second one evaluates the derivation leg of Extension
    root = INPUTS.parent
    library = (root / "README.md").read_text(encoding="utf-8").split("## Library")[1]
    blocks = re.findall(r"```python\n(.*?)```", library.split("\n## ")[0], re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(root)
    scope = {}
    for block in blocks:
        exec(block, scope)
    c = scope["c"]
    assert capsys.readouterr().out.splitlines()[0] == "['b1', 'c1', 'u3']"
    assert check_contraction(c, 10).ok
    assert c.phi[2] == {mono_gen(c.sig, 3): 1}
    v2_squared = parse_expression(c.sig, "v2^2")
    assert format_element(c.sig, scope["phi_ev"].on_element(v2_squared)) == "v2*a1"
