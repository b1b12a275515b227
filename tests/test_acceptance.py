"""Acceptance suite: one test per criterion, one printed pass/fail line each.

All equalities are exact rational arithmetic; there are no tolerances
anywhere.  Criterion 5 asserts the complete contraction-identity list
including the homotopy-side identities built on the product extension of
phi; those are structurally unsatisfiable once two collapse pairs interact
(see the obstruction test in test_minimal_model.py and the known-limits
section of the README), so that single criterion fails honestly on such
inputs while the projection-side identities are asserted to hold everywhere.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from sulmin.at_model import check_at_model, compute_at_model
from sulmin.differential import DGAlgebra, Extension
from sulmin.dsl import (
    DslError,
    emit_machine,
    parse,
    parse_expression,
    parse_machine,
    render_machine,
)
from sulmin.graded_algebra import (
    basis_monomials,
    elem_add,
    elem_mul,
    elem_one,
    elem_scale,
    in_lambda_geq2,
)
from sulmin.homology_oracle import compare_cohomology, module_homology_dims
from sulmin.minimal_model import compute_minimal_model
from sulmin.morphisms import check_contraction, homotopy_extension
from sulmin.random_inputs import (
    random_dg_module,
    random_homogeneous_element,
    random_sullivan_algebra,
)

SEED = 20260810
RANDOM_ALGEBRA_COUNT = 25


def _report(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def random_algebras():
    rng = random.Random(SEED)
    return [random_sullivan_algebra(rng) for _ in range(RANDOM_ALGEBRA_COUNT)]


@pytest.fixture(scope="module")
def random_contractions(random_algebras):
    return [compute_minimal_model(dga) for dga in random_algebras]


def test_criterion_1_five_generator_golden(contractions):
    c = contractions["ex1"]
    sig = c.sig
    e = lambda t: parse_expression(sig, t)
    ok = (
        [sig.name(w) for w in c.W] == ["b1", "c1", "u3"]
        and all(c.dW.get(w, {}) == {} for w in c.W)
        and c.f[sig.by_name("v2").index] == {}
        and c.phi[sig.by_name("v2").index] == e("a1")
        and c.g[sig.by_name("u3").index] == e("u3 - a1*v2")
        and [(sig.name(i), sig.name(j)) for i, j in c.pairs] == [("a1", "v2")]
    )
    assert _report(1, "five-generator golden table", ok)


def test_criterion_2_ten_generator_golden(contractions):
    c = contractions["ex3"]
    sig = c.sig
    e = lambda t: parse_expression(sig, t)

    def entry(kind, name):
        tables = {"f": c.f, "g": c.g, "dW": c.dW}
        return tables[kind].get(sig.by_name(name).index, {})

    ok = (
        entry("f", "v2") == e("2*a1*b1 - 2*b1*c1")
        and entry("dW", "y1") == e("2*a1*b1 - 2*a1*c1 - 4*b1*c1")
        and entry("dW", "p2") == e("-4*a1*b1*c1")
        and entry("dW", "r2") == e("4*a1*b1*c1")
        and entry("g", "u3") == e("u3 - x1*v2 - 2*a1*b1*x1 + 2*b1*c1*x1")
    )
    assert _report(2, "ten-generator golden table", ok)


def test_criterion_3_even_ladder_golden(contractions):
    c = contractions["ex4"]
    sig = c.sig
    e = lambda t: parse_expression(sig, t)

    def entry(kind, name):
        tables = {"f": c.f, "phi": c.phi, "dW": c.dW}
        return tables[kind].get(sig.by_name(name).index, {})

    ok = (
        [sig.name(w) for w in c.W] == ["v2", "v4", "x5", "x7"]
        and entry("f", "w2") == e("-v2")
        and entry("f", "w4") == e("v2^2 - v4")
        and entry("phi", "w4") == e("-v2*x1 + x3")
        and entry("dW", "x5") == e("v2^3 - 2*v2*v4")
        and entry("dW", "x7") == e("v2^2*v4 - v4^2")
    )
    assert _report(3, "even-ladder golden table", ok)


def test_criterion_4_shared_target_consistency(contractions):
    c = contractions["ex2"]
    sig = c.sig
    e = lambda t: parse_expression(sig, t)
    ok = (
        [sig.name(w) for w in c.W] == ["b1", "c1", "u3"]
        and all(c.dW.get(w, {}) == {} for w in c.W)
        and c.g[sig.by_name("b1").index] == e("b1 - a1")
        and c.g[sig.by_name("c1").index] == e("c1 - a1")
    )
    assert _report(4, "shared-target consistency", ok)


def test_criterion_5_contraction_identity_suite(contractions, random_contractions):
    failures = []
    for name, c in contractions.items():
        report = check_contraction(c, 10)
        for ch in report.checks:
            if not ch.ok:
                failures.append((name, ch.name, ch.counterexample))
    for k, c in enumerate(random_contractions):
        report = check_contraction(c, 10)
        for ch in report.checks:
            if not ch.ok:
                failures.append((f"random[{k}]", ch.name, ch.counterexample))
    ok = not failures
    _report(5, "contraction-identity suite", ok)
    assert ok, (
        "the homotopy-side identities cannot hold on inputs whose collapse "
        "pairs interact: no generator table satisfies the product-level "
        f"homotopy identity there; failures: {failures}")


def test_criterion_6_minimality_and_square_zero(contractions, random_contractions):
    ok = True
    everything = list(contractions.values()) + list(random_contractions)
    for c in everything:
        sig = c.sig
        derived = DGAlgebra(sig, c.dW)
        for w in c.W:
            dw = c.dW.get(w, {})
            ok = ok and in_lambda_geq2(sig, dw, c.W)
            ok = ok and derived.ev.on_element(dw) == {}
    assert _report(6, "minimality and square-zero", ok)


def test_criterion_7_cohomology_oracle_equivalence(
        algebras, contractions, random_algebras, random_contractions):
    ok = True
    pairs = [(algebras[k], contractions[k]) for k in contractions]
    pairs += list(zip(random_algebras, random_contractions))
    for dga, c in pairs:
        report = compare_cohomology(
            (dga, None), (DGAlgebra(c.sig, c.dW), c.W), 10)
        ok = ok and report.equal
    assert _report(7, "cohomology oracle equivalence", ok)


def test_criterion_8_module_contractions():
    rng = random.Random(SEED + 1)
    ok = True
    for _ in range(25):
        M = random_dg_module(rng, max_gens=30)
        A = compute_at_model(M)
        ok = ok and all(ch.ok for ch in check_at_model(M, A))
        counts = Counter(M.generators[h][1] for h in A.H)
        for p, dim in module_homology_dims(M):
            ok = ok and counts.get(p, 0) == dim
    assert _report(8, "module contraction correctness", ok)


def test_criterion_9_algebra_law_suite():
    rng = random.Random(SEED + 2)
    dga = parse(
        "gen a1:1\ngen b1:1\ngen v2:2\ngen x1:1\ngen w2:2\ngen u3:3\n"
        "d x1 = v2 - 2*a1*b1\nd u3 = v2^2\n")
    sig = dga.sig
    c = compute_minimal_model(dga)
    phi_ev = homotopy_extension(sig, c.phi, Extension(sig, c.f), Extension(sig, c.g))
    cases = 0
    ok = True
    while cases < 1000:
        p = rng.randint(0, 4)
        q = rng.randint(0, 4)
        r = rng.randint(0, 4)
        x = random_homogeneous_element(rng, sig, p)
        y = random_homogeneous_element(rng, sig, q)
        z = random_homogeneous_element(rng, sig, r)
        swap = -1 if (p % 2 and q % 2) else 1
        ok = ok and elem_mul(sig, elem_mul(sig, x, y), z) == \
            elem_mul(sig, x, elem_mul(sig, y, z))
        ok = ok and elem_mul(sig, x, y) == elem_scale(elem_mul(sig, y, x), swap)
        ok = ok and elem_mul(sig, elem_one(), x) == x
        ok = ok and elem_mul(sig, x, elem_one()) == x
        lhs = dga.ev.on_element(elem_mul(sig, x, y))
        rhs = elem_add(
            elem_mul(sig, dga.ev.on_element(x), y),
            elem_scale(elem_mul(sig, x, dga.ev.on_element(y)), (-1) ** p))
        ok = ok and lhs == rhs
        hx = phi_ev.on_element(elem_mul(sig, x, y))
        hy = phi_ev.on_element(elem_scale(elem_mul(sig, y, x), swap))
        ok = ok and hx == hy
        cases += 6
    assert _report(9, f"algebra-law suite ({cases} cases)", ok)


def test_criterion_10_dsl_round_trip(contractions, random_contractions):
    ok = True
    for c in list(contractions.values()) + list(random_contractions):
        doc = emit_machine(c)
        again = render_machine(c.sig, parse_machine(doc, c.sig))
        ok = ok and again == doc
    malformed = [
        ("gen a1\n", 1, 7),
        ("gen a1:\n", 1, 8),
        ("gen a1:0\n", 1, 8),
        ("d a1 = v2\n", 1, 3),
        ("gen a1:1\ngen a1:2\n", 2, 5),
        ("gen a1:1\nd a1 = @\n", 2, 8),
        ("gen a1:1\nd a1 = v2\n", 2, 8),
        ("gen v2:2\nd v2 = 1/0\n", 2, 10),
        ("gen v2:2\nd v2 = v2 +\n", 2, 12),
        ("mode module\ngen x:1\ngen y:2\nd y = x*x\n", 4, 8),
    ]
    for text, line, col in malformed:
        try:
            parse(text)
            ok = False
        except DslError as err:
            ok = ok and (err.line, err.col) == (line, col)
    assert _report(10, "text format round-trip and diagnostics", ok)
