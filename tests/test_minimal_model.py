import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import mono
from sulmin.at_model import DGModule, compute_at_model
from sulmin.differential import Extension
from sulmin.dsl import emit_report, parse, parse_expression
from sulmin.graded_algebra import (
    elem_add,
    elem_gen,
    elem_mul,
    elem_scale,
    elem_sub,
    in_lambda_geq2,
    linear_part,
    mono_elem,
    mono_factors,
)
from sulmin.minimal_model import (
    InternalInvariantError,
    SullivanValidationError,
    compute_minimal_model,
)
from sulmin.morphisms import FullContraction, check_contraction, homotopy_extension
from sulmin.random_inputs import random_sullivan_algebra

# identities that hold for every run; the homotopy-side ones involving the
# product extension of phi are obstructed once collapse pairs interact (see
# the obstruction test at the bottom), so they are asserted per input instead
STRUCTURAL = (
    "f g = id", "f phi = 0", "f d = dW f", "d g = g dW",
    "dW dW = 0", "f mu = mu (f x f)",
)


def names(c, indices):
    return [c.sig.name(i) for i in indices]


def table(c, kind, name):
    sig = c.sig
    idx = sig.by_name(name).index
    return {"f": c.f, "g": c.g, "phi": c.phi, "dW": c.dW}[kind].get(idx, {})


def test_five_generator_golden_table(contractions):
    c = contractions["ex1"]
    sig = c.sig
    e = lambda t: parse_expression(sig, t)
    assert names(c, c.W) == ["b1", "c1", "u3"]
    assert all(c.dW.get(w, {}) == {} for w in c.W)
    assert table(c, "f", "v2") == {}
    assert table(c, "f", "a1") == {}
    assert table(c, "phi", "v2") == e("a1")
    assert table(c, "g", "u3") == e("u3 - a1*v2")
    assert table(c, "g", "b1") == e("b1")
    assert [(sig.name(i), sig.name(j)) for i, j in c.pairs] == [("a1", "v2")]


def test_shared_target_golden_table(contractions):
    c = contractions["ex2"]
    sig = c.sig
    e = lambda t: parse_expression(sig, t)
    assert names(c, c.W) == ["b1", "c1", "u3"]
    assert all(c.dW.get(w, {}) == {} for w in c.W)
    assert table(c, "g", "b1") == e("b1 - a1")
    assert table(c, "g", "c1") == e("c1 - a1")
    assert table(c, "g", "u3") == e("u3 - a1*v2")
    assert table(c, "phi", "v2") == e("a1")
    assert [(sig.name(i), sig.name(j)) for i, j in c.pairs] == [("a1", "v2")]


def test_ten_generator_golden_table(contractions):
    c = contractions["ex3"]
    sig = c.sig
    e = lambda t: parse_expression(sig, t)
    assert names(c, c.W) == ["a1", "b1", "c1", "y1", "p2", "q2", "r2", "u3"]
    assert table(c, "f", "v2") == e("2*a1*b1 - 2*b1*c1")
    assert table(c, "phi", "v2") == e("x1")
    assert table(c, "g", "y1") == e("y1 - x1")
    assert table(c, "g", "u3") == e("u3 - x1*v2 - 2*a1*b1*x1 + 2*b1*c1*x1")
    assert table(c, "dW", "y1") == e("2*a1*b1 - 2*a1*c1 - 4*b1*c1")
    assert table(c, "dW", "p2") == e("-4*a1*b1*c1")
    assert table(c, "dW", "r2") == e("4*a1*b1*c1")
    assert table(c, "dW", "q2") == {}
    assert table(c, "dW", "u3") == {}
    # the printed source table negates these inclusion corrections, but the
    # chain identity d(g(w)) = g(dW(w)) pins the sign computed here
    assert table(c, "g", "p2") == e("p2 + 2*a1*x1")
    assert table(c, "g", "q2") == e("q2 + 2*b1*x1")
    assert table(c, "g", "r2") == e("r2 + 2*c1*x1")
    assert [(sig.name(i), sig.name(j)) for i, j in c.pairs] == [("x1", "v2")]


def test_even_ladder_golden_table(contractions):
    c = contractions["ex4"]
    sig = c.sig
    e = lambda t: parse_expression(sig, t)
    assert names(c, c.W) == ["v2", "v4", "x5", "x7"]
    assert table(c, "f", "w2") == e("-v2")
    assert table(c, "f", "w4") == e("v2^2 - v4")
    assert table(c, "phi", "w2") == e("x1")
    assert table(c, "phi", "w4") == e("-v2*x1 + x3")
    assert table(c, "g", "x5") == e("v2^2*x1 - v4*x1 - v2*x3 + x5")
    assert table(c, "g", "x7") == e("v2*v4*x1 - v4*x3 + x7")
    assert table(c, "dW", "x5") == e("v2^3 - 2*v2*v4")
    assert table(c, "dW", "x7") == e("v2^2*v4 - v4^2")
    assert [(sig.name(i), sig.name(j)) for i, j in c.pairs] == \
        [("x1", "w2"), ("x3", "w4")]


def test_already_minimal_input_is_untouched(contractions):
    c = contractions["minimal"]
    sig = c.sig
    assert names(c, c.W) == ["a1", "b1", "y1", "u3"]
    assert c.pairs == ()
    for i in range(len(sig)):
        assert c.f[i] == elem_gen(sig, i)
        assert c.phi[i] == {}
        assert c.g[i] == elem_gen(sig, i)
    assert c.dW == {k: v for k, v in c.source.diff.items()}


def test_contractible_summand(contractions):
    # the report lists each killer with its source derivative, pair by pair
    def basis_lines(c):
        lines = emit_report(c).splitlines()
        return lines[lines.index("contractible basis:") + 1:]

    assert basis_lines(contractions["ex1"]) == ["  a1  d(a1) = v2"]
    assert basis_lines(contractions["ex4"]) == [
        "  x1  d(x1) = v2 + w2",
        "  x3  d(x3) = v2*w2 + v4 + w4",
    ]
    assert emit_report(contractions["minimal"]).endswith(
        "\npairs: none (input already minimal)\n")


def test_nested_pair_projection_clears_product_occurrences(contractions):
    c = contractions["nested"]
    sig = c.sig
    e = lambda t: parse_expression(sig, t)
    assert names(c, c.W) == ["y1"]
    assert [(sig.name(i), sig.name(j)) for i, j in c.pairs] == \
        [("t2", "u3"), ("s1", "z2")]
    # u3's image once carried y1*z2; killing z2 must clear it entirely
    assert table(c, "f", "u3") == {}
    assert table(c, "phi", "u3") == e("t2 - y1*s1")
    report = check_contraction(c, 10)
    failing = {ch.name for ch in report.checks if not ch.ok}
    assert not (failing & set(STRUCTURAL)), failing


def test_structural_identities_hold_on_all_examples(contractions):
    for name, c in contractions.items():
        report = check_contraction(c, 10)
        failing = {ch.name for ch in report.checks if not ch.ok}
        assert not (failing & set(STRUCTURAL)), (name, failing)


def test_every_identity_holds_when_pairs_do_not_interact(contractions):
    for name in ("ex1", "ex2", "ex3", "minimal"):
        report = check_contraction(contractions[name], 10)
        assert report.ok, (name, str(report))


def test_validation_failure_raises():
    sig_text = "gen a1:1\ngen v2:2\nd a1 = v2\n"
    with pytest.raises(SullivanValidationError):
        compute_minimal_model(parse(sig_text))


def test_finalization_invariants(contractions):
    for c in contractions.values():
        sig = c.sig
        f_ev = Extension(sig, c.f)
        g_ev = Extension(sig, c.g)
        d_ev = Extension(sig, c.source.diff, mono_elem)
        dw_ev = Extension(sig, c.dW, mono_elem)
        for w in c.W:
            assert c.f[w] == elem_gen(sig, w)
            dw = c.dW.get(w, {})
            assert in_lambda_geq2(sig, dw, c.W)
            assert dw_ev.on_element(dw) == {}
            assert f_ev.on_element(d_ev.on_element(g_ev.on_monomial(mono(sig, (w, 1))))) == dw


def test_survivor_derivative_rewritten_when_its_target_dies():
    # e4 survives with induced derivative a2*c3; killing c3 afterwards must
    # rewrite that derivative and patch e4's inclusion to stay a chain map
    text = """
gen a2:2
gen b4:4
gen c3:3
gen e4:4
gen f1:1
gen h2:2
d e4 = a2*c3
d h2 = -a2*f1 - 2*c3
"""
    dga = parse(text)
    c = compute_minimal_model(dga)
    sig = c.sig
    assert ("h2", "c3") in [(sig.name(i), sig.name(j)) for i, j in c.pairs]
    e4 = sig.by_name("e4").index
    assert all(sig.name(k) != "c3" for m in c.dW.get(e4, {}) for k, _ in mono_factors(sig, m))
    report = check_contraction(c, 10)
    failing = {ch.name for ch in report.checks if not ch.ok}
    assert not (failing & set(STRUCTURAL)), failing


def test_chain_correction_when_homotopy_recursion_undershoots():
    # b(w4) comes out short of the chain property because phi's recursion
    # loses the o3 information once v2 is projected to zero; the derivative
    # preimage correction restores d(g(w4)) = g(dW(w4))
    text = """
gen e1:1
gen o3:3
gen v2:2
gen w4:4
gen p2:2
d v2 = 2*o3
d w4 = 1/2*o3*v2
"""
    dga = parse(text)
    c = compute_minimal_model(dga)
    report = check_contraction(c, 10)
    failing = {ch.name for ch in report.checks if not ch.ok}
    assert not (failing & set(STRUCTURAL)), failing


@pytest.mark.parametrize("seed", [3, 20260810])
def test_the_sweep_lifts_the_module_model_of_the_linear_part(algebras, seed):
    # FHT, Thm 14.9: W = H(V, d0), and the multiplicative lift must never
    # drift from the module layer: W, the pairs and the linear part of every
    # f, g and phi entry are the module model of d0
    rng = random.Random(seed)
    draws = [random_sullivan_algebra(rng, max_gens=12) for _ in range(300)]
    for dga in list(algebras.values()) + draws:
        c = compute_minimal_model(dga)
        module = DGModule(tuple((gen.name, gen.degree) for gen in dga.sig),
                          {i: linear_part(dga.sig, dx) for i, dx in dga.diff.items()})
        A = compute_at_model(module)
        assert A.H == c.W
        assert A.pairs == c.pairs
        for i in range(len(dga.sig)):
            assert linear_part(dga.sig, c.f[i]) == A.f[i]
            assert linear_part(dga.sig, c.phi[i]) == A.phi[i]
        for w in c.W:
            assert linear_part(dga.sig, c.g[w]) == A.g[w]


@pytest.mark.parametrize("pairs, message", [
    ((), "is not a product, yet the module layer keeps it"),
    (((3, 1),), "does not hold c1, which the module layer pairs it with"),
], ids=["kept", "killer"])
def test_sweep_refuses_pairs_its_derivatives_do_not_bear(algebras, monkeypatch, pairs, message):
    # ex1 pairs a1 with v2 (d a1 = v2); the sweep checks the module layer's
    # decision against the projected derivative of a1
    import sulmin.minimal_model as mm
    module_model = mm.compute_at_model
    monkeypatch.setattr(mm, "compute_at_model", lambda M: replace(module_model(M), pairs=pairs))
    with pytest.raises(InternalInvariantError, match=message):
        compute_minimal_model(algebras["ex1"])


def test_random_inputs_keep_structural_identities():
    rng = random.Random(424242)
    for _ in range(15):
        dga = random_sullivan_algebra(rng)
        c = compute_minimal_model(dga)
        report = check_contraction(c, 8)
        failing = {ch.name for ch in report.checks if not ch.ok}
        assert not (failing & set(STRUCTURAL)), failing


def test_homotopy_extension_obstruction_on_even_ladder(contractions):
    """Interacting pairs admit no product-level homotopy extension.

    With the projection forced to kill x1 and x3, every term of the two-leg
    extension of phi on d(x1*x3) factors through one of f(x1), f(x3),
    phi(x1), phi(x3); all four vanish, so phi d + d phi misses x1*x3 while
    id - gf produces it.  The residual is pinned here so the limitation is
    visible and deliberate rather than a regression.
    """
    c = contractions["ex4"]
    sig = c.sig
    f_ev = Extension(sig, c.f)
    g_ev = Extension(sig, c.g)
    phi_ev = homotopy_extension(sig, c.phi, f_ev, g_ev)
    d_ev = Extension(sig, c.source.diff, mono_elem)
    m = parse_expression(sig, "x1*x3")
    lhs = elem_sub(m, g_ev.on_element(f_ev.on_element(m)))
    rhs_sum = phi_ev.on_element(d_ev.on_element(m))
    for mm, cc in d_ev.on_element(phi_ev.on_element(m)).items():
        rhs_sum[mm] = rhs_sum.get(mm, 0) + cc
    assert elem_sub(lhs, rhs_sum) == m


def test_even_ladder_obstruction_holds_for_every_table(contractions):
    # quantify over the free entries: degree bookkeeping forces f(x1), f(x3)
    # and phi(x1) to vanish, and every other entry may be anything; the
    # homotopy-identity residual at x1*x3 never changes
    c = contractions["ex4"]
    sig = c.sig
    e = lambda t: parse_expression(sig, t)
    rng = random.Random(5150)
    m = e("x1*x3")
    d_ev = Extension(sig, c.source.diff, mono_elem)

    def coin():
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))

    def span(*texts):
        out = {}
        for t in texts:
            if rng.random() >= 0.8:
                continue
            for mm, cc in e(t).items():
                val = coin() * cc
                if val:
                    out[mm] = val
        return out

    idx = {name: sig.by_name(name).index for name in
           ("v2", "w2", "v4", "w4", "x1", "x3", "x5", "x7")}
    for _ in range(50):
        f_table = {
            idx["v2"]: span("v2"), idx["w2"]: span("v2"),
            idx["v4"]: span("v4", "v2^2"), idx["w4"]: span("v4", "v2^2"),
            idx["x1"]: {}, idx["x3"]: {},
            idx["x5"]: span("x5"), idx["x7"]: span("x7"),
        }
        g_table = {
            idx["v2"]: span("v2", "w2"), idx["v4"]: span("v4", "w4", "v2^2"),
            idx["x5"]: span("x5", "v2^2*x1"), idx["x7"]: span("x7", "v4*x3"),
        }
        phi_table = {
            idx["v2"]: span("x1"), idx["w2"]: span("x1"),
            idx["v4"]: span("x3", "v2*x1", "w2*x1"),
            idx["w4"]: span("x3", "v2*x1", "w2*x1"),
            idx["x1"]: {}, idx["x3"]: span("v2", "w2"),
            idx["x5"]: span("v2^2", "v2*w2", "v4", "w4"),
            idx["x7"]: span("v2*v4", "v4*w2"),
        }
        f_ev = Extension(sig, f_table)
        g_ev = Extension(sig, g_table)
        phi_ev = homotopy_extension(sig, phi_table, f_ev, g_ev)
        lhs = elem_sub(m, g_ev.on_element(f_ev.on_element(m)))
        rhs = phi_ev.on_element(d_ev.on_element(m))
        for mm, cc in d_ev.on_element(phi_ev.on_element(m)).items():
            rhs[mm] = rhs.get(mm, 0) + cc
            if not rhs[mm]:
                del rhs[mm]
        assert elem_sub(lhs, rhs) == m


def test_phi_mu_rule_cannot_hold_on_one_even_killer_pair():
    """No homotopy satisfies both the identity and the phi mu rule.

    On Lambda(v3, a2) with d a2 = v3 the pair (a2, v3) collapses: f and g
    vanish off the unit, and phi(a2) lies in degree 1, which is empty.
    1. With phi(v3) = t*a2 the identity on v3 reads v3 = d(t*a2) = t*v3,
       so it forces t = 1 (as does the identity on a2, a2 = phi(v3)).
    2. With t = 1 the rule gives phi(a2*v3) = a2*phi(v3) = a2^2 and
       phi(a2^2) = 0, while the identity on a2^2 needs
       a2^2 = phi(d(a2^2)) + d(phi(a2^2)) = 2*phi(a2*v3) = 2*a2^2.
    One pair with an even killer is enough; no interaction is involved.
    """
    dga = parse("gen v3:3\ngen a2:2\nd a2 = v3\n")
    sig = dga.sig
    e = lambda t: parse_expression(sig, t)
    V3, A2 = 0, 1
    d_ev = Extension(sig, dga.diff, mono_elem)
    c = compute_minimal_model(dga)
    assert c.W == () and c.pairs == ((A2, V3),)
    assert c.f == {V3: {}, A2: {}} and c.phi == {V3: e("a2"), A2: {}}

    def failures(phi_v3):
        report = check_contraction(FullContraction(
            source=dga, W=(), dW={}, f=c.f, g=c.g, phi={V3: phi_v3, A2: {}}, pairs=c.pairs), 6)
        return {ch.name: ch.counterexample for ch in report.checks if not ch.ok}

    # 1. the residual of the identity on v3 is (1 - t)*v3
    for t in (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(7, 3)):
        phi_v3 = elem_scale(e("a2"), t)
        assert elem_sub(e("v3"), d_ev.on_element(phi_v3)) == elem_scale(e("v3"), 1 - t)
        assert failures(phi_v3)["id - gf = phi d + d phi"] == ("a2^2" if t == 1 else "a2")

    # 2. the rule's values on the two words of a2^2 and d(a2^2), with g f = 0
    def rule(u, v):
        return elem_scale(elem_mul(sig, elem_gen(sig, u), c.phi[v]), (-1) ** sig.degree(u))

    assert rule(A2, V3) == e("a2^2") and rule(A2, A2) == {}
    d_square = d_ev.on_element(e("a2^2"))
    assert d_square == e("2*a2*v3")
    rhs = elem_add(elem_scale(rule(A2, V3), 2), d_ev.on_element(rule(A2, A2)))
    assert elem_sub(e("a2^2"), rhs) == e("-a2^2")
    assert failures(e("a2")) == {"id - gf = phi d + d phi": "a2^2", "phi mu rule": "v3*a2"}


# Two valid inputs on which the sweep's phi breaks side conditions of the
# contraction, not only the homotopy identity (ROADMAP item 1).  Until phi
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
HOMOTOPY = ("f phi = 0", "phi g = 0", "phi phi = 0", "id - gf = phi d + d phi")


def _planted_failures(text):
    report = check_contraction(compute_minimal_model(parse(text)), 10)
    return {ch.name for ch in report.checks if not ch.ok}


@pytest.mark.parametrize("text", PLANTED, ids=("first", "second"))
def test_planted_inputs_keep_the_structural_identities(text):
    assert not _planted_failures(text) & set(STRUCTURAL)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("text", PLANTED, ids=("first", "second"))
def test_planted_inputs_keep_the_homotopy_identities(text):
    assert not _planted_failures(text) & set(HOMOTOPY)
