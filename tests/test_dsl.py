import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mono, written_module
from sulmin import dsl
from sulmin.at_model import DGModule
from sulmin.differential import DGAlgebra
from sulmin.dsl import (
    DslError,
    _lex,
    _position,
    _term_key,
    emit_machine,
    emit_report,
    format_element,
    format_linear,
    parse,
    parse_expression,
    parse_machine,
    render_machine,
)
from sulmin.graded_algebra import (
    MAX_EXPONENT, Signature, SignatureError, basis_monomials, mono_degree, mono_factors)
from sulmin.minimal_model import compute_minimal_model
from sulmin.random_inputs import random_dg_module, random_sullivan_algebra


def test_parse_five_generator_file(algebras):
    dga = algebras["ex1"]
    sig = dga.sig
    assert [g.name for g in sig] == ["b1", "c1", "v2", "a1", "u3"]
    assert [g.degree for g in sig] == [1, 1, 2, 1, 3]
    assert dga.d_of(sig.by_name("a1").index) == parse_expression(sig, "v2")
    assert dga.d_of(sig.by_name("u3").index) == parse_expression(sig, "v2^2")
    assert dga.d_of(sig.by_name("b1").index) == {}


def test_parse_coefficients_and_signs():
    text = "gen a1:1\ngen b1:1\ngen c1:1\ngen v2:2\ngen x1:1\nd x1 = v2 - 2*a1*b1 + 2*b1*c1\n"
    dga = parse(text)
    sig = dga.sig
    dx = dga.d_of(sig.by_name("x1").index)
    v2 = mono(sig, (sig.by_name("v2").index, 1))
    ab = mono(sig, (sig.by_name("a1").index, 1), (sig.by_name("b1").index, 1))
    bc = mono(sig, (sig.by_name("b1").index, 1), (sig.by_name("c1").index, 1))
    assert dx == {v2: Fraction(1), ab: Fraction(-2), bc: Fraction(2)}


def test_exponent_at_the_field_limit_parses():
    dga = parse(f"gen v2:2\ngen u:{2 * MAX_EXPONENT - 1}\nd u = v2^{MAX_EXPONENT}\n")
    ((m, c),) = dga.d_of(1).items()
    assert (mono_factors(dga.sig, m), c) == (((0, MAX_EXPONENT),), 1)
    assert format_element(dga.sig, dga.d_of(1)) == f"v2^{MAX_EXPONENT}"


def test_odd_square_normalizes_to_zero():
    dga = parse("gen x:1\ngen y:3\nd y = x * x\n")
    assert dga.d_of(1) == {}


def test_reversed_factor_order_picks_up_sign():
    dga = parse("gen a:1\ngen b:1\ngen y:1\nd y = b*a\n")
    sig = dga.sig
    assert dga.d_of(2) == parse_expression(sig, "-a*b")


def test_parenthesized_subexpressions_and_powers():
    dga = parse("gen v2:2\ngen v4:4\ngen z9:9\nd z9 = (v2^2 - v4)^2 + 2*(v2*v4 - v4)\n")
    sig = dga.sig
    expected = parse_expression(
        sig, "v2^4 - 2*v2^2*v4 + v4^2 + 2*v2*v4 - 2*v4")
    assert dga.d_of(2) == expected


def test_module_mode_parses_linear_combinations():
    M = parse("mode module\ngen v0:1\ngen v1:1\ngen e:0\nd e = v1 - 1/2*v0\n")
    assert isinstance(M, DGModule)
    assert M.diff[2] == {1: Fraction(1), 0: Fraction(-1, 2)}


def test_report_contains_golden_rows(contractions):
    report = emit_report(contractions["ex1"])
    assert "u3 (deg 3) | u3 | 0  | u3 | -v2*a1 + u3" in report
    assert "(a1, v2)" in report
    assert "a1  d(a1) = v2" in report


def test_report_on_minimal_input(contractions):
    report = emit_report(contractions["minimal"])
    assert "pairs: none (input already minimal)" in report
    for row in ("a1", "b1", "y1", "u3"):
        assert f"| {row}" in report


def test_report_even_ladder_row(contractions):
    c = contractions["ex4"]
    sig = c.sig
    x5 = sig.by_name("x5").index
    assert format_element(sig, c.g[x5]) == "v2^2*x1 - v2*x3 - v4*x1 + x5"
    assert "v2^2*x1 - v2*x3 - v4*x1 + x5" in emit_report(c)


def test_machine_document_lines(contractions):
    doc = emit_machine(contractions["ex1"])
    assert "pair a1 v2" in doc.splitlines()
    assert "phi v2 = a1" in doc.splitlines()
    assert doc.splitlines()[0] == "W = {b1, c1, u3}"


def test_machine_document_empty_algebra():
    dga = DGAlgebra(Signature.from_pairs([]), {})
    doc = emit_machine(compute_minimal_model(dga))
    assert doc == "W = {}\n"


def test_machine_round_trip_is_byte_identical(contractions):
    for name, c in contractions.items():
        doc = emit_machine(c)
        again = render_machine(c.sig, parse_machine(doc, c.sig))
        assert again == doc, name


def test_machine_round_trip_on_random_inputs():
    rng = random.Random(1234)
    for _ in range(10):
        dga = random_sullivan_algebra(rng, max_gens=6)
        c = compute_minimal_model(dga)
        doc = emit_machine(c)
        assert render_machine(c.sig, parse_machine(doc, c.sig)) == doc


def test_expression_emit_parse_identity():
    rng = random.Random(77)
    sig = Signature.from_pairs(
        [("a1", 1), ("b1", 1), ("v2", 2), ("w2", 2), ("u3", 3)])
    pool = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-5, 3), Fraction(7, 2)]
    for _ in range(200):
        x = {}
        degree = rng.randint(0, 7)
        basis = basis_monomials(sig, degree)
        for m in rng.sample(basis, min(len(basis), rng.randint(0, 4))):
            x[m] = rng.choice(pool)
        text = format_element(sig, x)
        assert parse_expression(sig, text) == x
        assert format_element(sig, parse_expression(sig, text)) == text


MALFORMED = [
    ("gen a1\n", 1, 7, "expected ':'"),
    ("gen a1:\n", 1, 8, "expected an unsigned integer"),
    ("gen a1:0\n", 1, 8, "degree 0 generator in algebra mode"),
    ("d a1 = v2\n", 1, 3, "undeclared identifier 'a1'"),
    ("gen a1:1\ngen a1:2\n", 2, 5, "duplicate declaration of 'a1'"),
    ("gen a1:1\nd a1 = @\n", 2, 8, "unexpected character '@'"),
    ("gen a1:1\nd a1 = v2\n", 2, 8, "undeclared identifier 'v2'"),
    ("gen v2:2\nd v2 = 1/0\n", 2, 10, "zero denominator"),
    ("gen v2:2\nd v2 = v2 +\n", 2, 12, "expected a generator or '('"),
    ("mode module\ngen x:1\ngen y:2\nd y = x*x\n", 4, 8,
     "nonlinear expression in module mode"),
    # str.isdigit accepts superscript digits, int() does not
    ("gen x:\u00b2\n", 1, 7, "unexpected character '\u00b2'"),
    ("mode module\ngen x:1\nd x = \u00b3\n", 3, 7, "unexpected character '\u00b3'"),
    # longer than the interpreter's default limit on int string digits
    pytest.param("gen a1:" + "1" * 5000 + "\n", 1, 8, "integer literal too long",
                 id="overlong-degree"),
    pytest.param("gen v2:2\nd v2 = 1/" + "7" * 5000 + "*v2\n", 2, 10,
                 "integer literal too long", id="overlong-denominator"),
]


@pytest.mark.parametrize("text,line,col,message", MALFORMED)
def test_malformed_inputs_report_positions(text, line, col, message):
    with pytest.raises(DslError) as err:
        parse(text)
    assert err.value.line == line
    assert err.value.col == col
    assert err.value.message == message


def test_lexer_golden_tokens():
    text = "# head\ngen x\u00b2:1\t# c\r\nd x\u00b2 = -(1/2*x\u00b2^2 + x\u00b2),{x\u00b2}\r\n"
    x2 = "x\u00b2"
    kinds, texts = _lex(text)
    assert [(kind, piece, *_position(text, i))
            for i, (kind, piece) in enumerate(zip(kinds, texts))] == [
        ("NEWLINE", "\n", 1, 7),
        ("IDENT", "gen", 2, 1), ("IDENT", x2, 2, 5), ("SYM", ":", 2, 7), ("INT", "1", 2, 8),
        ("NEWLINE", "\n", 2, 14),
        ("IDENT", "d", 3, 1), ("IDENT", x2, 3, 3), ("SYM", "=", 3, 6), ("SYM", "-", 3, 8),
        ("SYM", "(", 3, 9), ("INT", "1", 3, 10), ("SYM", "/", 3, 11), ("INT", "2", 3, 12),
        ("SYM", "*", 3, 13), ("IDENT", x2, 3, 14), ("SYM", "^", 3, 16), ("INT", "2", 3, 17),
        ("SYM", "+", 3, 19), ("IDENT", x2, 3, 21), ("SYM", ")", 3, 23), ("SYM", ",", 3, 24),
        ("SYM", "{", 3, 25), ("IDENT", x2, 3, 26), ("SYM", "}", 3, 28),
        ("NEWLINE", "\n", 3, 30),
        ("NEWLINE", "\n", 4, 1), ("EOF", "", 5, 1),
    ]
    assert _lex("gen") == (["IDENT", "NEWLINE", "EOF"], ["gen", "\n", ""])


def test_duplicate_differential_rejected():
    with pytest.raises(DslError) as err:
        parse("gen v2:2\ngen u3:3\nd u3 = v2^2\nd u3 = 0\n")
    assert err.value.line == 4
    assert "duplicate differential" in err.value.message


def test_mode_header_must_come_first():
    with pytest.raises(DslError) as err:
        parse("gen a1:1\nmode module\n")
    assert err.value.line == 2
    assert "first statement" in err.value.message


def _reference_format_element(sig, x):
    """The formatter as it was before coefficients were read as integer
    ratios: Fraction operators on every term."""
    if not x:
        return "0"
    parts = []
    key = lambda m: _expanded_key(sig, mono_factors(sig, m))
    for m in sorted(x, key=key):
        c = x[m]
        mag = abs(c)
        if not m:
            body = str(mag)
        else:
            factors = "*".join(sig.name(i) if e == 1 else f"{sig.name(i)}^{e}"
                               for i, e in mono_factors(sig, m))
            body = factors if mag == 1 else f"{mag}*{factors}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


def _reference_format_linear(M, x):
    if not x:
        return "0"
    parts = []
    for i in sorted(x):
        c = x[i]
        mag = abs(c)
        body = M.name(i) if mag == 1 else f"{mag}*{M.name(i)}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


_FORMAT_SIG = Signature.from_pairs([("a1", 1), ("b1", 1), ("v2", 2), ("u3", 3)])
_FORMAT_MODULE = DGModule(tuple((f"m{i}", i % 3) for i in range(6)), {})
# units of both signs, as ints and as Fractions, integers, proper and improper
# fractions, and numerators and denominators far past a machine word
_COEFFS = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3),
                     Fraction(7, 2), Fraction(-5), 1, -1, 4, -5]),
    st.builds(Fraction, st.integers(-10**30, 10**30).filter(bool),
              st.integers(1, 10**30)),
)
_MONOS = st.sampled_from(
    [m for p in range(5) for m in basis_monomials(_FORMAT_SIG, p)])  # degree 0: the constant


@given(st.dictionaries(_MONOS, _COEFFS, max_size=6))
@settings(max_examples=200, deadline=None)
def test_format_element_matches_the_fraction_formatter(x):
    assert format_element(_FORMAT_SIG, x) == _reference_format_element(_FORMAT_SIG, x)


# integer rows: small values that share factors with the denominator, so
# rows not in lowest terms and integral terms arise, and values past a word
_ROW_INTS = st.one_of(st.integers(1, 12), st.integers(1, 10**30))
_ROW_VALUES = st.builds(lambda v, s: s * v, _ROW_INTS, st.sampled_from([1, -1]))


@given(st.dictionaries(st.integers(0, 5), _COEFFS, max_size=6),
       st.dictionaries(st.integers(0, 5), _ROW_VALUES, max_size=6), _ROW_INTS)
@settings(max_examples=200, deadline=None)
def test_format_linear_matches_the_fraction_formatter(x, vals, den):
    assert format_linear(_FORMAT_MODULE, x) == _reference_format_linear(_FORMAT_MODULE, x)
    assert format_linear(_FORMAT_MODULE, vals, den) == _reference_format_linear(
        _FORMAT_MODULE, {i: Fraction(v, den) for i, v in vals.items()})


def _expanded_key(sig, factors):
    """The term order as first defined, on a factor list: degree, then the
    factor sequence with every power written out."""
    return (sum(e * sig.degree(i) for i, e in factors),
            tuple(i for i, e in factors for _ in range(e)))


_KEY_SIG = Signature.from_pairs([("a1", 1), ("v2", 2), ("w2", 2), ("b3", 3), ("x4", 4)])
_KEY_MONOS = st.builds(
    lambda exps: tuple((i, e) for i, e in enumerate(exps) if e),
    st.tuples(st.integers(0, 1), st.integers(0, 7), st.integers(0, 7),
              st.integers(0, 1), st.integers(0, 4)))


@given(st.lists(_KEY_MONOS, unique=True, max_size=12))
@settings(max_examples=300, deadline=None)
def test_term_key_orders_as_the_expanded_key(monos):
    # monos are factor lists; _term_key reads their packed monomials
    by_key = sorted(monos, key=lambda m: _term_key(_KEY_SIG, mono(_KEY_SIG, *m)))
    assert by_key == sorted(monos, key=lambda m: _expanded_key(_KEY_SIG, m))
    # and the key itself is the one of the factor-list form
    for m in monos:
        assert _term_key(_KEY_SIG, mono(_KEY_SIG, *m)) == (
            mono_degree(_KEY_SIG, mono(_KEY_SIG, *m)), tuple((i, -e) for i, e in m))


def test_huge_power_formats_at_once():
    # the term key does not write the power out, so the longest words the
    # layout holds cost no more than one factor
    sig = Signature.from_pairs([("v2", 2), ("w2", 2)])
    x = {mono(sig, (0, MAX_EXPONENT)): 1, mono(sig, (1, MAX_EXPONENT)): Fraction(-1, 2)}
    start = time.perf_counter()
    assert format_element(sig, x) == f"v2^{MAX_EXPONENT} - 1/2*w2^{MAX_EXPONENT}"
    assert format_element(sig, parse_expression(sig, "v2^30000 + w2^30000")) == \
        "v2^30000 + w2^30000"
    assert time.perf_counter() - start < 0.5


def _signature_state(sig):
    # everything a signature holds but its memo of bases
    return {k: v for k, v in vars(sig).items() if k != "_bases"}


def test_interleaved_declarations_lay_out_each_generator_once(monkeypatch):
    # a derivative between declarations extends the signature by the new
    # generators only, so the parser salts every generator exactly once
    from sulmin import graded_algebra
    salted = []
    salt = graded_algebra._salt
    monkeypatch.setattr(graded_algebra, "_salt", lambda i: salted.append(i) or salt(i))
    count = 60
    decls = [f"gen x{k}:2\ngen y{k}:3\n" for k in range(count)]
    derivs = [f"d y{k} = x{k}^2" + (f" - x{k - 1}*x{k}\n" if k else "\n") for k in range(count)]
    dga = parse("".join(a + b for a, b in zip(decls, derivs)))
    assert sorted(salted) == list(range(2 * count))
    monkeypatch.undo()
    # and the extended signature packs monomials as one built at once
    whole = Signature.from_pairs([(g.name, g.degree) for g in dga.sig])
    assert _signature_state(dga.sig) == _signature_state(whole)
    assert dga.diff == parse("".join(decls) + "".join(derivs)).diff


def test_extended_signature_leaves_its_prefix_alone():
    sig = Signature.from_pairs([("a1", 1), ("v2", 2)])
    before = _signature_state(sig)
    longer = sig.extended([("u3", 3)])
    assert _signature_state(sig) == before
    assert _signature_state(longer) == _signature_state(
        Signature.from_pairs([("a1", 1), ("v2", 2), ("u3", 3)]))
    with pytest.raises(SignatureError, match="duplicate"):
        sig.extended([("a1", 3)])
    assert _signature_state(sig) == before


def test_a_written_module_parses_without_the_lexer(monkeypatch):
    def refuse(text):
        raise AssertionError("the token lexer ran")

    M = random_dg_module(random.Random(11), max_gens=40)
    text = written_module(M)
    monkeypatch.setattr(dsl, "_lex", refuse)
    assert parse(text) == M
    # the refusal is live: a document outside the written form reaches it
    with pytest.raises(AssertionError, match="lexer"):
        parse(text.replace("\n", "\r\n"))
