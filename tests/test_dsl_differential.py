"""Differential tests: the DSL front end against its frozen reference.

``dsl_reference`` is the front end as it was before the bulk lexer: one
``Token`` per token, lexed one character at a time.  On every input drawn
here, ``parse``, ``parse_expression`` and ``parse_machine`` must return an
equal value or raise a ``DslError`` with the same message, line and column.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dsl_reference as ref
from conftest import EXAMPLE_FILES, INPUTS, written_module
from sulmin import dsl
from sulmin.cli import RunConfig, run
from sulmin.differential import DGAlgebra
from sulmin.dsl import DslError, emit_machine, format_element
from sulmin.graded_algebra import Signature
from sulmin.minimal_model import compute_minimal_model
from sulmin.random_inputs import random_dg_module, random_sullivan_algebra


def _comparable(value):
    # a Signature compares by identity; compare its generators instead
    if isinstance(value, DGAlgebra):
        return [(g.name, g.degree) for g in value.sig.generators], value.diff
    return value


def _outcome(fn, *args):
    try:
        return "value", _comparable(fn(*args))
    except DslError as err:
        return "DslError", (err.message, err.line, err.col)
    except Exception as err:  # whatever escapes must escape from both alike
        return type(err).__name__, str(err)


def _same(new_fn, ref_fn, *args):
    assert _outcome(new_fn, *args) == _outcome(ref_fn, *args)


# -- inputs ---------------------------------------------------------------------

# tokens, near-tokens and characters the two lexers must treat alike: a
# superscript digit and a roman numeral (isalnum, not isdecimal), a non-ASCII
# decimal digit and letter, a vertical tab, CR LF, comments, and whole lines
_PIECES = [
    "gen", "d", "mode", "module", "algebra", "x", "y", "v2", "a1", "x²",
    "Ⅻ", "²", "٣", "é", "_", ":", "=", "+", "-", "*", "^",
    "/", "(", ")", "{", "}", ",", "0", "1", "2", "12", "1/2", "\n", "\r\n",
    "\t", " ", "\x0b", "# note", "#", "@", "W", "f", "g", "phi", "pair", "dW",
    "gen x:1\n", "gen y:1\n", "gen v2:2\n", "gen a1:1\n", "d v2 = ",
    "mode module\n", "d x = ", "(",
]
_EDIT_CHARS = ["²", "Ⅻ", "\x0b", "\t", "\r", "\n", " ", "#", "(", ")",
               "^", "*", "/", "-", "+", "0", "7", "x", "_", "@", ":", "="]

# a declared head, in either mode, lets a soup reach the expression parsers,
# and half the pieces are expression tokens of the declared names
_HEADS = ["", "mode module\n", "gen x:1\ngen y:1\ngen v2:2\ngen w:3\nd w = ",
          "mode module\ngen x:1\ngen y:2\ngen v2:2\nd y = "]
_EXPRESSION_PIECES = ["x", "y", "v2", "0", "1", "2", "12", "1/2", "+", "-", "*",
                      "^", "(", ")", "\n", "d v2 = ", "d x = "]
_SOUPS = st.tuples(
    st.sampled_from(_HEADS),
    st.lists(st.tuples(st.one_of(st.sampled_from(_PIECES),
                                 st.sampled_from(_EXPRESSION_PIECES)),
                       st.sampled_from(["", " ", " ", "\t"])),
             max_size=30),
).map(lambda case: case[0] + "".join(p + sep for p, sep in case[1]))


def _algebra_text(dga):
    sig = dga.sig
    lines = [f"gen {g.name}:{g.degree}" for g in sig.generators]
    lines += [f"d {sig.name(i)} = {format_element(sig, dga.diff[i])}"
              for i in sorted(dga.diff)]
    return "\n".join(lines) + "\n"


_BUNDLED = [path.read_text() for path in sorted(INPUTS.glob("*.sul"))]


@st.composite
def _documents(draw):
    """A bundled input, or a small document of a benchmark family."""
    kind = draw(st.sampled_from(["bundled", "module", "algebra"]))
    if kind == "bundled":
        return draw(st.sampled_from(_BUNDLED))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if kind == "module":
        return written_module(random_dg_module(rng, max_gens=30))
    return _algebra_text(random_sullivan_algebra(rng, max_gens=6))


@st.composite
def _edited(draw, documents):
    """One character deleted, inserted or replaced."""
    text = draw(documents)
    at = draw(st.integers(0, len(text)))
    op = draw(st.sampled_from(["delete", "insert", "replace"]))
    ch = draw(st.sampled_from(_EDIT_CHARS))
    if op == "insert":
        return text[:at] + ch + text[at:]
    return text[:at] + ("" if op == "delete" else ch) + text[at + 1:]


# -- parse ----------------------------------------------------------------------

@given(_SOUPS)
@example("mode module\ngen x:1\ngen y:2\nd y = 2*x^2\n")
@example("mode module\ngen x:1\ngen y:2\nd y = 1/2 x(\n")
@example("gen x:2\ngen y:5\nd y = 2(x + 1/2x)x - (x)^2\n")
@example("gen x:1\r\n# x\u00b2\n\td x = 3\x0b\n")
@settings(max_examples=400, deadline=None)
def test_parse_matches_reference_on_token_soups(text):
    _same(dsl.parse, ref.parse, text)


@given(_edited(_documents()))
@settings(max_examples=150, deadline=None)
def test_parse_matches_reference_on_edited_documents(text):
    _same(dsl.parse, ref.parse, text)


# -- the written form of a module document --------------------------------------

@st.composite
def _written_modules(draw):
    """A ``random_dg_module`` document in the written form."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    return written_module(random_dg_module(rng, max_gens=draw(st.integers(2, 40))))


@given(_written_modules())
@settings(max_examples=100, deadline=None)
def test_written_modules_take_the_scanner_and_match_the_reference(text):
    assert dsl._scan_module(text) is not None
    _same(dsl.parse, ref.parse, text)


@given(_edited(_written_modules()))
@example("mode module\ngen m0:1\ngen m1:0\nd m1 = 2/0*m0\n")
@example("mode module\ngen m0:1\ngen m1:0\nd m1 = 0*m0 - 1/2*m0 + 1/2*m0\n")
@example("mode module\ngen m0:1\ngen m1:0\nd m1 = 6/4*m0 + 07*m0\n")
@example("mode module\ngen m0:1\ngen m1:0\nd m1 = -m0 + 2*m0\nd m0 = m1\n")
@example("mode module\ngen m0:1\ngen m1:0\nd m1 = m0\n\n")
@settings(max_examples=300, deadline=None)
def test_parse_matches_reference_on_edited_written_modules(text):
    _same(dsl.parse, ref.parse, text)


_HEAD = "mode module\ngen m0:1\ngen m1:1\ngen m2:0\n"
_LONG = "7" * 5000  # past the interpreter's default limit on int string digits

# documents in or near the written form that the scanner must leave to the
# cursor, each an error of the cursor's
_REFUSED = {
    "zero denominator": _HEAD + "d m2 = 1/0*m0\n",
    "long degree": f"mode module\ngen m0:{_LONG}\n",
    "long numerator": _HEAD + f"d m2 = {_LONG}*m0\n",
    "long denominator": _HEAD + f"d m2 = 1/{_LONG}*m0\n",
    "duplicate gen": _HEAD + "gen m1:2\n",
    "second d": _HEAD + "d m2 = m0\nd m2 = m1\n",
    "undeclared term": _HEAD + "d m2 = m0 - m7\n",
    "undeclared target": _HEAD + "d m7 = m0\n",
    "no header": _HEAD.replace("mode module\n", "") + "d m2 = m0 - m1\n",
}
# valid documents that are not in the written form
_VALID = {
    "CR LF": (_HEAD + "d m2 = m0 - m1\n").replace("\n", "\r\n"),
    "trailing comment": _HEAD + "d m2 = m0 - m1  # the segment\n",
}


def _at_model(tmp_path, text):
    path = tmp_path / "module.sul"
    path.write_text(text, encoding="utf-8", newline="")
    return run(RunConfig("at-model", str(path)))


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_refused_written_modules_are_the_cursors_errors(case, tmp_path):
    text = _REFUSED[case]
    assert dsl._scan_module(text) is None
    _same(dsl.parse, ref.parse, text)
    with pytest.raises(DslError) as err:
        dsl.parse(text)
    code, out, msg = _at_model(tmp_path, text)
    assert (code, out) == (2, "")
    assert msg == f"{tmp_path / 'module.sul'}: {err.value}\n"


@pytest.mark.parametrize("case", sorted(_VALID))
def test_valid_documents_outside_the_written_form_read_alike(case, tmp_path):
    text = _VALID[case]
    assert dsl._scan_module(text) is None
    _same(dsl.parse, ref.parse, text)
    written = _HEAD + "d m2 = m0 - m1\n"
    assert dsl.parse(text) == dsl.parse(written)
    assert _at_model(tmp_path, text) == _at_model(tmp_path, written)
    assert _at_model(tmp_path, text)[0] == 0


_SIG = Signature.from_pairs([("x", 1), ("y", 1), ("v2", 2), ("a1", 1), ("x²", 3)])


@given(_SOUPS)
@settings(max_examples=150, deadline=None)
def test_parse_expression_matches_reference(text):
    _same(dsl.parse_expression, ref.parse_expression, _SIG, text)


# -- parse_machine --------------------------------------------------------------

_CONTRACTIONS = [compute_minimal_model(dsl.parse(EXAMPLE_FILES[name].read_text()))
                 for name in ("ex1", "ex4", "nested")]


@st.composite
def _machine_documents(draw):
    c = draw(st.sampled_from(_CONTRACTIONS))
    return c.sig, emit_machine(c)


@given(_machine_documents(), st.data())
@settings(max_examples=100, deadline=None)
def test_parse_machine_matches_reference_on_edited_documents(case, data):
    sig, doc = case
    text = data.draw(_edited(st.just(doc)))
    _same(dsl.parse_machine, ref.parse_machine, text, sig)


@given(_machine_documents(), _SOUPS)
@settings(max_examples=100, deadline=None)
def test_parse_machine_matches_reference_on_token_soups(case, soup):
    sig, doc = case
    # a valid head keeps the soup inside the statement loop
    _same(dsl.parse_machine, ref.parse_machine, doc.split("\n", 1)[0] + "\n" + soup, sig)
