"""Text format for algebra and module descriptions, and result emitters.

A source document is a sequence of newline-terminated statements:

    mode algebra            # optional header; "algebra" (default) or "module"
    gen x1:1                # declare a generator: name, colon, degree
    d x1 = v2 - 2*a1*b1     # assign its derivative
    # comment

Expressions are sums of terms; a term is an optional rational coefficient
(``2``, ``-1/2``) times ``*``-separated factors, each a declared generator
name with an optional ``^`` power, or a parenthesized subexpression.  Input
factor order is arbitrary: products normalize at parse time, picking up the
graded-commutativity sign, so for odd a and b the text ``b*a`` denotes
``-1 * a*b``.  In module mode an expression must be a linear combination of
generator names.

A module document in the written form, the one ``format_linear`` and the
benchmark's module writer produce, is read without the token lexer: the
header ``mode module``, ``gen NAME:INT`` lines, then ``d NAME = [-]TERM
( [+-] TERM)*`` lines, where ``TERM = [INT[/INT]*]NAME``, with ASCII names,
single spaces and one statement per ``\n``.  ``_scan_module`` checks such a
document with one compiled pattern and reads it with two ``findall`` calls.
Everything else goes to the token cursor below, as does a written document
that the cursor would refuse; the cursor is the one parser of algebra
documents and the one place where an error is raised and worded, so a
comment, a CR LF or a ``2 m1`` term only costs the fallback.  Both module
paths hand each term to ``at_model.row_of_terms`` as a numerator, a
denominator and an index, and the derivative becomes an integer row with no
``Fraction``; the module is built from its rows (``DGModule.from_rows``).

Lexing runs no Python code per character.  One compiled-regex ``findall``
splits the document into tokens, each match skipping the blanks and the
comment in front of its token; the kind of a token comes from a table keyed
by its first character, and only a non-ASCII or stray first character takes
a slow path through the ``isdecimal`` / ``isalpha`` rule.  ``_lex`` returns
the kinds and the texts as two parallel lists, which the parsers read by
index.  No offset, line or column is kept: an error lexes the document again
(``_position``) to find the line and column of the token it names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from math import gcd
from operator import itemgetter
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from .at_model import DGModule, Lin, row_of_terms
from .differential import DGAlgebra
from .graded_algebra import (
    Elem,
    Mono,
    Row,
    Signature,
    elem_add,
    elem_const,
    elem_gen,
    elem_mul,
    elem_pow,
    elem_scale,
    mono_degree,
    mono_factors,
    mono_str,
    q_div,
)
from .morphisms import FullContraction


class DslError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# -- lexer --------------------------------------------------------------------

_SYMBOLS = frozenset(":=+-*^/(){},")


def _char_kind(ch: str) -> Optional[str]:
    """The kind of token that ``ch`` starts, or None if it starts none."""
    if ch.isdecimal():  # exactly the digits int() accepts
        return "INT"
    if ch.isalpha() or ch == "_":
        return "IDENT"
    if ch in _SYMBOLS:
        return "SYM"
    if ch == "\n":
        return "NEWLINE"
    return None


# One match per token: blanks and a comment are skipped in front of it, and
# the token is a run of decimal digits, a word (``\w`` is exactly ``isalnum``
# or ``_``), a newline or any other single character.  Lexing ``text + "\n"``
# ends every comment at a newline, so the skip never has to give text back.
# A token's kind is the kind of its first character; a non-ASCII first
# character misses the table and takes the slow path in ``_lex``.
_TOKEN = re.compile(r"[ \t\r]*(?:#[^\n]*)?(\d+|[^\W\d]\w*|\n|.)")
_KIND = {ch: _char_kind(ch) for ch in map(chr, range(128))}
_first_char = itemgetter(0)


def _position(source: str, i: int) -> Tuple[int, int]:
    """Line and column of token ``i`` of ``source``, found by lexing again."""
    m = next(islice(_TOKEN.finditer(source + "\n"), i, None), None)
    if m is None:  # the EOF token, one line past the last
        return source.count("\n") + 2, 1
    offset = m.start(1)
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _lex(text: str) -> Tuple[List[str], List[str]]:
    texts = _TOKEN.findall(text + "\n")
    kinds = list(map(_KIND.get, map(_first_char, texts)))
    if None in kinds:  # non-ASCII, or a character that starts no token
        for i, piece in enumerate(texts):
            if kinds[i] is None:
                kinds[i] = _char_kind(piece[0])
                if kinds[i] is None:
                    raise DslError(f"unexpected character {piece[0]!r}",
                                   *_position(text, i))
    kinds.append("EOF")
    texts.append("")
    return kinds, texts


class _Cursor:
    """Reads a lexed document by index.

    The parsers read ``kinds`` and ``texts`` at ``pos`` directly.  Only a SYM
    token has a symbol as its text, so a symbol test reads ``texts`` alone.
    ``pos`` never moves past the final EOF.
    """

    __slots__ = ("source", "kinds", "texts", "pos")

    def __init__(self, text: str):
        self.source = text
        self.kinds, self.texts = _lex(text)
        self.pos = 0

    def error(self, message: str, i: Optional[int] = None) -> DslError:
        """An error at token ``i``, by default the current one."""
        return DslError(message, *_position(self.source, self.pos if i is None else i))

    def at_sym(self, ch: str) -> bool:
        return self.texts[self.pos] == ch

    def expect_sym(self, ch: str) -> None:
        if self.texts[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def skip_newlines(self) -> None:
        kinds = self.kinds
        pos = self.pos
        while kinds[pos] == "NEWLINE":
            pos += 1
        self.pos = pos

    def end_of_statement(self) -> None:
        kind = self.kinds[self.pos]
        if kind == "NEWLINE":
            self.pos += 1
        elif kind != "EOF":
            raise self.error("expected end of statement")

    def name_at(self, i: int) -> str:
        """The text of token ``i``, which must be an identifier."""
        if self.kinds[i] != "IDENT":
            raise self.error("expected a generator name", i)
        return self.texts[i]


# -- expression parsing -------------------------------------------------------

def _parse_uint(cur: _Cursor) -> int:
    i = cur.pos
    if cur.kinds[i] != "INT":
        raise cur.error("expected an unsigned integer")
    cur.pos = i + 1
    try:
        return int(cur.texts[i])
    except ValueError:  # past the interpreter's limit on int string digits
        raise cur.error("integer literal too long", i) from None


def _parse_ratio(cur: _Cursor, sign: int = 1) -> Tuple[int, int]:
    """A coefficient literal times ``sign`` (1 or -1), as a numerator and a
    positive denominator, not reduced."""
    num = sign * _parse_uint(cur)
    if cur.texts[cur.pos] == "/":
        cur.pos += 1
        i = cur.pos
        den = _parse_uint(cur)
        if den == 0:
            raise cur.error("zero denominator", i)
        return num, den
    return num, 1


_ADD_OPS = frozenset("+-")


class _AlgebraEval:
    """Evaluate an expression straight into a canonical element."""

    def __init__(self, sig: Signature, declared: Dict[str, int]):
        self.sig = sig
        self.declared = declared

    def factor(self, cur: _Cursor) -> Elem:
        i = cur.pos
        if cur.kinds[i] == "IDENT":
            name = cur.texts[i]
            cur.pos = i + 1
            if name not in self.declared:
                raise cur.error(f"undeclared identifier {name!r}", i)
            base = elem_gen(self.sig, self.declared[name])
        elif cur.texts[i] == "(":
            cur.pos = i + 1
            base = self.expr(cur)
            cur.expect_sym(")")
        else:
            raise cur.error("expected a generator or '('")
        if cur.at_sym("^"):
            cur.pos += 1
            return elem_pow(self.sig, base, _parse_uint(cur))
        return base

    def term(self, cur: _Cursor) -> Elem:
        if cur.kinds[cur.pos] == "INT":
            acc = elem_const(q_div(*_parse_ratio(cur)))
            if cur.at_sym("*"):
                cur.pos += 1
            elif cur.kinds[cur.pos] != "IDENT" and not cur.at_sym("("):
                return acc
            acc = elem_mul(self.sig, acc, self.factor(cur))
        else:
            acc = self.factor(cur)
        while cur.at_sym("*"):
            cur.pos += 1
            acc = elem_mul(self.sig, acc, self.factor(cur))
        return acc

    def expr(self, cur: _Cursor) -> Elem:
        negate = cur.at_sym("-")
        if negate or cur.at_sym("+"):
            cur.pos += 1
        acc = self.term(cur)
        if negate:
            acc = elem_scale(acc, -1)
        texts = cur.texts
        while texts[cur.pos] in _ADD_OPS:
            op = texts[cur.pos]
            cur.pos += 1
            nxt = self.term(cur)
            if op == "-":
                nxt = elem_scale(nxt, -1)
            acc = elem_add(acc, nxt)
        return acc


_NONLINEAR = frozenset("*^(")


class _ModuleEval:
    """Read a linear expression as the terms of its row."""

    def __init__(self, declared: Dict[str, int]):
        self.declared = declared

    def term(self, cur: _Cursor, sign: int) -> Optional[Tuple[int, int, int]]:
        """One term, times ``sign`` (1 or -1), as ``(num, den, index)``;
        None for a zero constant."""
        kinds = cur.kinds
        saw_coeff = kinds[cur.pos] == "INT"
        if saw_coeff:
            num, den = _parse_ratio(cur, sign)
            if cur.at_sym("*"):
                cur.pos += 1
        else:
            num, den = sign, 1
        i = cur.pos
        if kinds[i] == "IDENT":
            name = cur.texts[i]
            cur.pos = i + 1
            idx = self.declared.get(name)
            if idx is None:
                raise cur.error(f"undeclared identifier {name!r}", i)
            if cur.texts[i + 1] in _NONLINEAR:
                raise cur.error("nonlinear expression in module mode")
            return num, den, idx
        if saw_coeff:
            if num:
                raise cur.error("constant term in a module differential")
            return None
        raise cur.error("expected a generator name")

    def terms(self, cur: _Cursor) -> Iterator[Tuple[int, int, int]]:
        texts = cur.texts
        sign = -1 if texts[cur.pos] == "-" else 1
        if texts[cur.pos] in _ADD_OPS:
            cur.pos += 1
        while True:
            term = self.term(cur, sign)
            if term is not None:
                yield term
            op = texts[cur.pos]
            if op not in _ADD_OPS:
                return
            sign = -1 if op == "-" else 1
            cur.pos += 1


# -- the written form ----------------------------------------------------------

# ``_WRITTEN`` checks a whole document in the written form (see the module
# docstring); ``_WRITTEN_GEN`` then reads one declaration per match and
# ``_WRITTEN_TERM`` one term, a term that opens a derivative with its target.
# ``_WRITTEN_TERM`` only reads text that ``_WRITTEN`` took, so it need not
# reject anything: its optional blanks fit a first term as well as the
# `` + `` or `` - `` in front of a later one.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TERM = rf"(?:[0-9]+(?:/[0-9]+)?\*)?{_NAME}"
_WRITTEN = re.compile(rf"mode module\n((?:gen {_NAME}:[0-9]+\n)*)"
                      rf"((?:d {_NAME} = -?{_TERM}(?: [+-] {_TERM})*\n)*)")
_WRITTEN_GEN = re.compile(rf"gen ({_NAME}):([0-9]+)\n")
_WRITTEN_TERM = re.compile(rf"(?:d ({_NAME}) = )? ?([+-]?) ?(?:([0-9]+)(?:/([0-9]+))?\*)?({_NAME})")


def _scan_module(text: str) -> Optional[DGModule]:
    """The module of a document in the written form, read without the token
    cursor; None if ``text`` is not in that form or holds anything the
    cursor would refuse (a duplicate or undeclared name, a second derivative
    of one generator, a zero denominator, a literal past the interpreter's
    digit limit), so that the cursor reads it and words the error."""
    doc = _WRITTEN.fullmatch(text)
    if doc is None:
        return None
    gens = _WRITTEN_GEN.findall(text, *doc.span(1))
    names = {name: i for i, (name, _) in enumerate(gens)}
    if len(names) != len(gens):
        return None
    lines: Dict[int, List[Tuple[int, int, int]]] = {}  # target: its terms
    try:
        degrees = tuple((name, int(deg)) for name, deg in gens)
        for target, sign, num, den, name in _WRITTEN_TERM.findall(text, *doc.span(2)):
            if target:
                i = names.get(target)
                if i is None or i in lines:
                    return None
                terms = lines[i] = []
            k = names.get(name)
            den = int(den) if den else 1
            if k is None or not den:
                return None
            num = int(num) if num else 1
            terms.append((-num if sign == "-" else num, den, k))
    except ValueError:  # past the limit on int string digits
        return None
    return DGModule.from_rows(degrees, {i: row_of_terms(terms) for i, terms in lines.items()})


# -- document parsing ---------------------------------------------------------

def parse(text: str) -> Union[DGAlgebra, DGModule]:
    """Parse a source document into an algebra or module description."""
    module = _scan_module(text)
    if module is not None:
        return module
    cur = _Cursor(text)
    kinds, texts = cur.kinds, cur.texts
    mode = "algebra"
    names: Dict[str, int] = {}
    degrees: List[Tuple[str, int]] = []
    diffs: Dict[int, Union[Elem, Row]] = {}
    has_diff: set = set()
    # the generators declared so far; a derivative is built against them,
    # and the monomial layout packs their monomials as the final signature
    # will, so after a new declaration the signature is extended by the new
    # generators only, and a document lays out each generator once
    sig = Signature(())
    module_eval = _ModuleEval(names)

    cur.skip_newlines()
    if texts[cur.pos] == "mode" and kinds[cur.pos] == "IDENT":
        cur.pos += 1
        i = cur.pos
        if kinds[i] != "IDENT" or texts[i] not in ("algebra", "module"):
            raise cur.error("expected 'algebra' or 'module'")
        mode = texts[i]
        cur.pos = i + 1
        cur.end_of_statement()

    while True:
        cur.skip_newlines()
        i = cur.pos
        if kinds[i] == "EOF":
            break
        if kinds[i] != "IDENT":
            raise cur.error("expected a statement")
        word = texts[i]
        if word == "gen":
            name = cur.name_at(i + 1)
            cur.pos = i + 2
            if name in names:
                raise cur.error(f"duplicate declaration of {name!r}", i + 1)
            cur.expect_sym(":")
            deg_i = cur.pos
            deg = _parse_uint(cur)
            if mode == "algebra" and deg < 1:
                raise cur.error("degree 0 generator in algebra mode", deg_i)
            cur.end_of_statement()
            names[name] = len(degrees)
            degrees.append((name, deg))
        elif word == "d":
            name = cur.name_at(i + 1)
            cur.pos = i + 2
            if name not in names:
                raise cur.error(f"undeclared identifier {name!r}", i + 1)
            idx = names[name]
            if idx in has_diff:
                raise cur.error(f"duplicate differential for {name!r}", i + 1)
            cur.expect_sym("=")
            if mode == "algebra":
                if len(sig) != len(degrees):
                    sig = sig.extended(degrees[len(sig):])
                value = _AlgebraEval(sig, names).expr(cur)
            else:
                value = row_of_terms(module_eval.terms(cur))
            cur.end_of_statement()
            has_diff.add(idx)
            if value:  # always, for a row: ``from_rows`` drops a zero one
                diffs[idx] = value
        elif word == "mode":
            raise cur.error("mode header must be the first statement")
        else:
            raise cur.error(f"unknown statement {word!r}")

    if mode == "algebra":
        if len(sig) != len(degrees):
            sig = sig.extended(degrees[len(sig):])
        return DGAlgebra(sig, diffs)
    return DGModule.from_rows(tuple(degrees), diffs)


def parse_expression(sig: Signature, text: str) -> Elem:
    """Parse a single expression against an existing signature (test helper)."""
    cur = _Cursor(text)
    cur.skip_newlines()
    declared = {g.name: g.index for g in sig.generators}
    value = _AlgebraEval(sig, declared).expr(cur)
    if cur.kinds[cur.pos] not in ("NEWLINE", "EOF"):
        raise cur.error("trailing input after expression")
    return value


# -- emission -----------------------------------------------------------------

def _term_key(sig: Signature, m: Mono):
    """Ascending degree, then the expanded factor sequence in lexicographic
    order, without expanding it: within one degree, comparing
    ``(i, -e)`` pairs orders two monomials as their expanded sequences do."""
    return (mono_degree(sig, m), tuple((i, -e) for i, e in mono_factors(sig, m)))


def _signed_term(n: int, d: int, body: str) -> str:
    """``n/d * body`` (``n`` nonzero, ``d`` > 0, in lowest terms) as
    ``"+ ..."`` or ``"- ..."``, the magnitude as ``str(Fraction)`` writes it;
    an empty ``body`` stands for the unit."""
    sign = "+ " if n > 0 else "- "
    n = abs(n)
    if d != 1:
        return f"{sign}{n}/{d}*{body}" if body else f"{sign}{n}/{d}"
    if not body:
        return f"{sign}{n}"
    return sign + body if n == 1 else f"{sign}{n}*{body}"


def _join_terms(parts: List[str]) -> str:
    """Signed terms as one sum; the first term's sign loses its space, or
    disappears if it is a plus."""
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def format_element(sig: Signature, x: Elem) -> str:
    """Canonical text for an element: ascending degree, then lexicographic."""
    if not x:
        return "0"
    return _join_terms([_signed_term(*x[m].as_integer_ratio(), mono_str(sig, m) if m else "")
                        for m in sorted(x, key=lambda mm: _term_key(sig, mm))])


def format_linear(M: DGModule, x: Lin, den: int = 1) -> str:
    """Canonical text for the module vector ``x / den``, in index order: a
    coefficient map with ``den`` 1, or the values of an integer row
    ``(den, x)``, in lowest terms or not.  Each term is reduced by its gcd
    with ``den``."""
    if not x:
        return "0"
    gens = M.generators
    parts = []
    for i in sorted(x):
        n = x[i]
        if n.__class__ is int:
            d = den
        else:
            n, d = n.as_integer_ratio()
            d *= den
        if d != 1:
            c = gcd(n, d)
            n //= c
            d //= c
        parts.append(_signed_term(n, d, gens[i][0]))
    return _join_terms(parts)


def emit_machine(c: FullContraction) -> str:
    """Machine-readable result document; expressions re-parse bit-exactly."""
    return render_machine(c.sig, c)


@dataclass(frozen=True)
class MachineDocument:
    W: Tuple[int, ...]
    dW: Mapping[int, Elem]
    f: Mapping[int, Elem]
    g: Mapping[int, Elem]
    phi: Mapping[int, Elem]
    pairs: Tuple[Tuple[int, int], ...]


def render_machine(sig: Signature, doc: Union[MachineDocument, FullContraction]) -> str:
    """Either record holds ``W``, ``dW``, ``f``, ``g`` (on ``W``), ``phi``, ``pairs``."""
    lines = ["W = {" + ", ".join(sig.name(w) for w in doc.W) + "}"]
    for w in doc.W:
        lines.append(f"dW {sig.name(w)} = {format_element(sig, doc.dW.get(w, {}))}")
    for i in sorted(doc.f):
        lines.append(f"f {sig.name(i)} = {format_element(sig, doc.f[i])}")
    for w in doc.W:
        lines.append(f"g {sig.name(w)} = {format_element(sig, doc.g[w])}")
    for i in sorted(doc.phi):
        lines.append(f"phi {sig.name(i)} = {format_element(sig, doc.phi[i])}")
    for i, j in doc.pairs:
        lines.append(f"pair {sig.name(i)} {sig.name(j)}")
    return "\n".join(lines) + "\n"


def parse_machine(text: str, sig: Signature) -> MachineDocument:
    """Re-read a machine document against the signature it was emitted for."""
    cur = _Cursor(text)
    kinds, texts = cur.kinds, cur.texts
    declared = {g.name: g.index for g in sig.generators}
    ev = _AlgebraEval(sig, declared)
    W: List[int] = []
    dW: Dict[int, Elem] = {}
    f: Dict[int, Elem] = {}
    g: Dict[int, Elem] = {}
    phi: Dict[int, Elem] = {}
    pairs: List[Tuple[int, int]] = []
    tables = {"dW": dW, "f": f, "g": g, "phi": phi}

    def read_name() -> int:
        i = cur.pos
        if kinds[i] != "IDENT" or texts[i] not in declared:
            raise cur.error("expected a generator name")
        cur.pos = i + 1
        return declared[texts[i]]

    while True:
        cur.skip_newlines()
        i = cur.pos
        if kinds[i] == "EOF":
            break
        if kinds[i] != "IDENT":
            raise cur.error("expected a result statement")
        kw = texts[i]
        cur.pos = i + 1
        if kw == "W":
            cur.expect_sym("=")
            cur.expect_sym("{")
            while not cur.at_sym("}"):
                W.append(read_name())
                if cur.at_sym(","):
                    cur.pos += 1
            cur.expect_sym("}")
            cur.end_of_statement()
        elif kw in tables:
            idx = read_name()
            cur.expect_sym("=")
            value = ev.expr(cur)
            cur.end_of_statement()
            tables[kw][idx] = value
        elif kw == "pair":
            pairs.append((read_name(), read_name()))
            cur.end_of_statement()
        else:
            raise cur.error(f"unknown result statement {kw!r}", i)
    return MachineDocument(tuple(W), dW, f, g, phi, tuple(pairs))


def emit_report(c: FullContraction) -> str:
    """Human-readable result table, one row per source generator."""
    sig = c.sig
    in_w = set(c.W)
    headers = ["generator", "W", "dW", "f", "g", "phi"]
    rows = []
    for gen in sig.generators:
        i = gen.index
        rows.append([
            f"{gen.name} (deg {gen.degree})",
            gen.name if i in in_w else "",
            format_element(sig, c.dW.get(i, {})) if i in in_w else "",
            format_element(sig, c.f[i]),
            format_element(sig, c.g[i]) if i in in_w else "",
            format_element(sig, c.phi[i]),
        ])
    widths = [max(len(headers[k]), *(len(r[k]) for r in rows)) if rows else len(headers[k])
              for k in range(len(headers))]
    lines = []
    lines.append(" | ".join(h.ljust(widths[k]) for k, h in enumerate(headers)).rstrip())
    lines.append("-+-".join("-" * widths[k] for k in range(len(headers))))
    for r in rows:
        lines.append(" | ".join(r[k].ljust(widths[k]) for k in range(len(headers))).rstrip())
    if c.pairs:
        lines.append("")
        lines.append("pairs:")
        for i, j in c.pairs:
            lines.append(f"  ({sig.name(i)}, {sig.name(j)})")
        lines.append("contractible basis:")
        for i, _ in c.pairs:
            name = sig.name(i)
            lines.append(f"  {name}  d({name}) = {format_element(sig, c.source.d_of(i))}")
    else:
        lines.append("")
        lines.append("pairs: none (input already minimal)")
    return "\n".join(lines) + "\n"
