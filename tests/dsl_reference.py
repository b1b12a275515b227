"""A frozen copy of the DSL front end as it was before the bulk lexer.

The differential tests in ``test_dsl_differential.py`` hold ``sulmin.dsl`` to
this reference: for every input, ``parse``, ``parse_expression`` and
``parse_machine`` must return an equal value or raise a ``DslError`` with the
same message, line and column.  It lexes one character at a time into one
``Token`` per token and reads them through a cursor, exactly as the library
did; keep it unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from sulmin.at_model import DGModule, Lin
from sulmin.differential import DGAlgebra
from sulmin.dsl import DslError, MachineDocument
from sulmin.graded_algebra import (
    Elem,
    Signature,
    elem_add,
    elem_const,
    elem_gen,
    elem_mul,
    elem_pow,
    elem_scale,
    lin_axpy,
)

_SYMBOLS = set(":=+-*^/(){},")


class Token(NamedTuple):
    kind: str  # IDENT, INT, SYM, NEWLINE, EOF
    text: str
    line: int
    col: int


def _lex(text: str) -> List[Token]:
    tokens: List[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(Token("NEWLINE", "\n", line, col))
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
        elif ch.isdecimal():  # exactly the digits int() accepts
            start = i
            startcol = col
            while i < n and text[i].isdecimal():
                i += 1
                col += 1
            tokens.append(Token("INT", text[start:i], line, startcol))
        elif ch.isalpha() or ch == "_":
            start = i
            startcol = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("IDENT", text[start:i], line, startcol))
        elif ch in _SYMBOLS:
            tokens.append(Token("SYM", ch, line, col))
            i += 1
            col += 1
        else:
            raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("NEWLINE", "\n", line, col))
    tokens.append(Token("EOF", "", line + 1, 1))
    return tokens


class _Cursor:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at_sym(self, ch: str) -> bool:
        t = self.peek()
        return t.kind == "SYM" and t.text == ch

    def expect_sym(self, ch: str) -> Token:
        t = self.peek()
        if not self.at_sym(ch):
            raise DslError(f"expected {ch!r}", t.line, t.col)
        return self.next()

    def skip_newlines(self) -> None:
        while self.peek().kind == "NEWLINE":
            self.next()


# -- expression parsing -------------------------------------------------------

def _parse_uint(cur: _Cursor) -> Tuple[int, Token]:
    t = cur.peek()
    if t.kind != "INT":
        raise DslError("expected an unsigned integer", t.line, t.col)
    cur.next()
    try:
        return int(t.text), t
    except ValueError:  # past the interpreter's limit on int string digits
        raise DslError("integer literal too long", t.line, t.col) from None


def _parse_coeff(cur: _Cursor) -> Fraction:
    num, _ = _parse_uint(cur)
    if cur.at_sym("/"):
        cur.next()
        den, t = _parse_uint(cur)
        if den == 0:
            raise DslError("zero denominator", t.line, t.col)
        return Fraction(num, den)
    return Fraction(num)


class _AlgebraEval:
    """Evaluate an expression straight into a canonical element."""

    def __init__(self, sig: Signature, declared: Dict[str, int]):
        self.sig = sig
        self.declared = declared

    def factor(self, cur: _Cursor) -> Elem:
        t = cur.peek()
        if t.kind == "IDENT":
            cur.next()
            if t.text not in self.declared:
                raise DslError(f"undeclared identifier {t.text!r}", t.line, t.col)
            base = elem_gen(self.sig, self.declared[t.text])
            if cur.at_sym("^"):
                cur.next()
                e, _ = _parse_uint(cur)
                return elem_pow(self.sig, base, e)
            return base
        if t.kind == "SYM" and t.text == "(":
            cur.next()
            inner = self.expr(cur)
            cur.expect_sym(")")
            if cur.at_sym("^"):
                cur.next()
                e, _ = _parse_uint(cur)
                return elem_pow(self.sig, inner, e)
            return inner
        raise DslError("expected a generator or '('", t.line, t.col)

    def term(self, cur: _Cursor) -> Elem:
        t = cur.peek()
        acc: Optional[Elem] = None
        if t.kind == "INT":
            acc = elem_const(_parse_coeff(cur))
            if cur.at_sym("*"):
                cur.next()
                acc = elem_mul(self.sig, acc, self.factor(cur))
            elif cur.peek().kind == "IDENT" or cur.at_sym("("):
                acc = elem_mul(self.sig, acc, self.factor(cur))
            else:
                return acc
        else:
            acc = self.factor(cur)
        while cur.at_sym("*"):
            cur.next()
            acc = elem_mul(self.sig, acc, self.factor(cur))
        return acc

    def expr(self, cur: _Cursor) -> Elem:
        t = cur.peek()
        negate = False
        if cur.at_sym("-"):
            cur.next()
            negate = True
        elif cur.at_sym("+"):
            cur.next()
        acc = self.term(cur)
        if negate:
            acc = elem_scale(acc, -1)
        while cur.at_sym("+") or cur.at_sym("-"):
            op = cur.next().text
            nxt = self.term(cur)
            if op == "-":
                nxt = elem_scale(nxt, -1)
            acc = elem_add(acc, nxt)
        return acc


_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


class _ModuleEval:
    """Evaluate a linear expression into a generator -> coefficient map."""

    def __init__(self, declared: Dict[str, int]):
        self.declared = declared

    def term(self, cur: _Cursor) -> Lin:
        t = cur.peek()
        coeff = _ONE
        saw_coeff = False
        if t.kind == "INT":
            coeff = _parse_coeff(cur)
            saw_coeff = True
            if cur.at_sym("*"):
                cur.next()
        t = cur.peek()
        if t.kind == "IDENT":
            cur.next()
            if t.text not in self.declared:
                raise DslError(f"undeclared identifier {t.text!r}", t.line, t.col)
            nxt = cur.peek()
            if nxt.kind == "SYM" and nxt.text in "*^(":
                raise DslError("nonlinear expression in module mode", nxt.line, nxt.col)
            return {self.declared[t.text]: coeff} if coeff else {}
        if saw_coeff:
            if coeff:
                raise DslError("constant term in a module differential", t.line, t.col)
            return {}
        raise DslError("expected a generator name", t.line, t.col)

    def expr(self, cur: _Cursor) -> Lin:
        sign = _ONE
        if cur.at_sym("-"):
            cur.next()
            sign = _MINUS_ONE
        elif cur.at_sym("+"):
            cur.next()
        acc: Lin = lin_axpy({}, sign, self.term(cur))
        while cur.at_sym("+") or cur.at_sym("-"):
            sign = _MINUS_ONE if cur.next().text == "-" else _ONE
            lin_axpy(acc, sign, self.term(cur))
        return acc


# -- document parsing ---------------------------------------------------------

def parse(text: str) -> Union[DGAlgebra, DGModule]:
    """Parse a source document into an algebra or module description."""
    cur = _Cursor(_lex(text))
    mode = "algebra"
    names: Dict[str, int] = {}
    degrees: List[Tuple[str, int]] = []
    diffs_a: Dict[int, Elem] = {}
    diffs_m: Dict[int, Lin] = {}
    has_diff: set = set()
    seen_statement = False

    cur.skip_newlines()
    first = cur.peek()
    if first.kind == "IDENT" and first.text == "mode":
        cur.next()
        t = cur.peek()
        if t.kind != "IDENT" or t.text not in ("algebra", "module"):
            raise DslError("expected 'algebra' or 'module'", t.line, t.col)
        mode = t.text
        cur.next()
        _end_of_statement(cur)

    while True:
        cur.skip_newlines()
        t = cur.peek()
        if t.kind == "EOF":
            break
        if t.kind != "IDENT":
            raise DslError("expected a statement", t.line, t.col)
        if t.text == "gen":
            cur.next()
            name_tok = cur.peek()
            if name_tok.kind != "IDENT":
                raise DslError("expected a generator name", name_tok.line, name_tok.col)
            cur.next()
            if name_tok.text in names:
                raise DslError(f"duplicate declaration of {name_tok.text!r}",
                               name_tok.line, name_tok.col)
            cur.expect_sym(":")
            deg, deg_tok = _parse_uint(cur)
            if mode == "algebra" and deg < 1:
                raise DslError("degree 0 generator in algebra mode",
                               deg_tok.line, deg_tok.col)
            _end_of_statement(cur)
            names[name_tok.text] = len(degrees)
            degrees.append((name_tok.text, deg))
        elif t.text == "d":
            cur.next()
            name_tok = cur.peek()
            if name_tok.kind != "IDENT":
                raise DslError("expected a generator name", name_tok.line, name_tok.col)
            cur.next()
            if name_tok.text not in names:
                raise DslError(f"undeclared identifier {name_tok.text!r}",
                               name_tok.line, name_tok.col)
            idx = names[name_tok.text]
            if idx in has_diff:
                raise DslError(f"duplicate differential for {name_tok.text!r}",
                               name_tok.line, name_tok.col)
            cur.expect_sym("=")
            if mode == "algebra":
                sig = Signature.from_pairs(degrees)
                value = _AlgebraEval(sig, names).expr(cur)
                _end_of_statement(cur)
                has_diff.add(idx)
                if value:
                    diffs_a[idx] = value
            else:
                value = _ModuleEval(names).expr(cur)
                _end_of_statement(cur)
                has_diff.add(idx)
                if value:
                    diffs_m[idx] = value
        elif t.text == "mode":
            raise DslError("mode header must be the first statement", t.line, t.col)
        else:
            raise DslError(f"unknown statement {t.text!r}", t.line, t.col)

    if mode == "algebra":
        sig = Signature.from_pairs(degrees)
        return DGAlgebra(sig, diffs_a)
    return DGModule(tuple(degrees), diffs_m)


def _end_of_statement(cur: _Cursor) -> None:
    t = cur.peek()
    if t.kind == "NEWLINE":
        cur.next()
        return
    if t.kind == "EOF":
        return
    raise DslError("expected end of statement", t.line, t.col)


def parse_expression(sig: Signature, text: str) -> Elem:
    """Parse a single expression against an existing signature (test helper)."""
    cur = _Cursor(_lex(text))
    cur.skip_newlines()
    declared = {g.name: g.index for g in sig.generators}
    value = _AlgebraEval(sig, declared).expr(cur)
    t = cur.peek()
    if t.kind not in ("NEWLINE", "EOF"):
        raise DslError("trailing input after expression", t.line, t.col)
    return value




def parse_machine(text: str, sig: Signature) -> MachineDocument:
    """Re-read a machine document against the signature it was emitted for."""
    cur = _Cursor(_lex(text))
    declared = {g.name: g.index for g in sig.generators}
    ev = _AlgebraEval(sig, declared)
    W: List[int] = []
    dW: Dict[int, Elem] = {}
    f: Dict[int, Elem] = {}
    g: Dict[int, Elem] = {}
    phi: Dict[int, Elem] = {}
    pairs: List[Tuple[int, int]] = []

    def read_name(cur: _Cursor) -> int:
        t = cur.peek()
        if t.kind != "IDENT" or t.text not in declared:
            raise DslError("expected a generator name", t.line, t.col)
        cur.next()
        return declared[t.text]

    while True:
        cur.skip_newlines()
        t = cur.peek()
        if t.kind == "EOF":
            break
        if t.kind != "IDENT":
            raise DslError("expected a result statement", t.line, t.col)
        kw = t.text
        cur.next()
        if kw == "W":
            cur.expect_sym("=")
            cur.expect_sym("{")
            while not cur.at_sym("}"):
                W.append(read_name(cur))
                if cur.at_sym(","):
                    cur.next()
            cur.expect_sym("}")
            _end_of_statement(cur)
        elif kw in ("dW", "f", "g", "phi"):
            idx = read_name(cur)
            cur.expect_sym("=")
            value = ev.expr(cur)
            _end_of_statement(cur)
            {"dW": dW, "f": f, "g": g, "phi": phi}[kw][idx] = value
        elif kw == "pair":
            i = read_name(cur)
            j = read_name(cur)
            _end_of_statement(cur)
            pairs.append((i, j))
        else:
            raise DslError(f"unknown result statement {kw!r}", t.line, t.col)
    return MachineDocument(tuple(W), dW, f, g, phi, tuple(pairs))

