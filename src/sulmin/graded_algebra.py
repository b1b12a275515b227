"""Exact arithmetic in a free graded-commutative algebra over the rationals.

Generators carry a positive degree and a declaration index.  A monomial is a
product of generators, and a generator of odd degree never carries an
exponent above 1 (its square is zero).  An element is a dict mapping
monomials to nonzero rational coefficients, so dict equality is exactly
equality in the algebra.  A coefficient is an ``int`` when it is integral
and a ``Fraction`` with denominator > 1 otherwise (``Fraction(2) == 2`` and
both hash alike, so the rule changes no equality, only the cost: most
coefficients are integers, and an ``int`` product is some forty times
cheaper than a ``Fraction`` one).  Given coefficients in this form, every
kernel here returns its results in this form.  ``q_norm`` brings any
rational to it, and ``q_div`` is the one true division of the package, so no
float can arise.  ``int_row`` scales a linear combination to an integer row,
one positive denominator and ``int`` values, and ``row_coeffs`` turns a row
back into coefficients: the module layer and the oracle's ranks compute on
rows, with no ``Fraction`` arithmetic.

A monomial is one non-negative ``int``, packed by its signature; only this
module reads the layout.  Everywhere else a monomial is an opaque hashable
value, taken apart and built through ``mono_gen``, ``mono_first``,
``mono_factors``, ``mono_splits``, ``mono_key`` and ``subset_test``.

* **Fields.**  From bit ``_BASE`` up, each generator in declaration order
  gets a field holding its exponent: 1 bit for an odd generator, 15 bits and
  a guard bit above them for an even one.  A field's offset depends only on
  the generators before it, so a signature and its prefixes pack the
  monomials they share alike (the parser builds each derivative against the
  generators declared so far, and ``Signature.extended`` lays out only the
  generators a declaration adds).
* **Salt.**  Below the fields each generator adds a fixed pseudo-random
  salt of ``_SALT_BITS`` bits into a shared sum, with a guard bit at
  ``_SALT_ROOM``.  A generator's unit is its field's low bit plus its salt,
  and a monomial is the sum of its factors' units, so it packs products
  additively: the product of ``a`` and ``b`` is ``a + b``.  The salt exists
  for the hash: CPython hashes an ``int`` as its value mod 2^61 - 1, which
  folds field bits 61 apart onto each other.  On 600 degree-1 generators the
  179,700 degree-2 monomials of an unsalted layout get only 1,891 distinct
  hashes, and ``dict`` lookups on them crawl; salted, more than 99.8% are
  distinct.
* **Signs and zero.**  An odd square is ``a & b & odd_mask``; the Koszul
  sign is the parity of the pairs of odd bits with the one of ``b`` below
  the one of ``a``.
* **Overflow.**  An exponent past ``MAX_EXPONENT``, or a salt sum past its
  room (a word of more than 2^16 factors at the least), sets a guard bit of
  ``a + b``.  Every product tests the guards and raises
  ``WordTooLongError``, so a field never carries into the next one.

``mono_key`` is the factor list, ``((generator index, exponent), ...)`` in
increasing index.  Its order is the canonical monomial order of the package:
bases come in it, and the sites whose result depends on an order of
monomials (elimination pivots, emitted terms, the first term reported) sort
or key by it, never by the packed value.

Every value here is immutable by convention: no function mutates an element
it received or returned, so values can be shared freely across threads.  The
one exception is the ``out`` dict handed to ``lin_axpy``, the package's
in-place sparse accumulate, which its caller creates and owns.  A
``Signature`` has one lazily filled member, its memo of full degree bases:
``basis_monomials(sig, p)`` enumerates the degree-``p`` basis once and hands
the same list to every later caller, who must not mutate it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union)

Mono = int
Coeff = Union[int, Fraction]
Elem = Dict[Mono, Coeff]

ONE_MONO: Mono = 0

_FIELD_BITS = 15
MAX_EXPONENT = (1 << _FIELD_BITS) - 1
_EVEN_FIELD = (1 << (_FIELD_BITS + 1)) - 1  # with its guard bit
_SALT_BITS = 20
_SALT_ROOM = _SALT_BITS + 16  # the salt sum of any word of 2^16 factors fits
_BASE = _SALT_ROOM + 1
_M64 = (1 << 64) - 1


def _salt(index: int) -> int:
    """The salt of generator ``index``: splitmix64 of the index, cut to
    ``_SALT_BITS``.  It depends on the index alone, so every signature
    salts a generator alike."""
    z = (index + 1) * 0x9E3779B97F4A7C15 & _M64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return (z ^ (z >> 31)) >> (64 - _SALT_BITS)


def q_norm(c) -> Coeff:
    """The rational ``c`` as a coefficient: an ``int`` when it is integral,
    else a ``Fraction``."""
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def q_table(table: Mapping[int, Mapping]) -> Dict[int, Dict]:
    """A copy of a generator table (of elements, or of the linear
    combinations of modules) with every coefficient brought to the rule by
    ``q_norm`` and every empty image dropped: how tables from outside the
    package enter it."""
    return {i: {k: q_norm(c) for k, c in image.items()}
            for i, image in table.items() if image}


def q_div(a: Coeff, b: Coeff) -> Coeff:
    """The exact quotient ``a / b`` as a coefficient; raises
    ``ZeroDivisionError`` on ``b = 0``."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        if not r:
            return q
    c = Fraction(a, b)
    return c.numerator if c.denominator == 1 else c


Row = Tuple[int, Dict]


def int_row(x: Mapping) -> Row:
    """A linear combination (an element, or a module vector) as an integer
    row ``(den, vals)``: ``x = vals / den``, where ``den`` is the lcm of the
    coefficients' denominators and every value is an ``int``.  A zero
    coefficient is dropped, and the key order is kept.  ``den`` and the
    values have no common prime factor, so the row is in lowest terms;
    ``row_coeffs`` turns it back."""
    den = lcm(*[c.denominator for c in x.values()])
    if den == 1:
        return 1, {k: c.numerator for k, c in x.items() if c}
    return den, {k: c.numerator * (den // c.denominator) for k, c in x.items() if c}


def row_coeffs(row: Row) -> Dict:
    """The coefficients ``vals / den`` of an integer row, under the
    coefficient rule: ``vals`` itself when ``den`` is 1 (its values are
    ``int``s already), else a new dict.  The caller hands the row over."""
    den, vals = row
    if den == 1:
        return vals
    return {k: q_div(v, den) for k, v in vals.items()}


class SignatureError(ValueError):
    """A monomial or element refers to generators outside the signature."""


class WordTooLongError(ValueError):
    """A word too long to hold: an exponent past ``MAX_EXPONENT``, a word past
    the salt room, or (see ``differential.MAX_WORD``) a word too long for an
    evaluator to walk."""


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    index: int

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


class Signature:
    """Ordered list of generators; the order doubles as the Sullivan filtration.

    It also holds the monomial layout (see the module docstring), which only
    this module reads."""

    def __init__(self, generators: Sequence[Generator]):
        self.generators: Tuple[Generator, ...] = ()
        self.odd: Tuple[int, ...] = ()
        self._by_name: Dict[str, Generator] = {}
        # degree -> the full basis, filled by basis_monomials
        self._bases: Dict[int, List[Mono]] = {}
        self._shift: Tuple[int, ...] = ()
        self._unit: Tuple[int, ...] = ()
        self._odd_mask = 0
        self._guard = 1 << _SALT_ROOM
        self._top = _BASE
        self._append(tuple(generators))

    def extended(self, pairs: Iterable[Tuple[str, int]]) -> "Signature":
        """A new signature: these generators, then ``pairs`` of (name,
        degree) appended.  The layout is prefix-stable, so the new one keeps
        this one's and lays out only the appended generators; it packs every
        monomial as ``Signature.from_pairs`` on all the pairs would."""
        # every signature sets its attributes in the order __init__ does, so
        # all share one key layout and attribute reads stay on the fast path
        new = Signature(())
        new.generators, new.odd = self.generators, self.odd
        new._by_name = dict(self._by_name)
        new._shift, new._unit = self._shift, self._unit
        new._odd_mask, new._guard, new._top = self._odd_mask, self._guard, self._top
        start = len(self.generators)
        new._append(tuple(Generator(name, degree, start + k)
                          for k, (name, degree) in enumerate(pairs)))
        return new

    def _append(self, gens: Tuple[Generator, ...]) -> None:
        """Validate ``gens`` and lay them out after the generators so far;
        only a signature under construction calls this."""
        names = self._by_name
        shifts, units = [], []
        odd_mask, guard, top = self._odd_mask, self._guard, self._top
        for pos, g in enumerate(gens, len(self.generators)):
            if g.index != pos:
                raise SignatureError(f"generator {g.name!r} has index {g.index}, expected {pos}")
            if g.degree < 1:
                raise SignatureError(f"generator {g.name!r} has degree {g.degree}, expected >= 1")
            if g.name in names:
                raise SignatureError(f"duplicate generator name {g.name!r}")
            names[g.name] = g
            shifts.append(top)
            units.append((1 << top) + _salt(pos))
            if g.degree % 2:
                odd_mask |= 1 << top
                top += 1
            else:
                guard |= 1 << (top + _FIELD_BITS)
                top += _FIELD_BITS + 1
        self.generators += gens
        self.odd += tuple(g.degree % 2 for g in gens)
        self._shift += tuple(shifts)
        self._unit += tuple(units)
        self._odd_mask, self._guard, self._top = odd_mask, guard, top
        self._fields = (1 << top) - (1 << _BASE)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, int]]) -> "Signature":
        return cls([Generator(name, degree, i) for i, (name, degree) in enumerate(pairs)])

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def by_name(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise SignatureError(f"unknown generator {name!r}") from None

    def degree(self, index: int) -> int:
        return self.generators[index].degree

    def name(self, index: int) -> str:
        return self.generators[index].name


def _as_indices(sig: Signature, subset: Optional[Iterable[Union[Generator, int]]]) -> Tuple[int, ...]:
    if subset is None:
        return tuple(range(len(sig)))
    idxs = sorted({g.index if isinstance(g, Generator) else int(g) for g in subset})
    for i in idxs:
        if not 0 <= i < len(sig):
            raise SignatureError(f"generator index {i} outside signature")
    return tuple(idxs)


def _outside(sig: Signature, subset) -> int:
    """The field bits of the generators outside ``subset``."""
    inside = 0
    for i in _as_indices(sig, subset):
        inside |= (1 if sig.odd[i] else _EVEN_FIELD) << sig._shift[i]
    return sig._fields & ~inside


def _generator_of(sig: Signature, m: Mono) -> Optional[int]:
    """The index of the generator whose monomial ``m`` is, else None."""
    f = m & sig._fields
    if not f or f & (f - 1):
        return None
    pos = f.bit_length() - 1
    i = bisect_right(sig._shift, pos) - 1
    return i if sig._shift[i] == pos else None


# -- monomials ------------------------------------------------------------------

def mono_gen(sig: Signature, index: int) -> Mono:
    """The monomial of generator ``index``."""
    if not 0 <= index < len(sig):
        raise SignatureError(f"generator index {index} outside signature")
    return sig._unit[index]


def mono_factors(sig: Signature, m: Mono) -> Tuple[Tuple[int, int], ...]:
    """The factor list of ``m``: ``(generator index, exponent)`` pairs in
    increasing index, ``()`` for the unit monomial."""
    shifts, odd = sig._shift, sig.odd
    out = []
    f = m & sig._fields
    while f:
        i = bisect_right(shifts, (f & -f).bit_length() - 1) - 1
        s = shifts[i]
        e = 1 if odd[i] else (f >> s) & MAX_EXPONENT
        out.append((i, e))
        f ^= e << s
    return tuple(out)


def mono_key(sig: Signature, m: Mono) -> Tuple[Tuple[int, int], ...]:
    """The sort key of the canonical monomial order: the factor list, compared
    lexicographically."""
    return mono_factors(sig, m)


def mono_first(sig: Signature, m: Mono) -> Tuple[int, Mono]:
    """``(i, rest)`` with ``m = x_i * rest`` and ``x_i`` the generator of least
    index in ``m``, which must not be the unit monomial."""
    f = m & sig._fields
    i = bisect_right(sig._shift, (f & -f).bit_length() - 1) - 1
    return i, m - sig._unit[i]


def mono_degree(sig: Signature, m: Mono) -> int:
    return sum(e * sig.degree(i) for i, e in mono_factors(sig, m))


def mono_valid(sig: Signature, m: Mono) -> bool:
    """True iff ``m`` is a monomial packed by ``sig``."""
    if m.__class__ is not int or m < 0 or m & sig._guard:
        return False
    unit = sig._unit
    return m == sum(e * unit[i] for i, e in mono_factors(sig, m))


def mono_str(sig: Signature, m: Mono) -> str:
    if not m:
        return "1"
    parts = []
    for i, e in mono_factors(sig, m):
        name = sig.name(i)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def subset_test(sig: Signature, subset) -> Callable[[Mono], bool]:
    """A predicate on monomials: whether a monomial mentions only generators
    of ``subset`` (None: all of them)."""
    outside = _outside(sig, subset)
    return lambda m: not m & outside


def mono_splits(sig: Signature, m: Mono) -> Iterator[Tuple[Mono, int, Mono, int]]:
    """Contiguous splits of the expanded factor sequence of ``m``, both halves
    nontrivial, as ``(left, |left|, right, |right|)`` with ``m = left *
    right`` (no sign): the split inside factor ``(i, e)`` after ``p`` of its
    ``e`` copies, then the one after the whole factor."""
    factors = mono_factors(sig, m)
    unit, degree = sig._unit, sig.degree
    total = sum(e * degree(i) for i, e in factors)
    last = len(factors) - 1
    left, dleft = ONE_MONO, 0
    for k, (i, e) in enumerate(factors):
        u, d = unit[i], degree(i)
        for _ in range(1, e):
            left += u
            dleft += d
            yield left, dleft, m - left, total - dleft
        left += u
        dleft += d
        if k < last:
            yield left, dleft, m - left, total - dleft


def _sign_mask(oa: int, odd: int) -> int:
    """The odd bits that lie below an odd number of the bits of ``oa``: a
    right factor's odd bits there each transpose past an odd number of the
    left factor's odd generators, so the product's sign is -1 to the
    number of its odd bits in the mask."""
    mask = 0
    while oa:
        low = oa & -oa
        mask ^= low - 1
        oa ^= low
    return mask & odd


def _too_long(sig: Signature, a: Mono, b: Mono) -> WordTooLongError:
    """The error for a product ``a * b`` that sets a guard bit."""
    return WordTooLongError(
        f"{mono_str(sig, a)} * {mono_str(sig, b)} does not fit the monomial layout")


def mono_mul(sig: Signature, a: Mono, b: Mono) -> Tuple[int, Optional[Mono]]:
    """The product of two monomials, as (Koszul sign, product).

    The sign is -1 to the number of odd/odd transpositions that bring the
    factors into canonical order; the product is None (with sign 0) when an
    odd generator would be squared.  Raises ``WordTooLongError`` when the
    product does not fit the layout.
    """
    odd = sig._odd_mask
    oa = a & odd
    if oa & b:
        return 0, None
    m = a + b
    if m & sig._guard:
        raise _too_long(sig, a, b)
    if oa and (b & _sign_mask(oa, odd)).bit_count() & 1:
        return -1, m
    return 1, m


def mono_from_factors(sig: Signature, indices: Sequence[int]) -> Tuple[int, Optional[Mono]]:
    """Fold an arbitrary factor sequence into canonical form with its sign."""
    sign, acc = 1, ONE_MONO
    for i in indices:
        s, acc = mono_mul(sig, acc, mono_gen(sig, i))
        if acc is None:
            return 0, None
        sign *= s
    return sign, acc


# -- element arithmetic -------------------------------------------------------
#
# A product or sum of two ``int``s is an ``int``; one that involves a
# ``Fraction`` is a ``Fraction``, and the kernels turn it back into an ``int``
# when its denominator is 1 (the test ``c.__class__ is not int`` keeps that
# check off the integer path).

def elem_one() -> Elem:
    return {ONE_MONO: 1}

def elem_gen(sig: Signature, index: int) -> Elem:
    return {mono_gen(sig, index): 1}

def elem_const(c) -> Elem:
    c = q_norm(c)
    return {ONE_MONO: c} if c else {}

def elem_scale(x: Elem, c) -> Elem:
    """``c * x``; scaling by 1 returns ``x`` itself, which is safe only
    because elements are never mutated (see the module docstring)."""
    if c == 1:
        return x
    if c == -1:
        return {m: -v for m, v in x.items()}
    c = q_norm(c)
    return lin_axpy({}, c, x) if c else {}

def lin_axpy(out: Dict, c: Coeff, y: Dict) -> Dict:
    """Add ``c * y`` into ``out`` in place and return ``out``.

    The sparse accumulate of every linear combination in the package, for
    elements and for the generator-indexed vectors of modules alike: a new
    key keeps its value, and a sum that cancels is deleted.  It writes only
    ``out``, which the caller owns; ``y`` is only read.  Callers never pass
    ``c = 0``.
    """
    unit = c == 1
    for j, v in y.items():
        if not unit:
            v = c * v
            if v.__class__ is not int and v.denominator == 1:
                v = v.numerator
        s = out.get(j)
        if s is None:
            out[j] = v
        else:
            s += v
            if s.__class__ is not int and s.denominator == 1:
                s = s.numerator
            if s:
                out[j] = s
            else:
                del out[j]
    return out

# elem_add and elem_sub need no loops of their own: no hot path calls them.
# A seed-3 certify-random verify job makes about 22 such calls, in the sweep
# and the parser, against about 1.3k elem_mul calls (cProfile over every
# third job of the pool).

def elem_add(x: Elem, y: Elem) -> Elem:
    return lin_axpy(dict(x), 1, y)

def elem_sub(x: Elem, y: Elem) -> Elem:
    return lin_axpy(dict(x), -1, y)

# The two product kernels inline ``mono_mul``: per left monomial they take
# its odd bits and sign mask once, then per right monomial one test for an
# odd square, one sum, one guard test and, only when the left factor has odd
# generators, one bit count.

def elem_mul_into(sig: Signature, out: Elem, x: Elem, y: Elem) -> Elem:
    """Add ``x * y`` into ``out`` in place and return ``out``, which the
    caller owns; ``x`` and ``y`` are only read."""
    odd, guard = sig._odd_mask, sig._guard
    for ma, ca in x.items():
        unit = ca == 1  # the generator factor of every gen * tail product
        oa = ma & odd
        flip = _sign_mask(oa, odd) if oa else 0
        for mb, cb in y.items():
            if oa & mb:
                continue
            m = ma + mb
            if m & guard:
                raise _too_long(sig, ma, mb)
            c = cb if unit else ca * cb
            if flip and (mb & flip).bit_count() & 1:
                c = -c
            old = out.get(m)
            if old is None:
                if c.__class__ is not int and c.denominator == 1:
                    c = c.numerator
                out[m] = c
                continue
            s = old + c
            if s.__class__ is not int and s.denominator == 1:
                s = s.numerator
            if s:
                out[m] = s
            else:
                del out[m]
    return out

def elem_mul(sig: Signature, x: Elem, y: Elem) -> Elem:
    return elem_mul_into(sig, {}, x, y)

def mono_mul_into(sig: Signature, out: Elem, sign: int, u: Mono, y: Elem) -> Elem:
    """Add ``sign * u * y`` into ``out`` in place and return ``out``, for a
    monomial ``u`` and ``sign`` 1 or -1: ``elem_mul`` with the one-term left
    factor ``sign * u``, without building it."""
    odd, guard = sig._odd_mask, sig._guard
    ou = u & odd
    flip = _sign_mask(ou, odd) if ou else 0
    for mb, cb in y.items():
        if ou & mb:
            continue
        m = u + mb
        if m & guard:
            raise _too_long(sig, u, mb)
        c = cb if sign > 0 else -cb
        if flip and (mb & flip).bit_count() & 1:
            c = -c
        old = out.get(m)
        if old is None:
            out[m] = c
            continue
        s = old + c
        if s.__class__ is not int and s.denominator == 1:
            s = s.numerator
        if s:
            out[m] = s
        else:
            del out[m]
    return out

def elem_pow(sig: Signature, x: Elem, e: int) -> Elem:
    if e < 0:
        raise ValueError("negative exponent")
    # square and multiply: O(log e) products, the same canonical element as
    # e repeated products, since the product is associative
    acc = elem_one()
    while e:
        if e & 1:
            acc = elem_mul(sig, acc, x)
        e >>= 1
        if e:
            x = elem_mul(sig, x, x)
    return acc

def mono_elem(m: Mono) -> Elem:
    return {m: 1}


def linear_part(sig: Signature, x: Elem) -> Dict[int, Coeff]:
    """``{generator index: coefficient}`` of the bare generators in ``x``."""
    out = {}
    for m, c in x.items():
        i = _generator_of(sig, m)
        if i is not None:
            out[i] = c
    return out


def in_lambda_geq2(sig: Signature, x: Elem, subset=None) -> bool:
    """True iff every monomial of ``x`` is a word of length >= 2 in ``subset``.

    Zero qualifies; any constant or linear term, or a factor outside the
    subset, disqualifies.
    """
    outside = _outside(sig, subset)
    for m in x:
        if not m or m & outside or _generator_of(sig, m) is not None:
            return False
    return True


def basis_monomials(sig: Signature, p: int, subset=None) -> List[Mono]:
    """All canonical monomials of total degree ``p`` over ``subset`` generators,
    in the canonical order (by ``mono_key``).

    The full basis (``subset`` None) is memoised on ``sig``: every call
    returns the same list, which callers must not mutate.  A call with a
    subset enumerates afresh and caches nothing.  Two callers pass a subset,
    the earlier generators of one sweep step or draw:
    ``minimal_model._d_preimage`` and ``random_inputs._cocycle_space``.
    Never memoise subset bases: each subset is used once, and keeping them
    while the benchmark pools are drawn raised the ``certify-random`` peak
    RSS from 20.5 to 25.6 MB.  Raises ``WordTooLongError`` when a degree-``p``
    word does not fit the layout.
    """
    if p < 0:
        raise ValueError("degree must be >= 0")
    if subset is not None:
        return _enumerate_basis(sig, p, _as_indices(sig, subset))
    basis = sig._bases.get(p)
    if basis is None:
        basis = sig._bases[p] = _enumerate_basis(sig, p, tuple(range(len(sig))))
    return basis


def _enumerate_basis(sig: Signature, p: int, idxs: Tuple[int, ...]) -> List[Mono]:
    # depth-first on an explicit stack, so the number of generators is not
    # bounded by the interpreter's recursion limit: an entry is a monomial
    # prefix, the degree it still lacks and the first position that may
    # extend it.  Children are pushed in reverse, so monomials leave the
    # stack in the canonical order and need no sort.
    gens = [(k + 1, sig._unit[i], sig.degree(i), sig.odd[i]) for k, i in enumerate(idxs)]
    # below degree 2^15 no word reaches a guard bit; above, a prefix sets
    # one as soon as it outgrows the layout, since it grows one factor at a
    # time
    guard = sig._guard if p > MAX_EXPONENT else 0
    out: List[Mono] = []
    stack: List[Tuple[int, int, Mono]] = [(0, p, ONE_MONO)]
    while stack:
        pos, remaining, acc = stack.pop()
        if not remaining:
            out.append(acc)
            continue
        children = []
        push = children.append
        for nxt, u, d, odd in gens[pos:]:
            if d <= remaining:
                r = remaining - d
                m = acc + u
                push((nxt, r, m))
                while not odd and d <= r:
                    r -= d
                    m += u
                    push((nxt, r, m))
        if guard and any(m & guard for _, _, m in children):
            raise WordTooLongError(f"degree {p} words are too long to hold")
        children.reverse()
        stack.extend(children)
    return out
