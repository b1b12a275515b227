"""Exact arithmetic in a free graded-commutative algebra over the rationals.

Generators carry a positive degree and a declaration index.  A monomial is a
tuple of ``(generator index, exponent)`` pairs, strictly increasing in index;
a generator of odd degree never carries an exponent above 1 (its square is
zero).  An element is a dict mapping monomials to nonzero rational
coefficients, so dict equality is exactly equality in the algebra.  A
coefficient is an ``int`` when it is integral and a ``Fraction`` with
denominator > 1 otherwise (``Fraction(2) == 2`` and both hash alike, so the
rule changes no equality, only the cost: most coefficients are integers, and
an ``int`` product is some forty times cheaper than a ``Fraction`` one).
Given coefficients in this form, every kernel here returns its results in
this form.  ``q_norm`` brings any rational to it, and ``q_div`` is the one
true division of the package, so no float can arise.

Every value here is immutable by convention: no function mutates an element
it received or returned, so values can be shared freely across threads.  The
one exception is the ``out`` dict handed to ``lin_axpy``, the package's
in-place sparse accumulate, which its caller creates and owns.  A
``Signature`` has one lazily filled member, its memo of full degree bases:
``basis_monomials(sig, p)`` enumerates the degree-``p`` basis once and hands
the same list to every later caller, who must not mutate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Mono = Tuple[Tuple[int, int], ...]
Coeff = Union[int, Fraction]
Elem = Dict[Mono, Coeff]

ONE_MONO: Mono = ()


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


class SignatureError(ValueError):
    """A monomial or element refers to generators outside the signature."""


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    index: int

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1


class Signature:
    """Ordered list of generators; the order doubles as the Sullivan filtration."""

    def __init__(self, generators: Sequence[Generator]):
        gens = tuple(generators)
        names = set()
        for pos, g in enumerate(gens):
            if g.index != pos:
                raise SignatureError(f"generator {g.name!r} has index {g.index}, expected {pos}")
            if g.degree < 1:
                raise SignatureError(f"generator {g.name!r} has degree {g.degree}, expected >= 1")
            if g.name in names:
                raise SignatureError(f"duplicate generator name {g.name!r}")
            names.add(g.name)
        self.generators = gens
        self.odd = tuple(g.degree % 2 for g in gens)
        self._by_name = {g.name: g for g in gens}
        # degree -> the full basis, filled by basis_monomials
        self._bases: Dict[int, List[Mono]] = {}

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


def mono_degree(sig: Signature, m: Mono) -> int:
    return sum(e * sig.degree(i) for i, e in m)


def mono_valid(sig: Signature, m: Mono) -> bool:
    last = -1
    for i, e in m:
        if not 0 <= i < len(sig):
            return False
        if i <= last or e < 1:
            return False
        if sig.degree(i) % 2 == 1 and e != 1:
            return False
        last = i
    return True


def mono_str(sig: Signature, m: Mono) -> str:
    if not m:
        return "1"
    parts = []
    for i, e in m:
        name = sig.name(i)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def mono_mul(sig: Signature, a: Mono, b: Mono) -> Tuple[int, Optional[Mono]]:
    """Merge two canonical monomials, returning (Koszul sign, product).

    The sign is -1 to the number of odd/odd transpositions the merge performs;
    the product is None (with sign 0) when an odd generator would be squared.
    """
    odd = sig.odd
    n = len(odd)
    if (a and a[-1][0] >= n) or (b and b[-1][0] >= n):
        m = a if a and a[-1][0] >= n else b
        raise SignatureError(f"monomial {m} outside signature of {n} generators")
    if not a:
        return 1, b
    if not b:
        return 1, a
    # each odd factor of a that lands after an odd factor of b transposes
    # past it, so the sign flips with the odd factors of b merged so far
    out: List[Tuple[int, int]] = []
    sign = 1
    odd_b = 0
    ai = bi = 0
    la, lb = len(a), len(b)
    while ai < la and bi < lb:
        ia, ea = a[ai]
        ib, eb = b[bi]
        if ia < ib:
            if odd_b and odd[ia]:
                sign = -sign
            out.append((ia, ea))
            ai += 1
        elif ia > ib:
            odd_b ^= odd[ib]
            out.append((ib, eb))
            bi += 1
        else:
            if odd[ia]:
                return 0, None
            out.append((ia, ea + eb))
            ai += 1
            bi += 1
    if odd_b:
        for k in range(ai, la):
            if odd[a[k][0]]:
                sign = -sign
    out.extend(a[ai:])
    out.extend(b[bi:])
    return sign, tuple(out)


def mono_from_factors(sig: Signature, indices: Sequence[int]) -> Tuple[int, Optional[Mono]]:
    """Fold an arbitrary factor sequence into canonical form with its sign."""
    sign, acc = 1, ONE_MONO
    for i in indices:
        s, acc = mono_mul(sig, acc, ((i, 1),))
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
    if not 0 <= index < len(sig):
        raise SignatureError(f"generator index {index} outside signature")
    return {((index, 1),): 1}

def elem_const(c) -> Elem:
    c = q_norm(c)
    return {ONE_MONO: c} if c else {}

def elem_is_zero(x: Elem) -> bool:
    return not x

def elem_neg(x: Elem) -> Elem:
    return {m: -c for m, c in x.items()}

def elem_scale(x: Elem, c) -> Elem:
    """``c * x``; scaling by 1 returns ``x`` itself, which is safe only
    because elements are never mutated (see the module docstring)."""
    if c == 1:
        return x
    if c == -1:
        return elem_neg(x)
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

def elem_mul_into(sig: Signature, out: Elem, x: Elem, y: Elem) -> Elem:
    """Add ``x * y`` into ``out`` in place and return ``out``, which the
    caller owns; ``x`` and ``y`` are only read."""
    for ma, ca in x.items():
        unit = ca == 1  # the generator factor of every gen * tail product
        for mb, cb in y.items():
            sign, m = mono_mul(sig, ma, mb)
            if m is None:
                continue
            c = cb if unit else ca * cb
            if sign < 0:
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
    for mb, cb in y.items():
        k, m = mono_mul(sig, u, mb)
        if m is None:
            continue
        c = cb if k == sign else -cb
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

def mono_elem(m: Mono, c=1) -> Elem:
    c = q_norm(c)
    return {m: c} if c else {}


def linear_part(x: Elem) -> Dict[int, Coeff]:
    """``{generator index: coefficient}`` of the bare generators in ``x``."""
    return {m[0][0]: c for m, c in x.items() if len(m) == 1 and m[0][1] == 1}


def in_lambda_geq2(sig: Signature, x: Elem, subset=None) -> bool:
    """True iff every monomial of ``x`` is a word of length >= 2 in ``subset``.

    Zero qualifies; any constant or linear term, or a factor outside the
    subset, disqualifies.
    """
    idxs = set(_as_indices(sig, subset))
    for m in x:
        if sum(e for _, e in m) < 2:
            return False
        if any(i not in idxs for i, _ in m):
            return False
    return True


def basis_monomials(sig: Signature, p: int, subset=None) -> List[Mono]:
    """All canonical monomials of total degree ``p`` over ``subset`` generators,
    sorted lexicographically by factor list.

    The full basis (``subset`` None) is memoised on ``sig``: every call
    returns the same list, which callers must not mutate.  A call with a
    subset enumerates afresh and caches nothing.  Two callers pass a subset,
    the earlier generators of one sweep step or draw:
    ``minimal_model._d_preimage`` and ``random_inputs._cocycle_space``.
    Never memoise subset bases: each subset is used once, and keeping them
    while the benchmark pools are drawn raised the ``certify-random`` peak
    RSS from 20.5 to 25.6 MB.
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
    # extend it
    gens = [(k + 1, i, sig.degree(i), sig.odd[i]) for k, i in enumerate(idxs)]
    out: List[Mono] = []
    stack: List[Tuple[int, int, Mono]] = [(0, p, ONE_MONO)]
    push = stack.append
    while stack:
        pos, remaining, acc = stack.pop()
        if not remaining:
            out.append(acc)
            continue
        for nxt, i, d, odd in gens[pos:]:
            if d <= remaining:
                r = remaining - d
                push((nxt, r, acc + ((i, 1),)))
                e = 2
                while not odd and d <= r:
                    r -= d
                    push((nxt, r, acc + ((i, e),)))
                    e += 1
    out.sort()
    return out
