"""Differential structure on a free graded-commutative algebra.

A ``DGAlgebra`` stores the derivative of each generator, and carries the one
evaluator of its differential, ``ev``, that every reader of ``d`` on
monomials shares.  ``Extension`` is
the one evaluator that extends a generator table along monomials: as an
algebra map (the projection, the inclusion, a pair-collapse substitution) or
as a derivation twisted by a right leg (the differential, whose right leg is
the identity, and every homotopy, see ``morphisms``).  ``validate_sullivan``
checks the input contract of the minimization algorithm: derivatives are
homogeneous of degree +1, square to zero, and only mention generators that
were declared earlier (the declaration order encodes the filtration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional

from .graded_algebra import (
    Elem,
    Mono,
    Signature,
    elem_gen,
    elem_is_zero,
    elem_mul,
    elem_one,
    elem_scale,
    lin_axpy,
    mono_degree,
    mono_elem,
    mono_str,
    mono_valid,
)


_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


def _clean_table(table: Mapping[int, Elem]) -> Dict[int, Elem]:
    return {i: dict(e) for i, e in table.items() if e}


@dataclass(frozen=True)
class DGAlgebra:
    """Generator derivatives over ``sig``.  ``ev`` extends them along monomials
    as the differential; it is built with the algebra, caches every image it
    computes for the algebra's lifetime, and is left out of ``==`` and
    ``repr``.  The validator, the sweep, the checker (through
    ``FullContraction.source``), the oracle and ``apply_d`` all read ``d``
    through it, so one job evaluates ``d`` once per monomial."""

    sig: Signature
    diff: Mapping[int, Elem] = field(default_factory=dict)
    ev: Extension = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "diff", _clean_table(self.diff))
        for i, dx in self.diff.items():
            if not 0 <= i < len(self.sig):
                raise ValueError(f"differential table mentions index {i} outside signature")
            for m in dx:
                if not mono_valid(self.sig, m):
                    raise ValueError(
                        f"derivative of {self.sig.name(i)} has a non-canonical term")
        object.__setattr__(self, "ev", Extension(self.sig, self.diff, mono_elem))

    def d_of(self, index: int) -> Elem:
        return self.diff.get(index, {})


class Extension:
    """Extension of a generator-indexed table along monomials.

    Both rules recurse on the left factor of the canonical order, ``m = x*r``
    with ``x`` a single generator, and cache the image of every monomial met,
    so sweeping a whole degreewise basis costs little more than one pass.

    * ``right`` is None: the algebra map ``E(x*r) = table[x]*E(r)``,
      ``E(1) = 1``.  A generator missing from the table raises ``KeyError``.
    * otherwise the derivation twisted by ``right``, a map from monomials to
      elements: ``E(x*r) = table[x]*right(r) + (-1)^{|x|} x*E(r)``,
      ``E(1) = 0``.  A generator missing from the table maps to zero.  The
      differential is the case ``right = mono_elem``.
    """

    def __init__(self, sig: Signature, table: Mapping[int, Elem],
                 right: Optional[Callable[[Mono], Elem]] = None):
        self.sig = sig
        self.table = table
        self.right = right
        self._cache: Dict[Mono, Elem] = {(): elem_one() if right is None else {}}

    def on_monomial(self, m: Mono) -> Elem:
        cached = self._cache.get(m)
        if cached is not None:
            return cached
        sig = self.sig
        (i, e) = m[0]
        rest: Mono = ((i, e - 1),) + m[1:] if e > 1 else m[1:]
        if self.right is None:
            try:
                head = self.table[i]
            except KeyError:
                raise KeyError(f"no image for generator {sig.name(i)}") from None
            out = elem_mul(sig, head, self.on_monomial(rest))
        else:
            head = self.table.get(i)
            out = elem_mul(sig, head, self.right(rest)) if head else {}
            tail = self.on_monomial(rest)
            if tail:  # out is a fresh product, so the sign term adds in place
                lin_axpy(out, _MINUS_ONE if sig.odd[i] else _ONE,
                         elem_mul(sig, elem_gen(sig, i), tail))
        self._cache[m] = out
        return out

    def on_element(self, x: Elem) -> Elem:
        """Linear extension of ``on_monomial``.  A one-term element returns the
        scaled monomial image directly, which is the cached image itself when
        the coefficient is 1."""
        if len(x) == 1:
            ((m, c),) = x.items()
            return elem_scale(self.on_monomial(m), c)
        out: Elem = {}
        for m, c in x.items():
            img = self.on_monomial(m)
            if img:
                lin_axpy(out, c, img)
        return out


def apply_d(dga: DGAlgebra, x: Elem) -> Elem:
    return dga.ev.on_element(x)


@dataclass(frozen=True)
class Violation:
    kind: str
    generator: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: generator {self.generator}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def validate_sullivan(dga: DGAlgebra) -> ValidationReport:
    """Report every violation of the ordered-input contract; never raises."""
    sig = dga.sig
    bad: List[Violation] = []
    ev = dga.ev
    for i, dx in sorted(dga.diff.items()):
        g = sig.generators[i]
        want = g.degree + 1
        for m in dx:
            d = mono_degree(sig, m)
            if d != want:
                bad.append(Violation(
                    "degree", g.name,
                    f"term {mono_str(sig, m)} has degree {d}, expected {want}"))
        for m in dx:
            for j, _ in m:
                if j >= i:
                    bad.append(Violation(
                        "order", g.name,
                        f"term {mono_str(sig, m)} uses {sig.name(j)} (index {j} >= {i})"))
                    break
        dd = ev.on_element(dx)
        if not elem_is_zero(dd):
            first = sorted(dd)[0]
            bad.append(Violation(
                "d-squared", g.name,
                f"d(d({g.name})) has term {mono_str(sig, first)}"))
    return ValidationReport(tuple(bad))
