"""Differential structure on a free graded-commutative algebra.

A ``DGAlgebra`` stores the derivative of each generator; the derivation
extension to products follows the signed Leibniz rule.  ``validate_sullivan``
checks the input contract of the minimization algorithm: derivatives are
homogeneous of degree +1, square to zero, and only mention generators that
were declared earlier (the declaration order encodes the filtration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from .graded_algebra import (
    Elem,
    Mono,
    Signature,
    elem_add,
    elem_gen,
    elem_is_zero,
    elem_mul,
    elem_scale,
    mono_degree,
    mono_elem,
    mono_str,
    mono_valid,
)


def _clean_table(table: Mapping[int, Elem]) -> Dict[int, Elem]:
    return {i: dict(e) for i, e in table.items() if e}


@dataclass(frozen=True)
class DGAlgebra:
    sig: Signature
    diff: Mapping[int, Elem] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "diff", _clean_table(self.diff))
        for i, dx in self.diff.items():
            if not 0 <= i < len(self.sig):
                raise ValueError(f"differential table mentions index {i} outside signature")
            for m in dx:
                if not mono_valid(self.sig, m):
                    raise ValueError(
                        f"derivative of {self.sig.name(i)} has a non-canonical term")

    def d_of(self, index: int) -> Elem:
        return self.diff.get(index, {})


def linear_extension(evaluator, x: Elem) -> Elem:
    """Linear extension of ``evaluator.on_monomial`` to the element ``x``.

    Each evaluator class binds this as its own ``on_element``.  A one-term
    element returns the scaled monomial image directly, which is the cached
    image itself when the coefficient is 1.
    """
    if len(x) == 1:
        ((m, c),) = x.items()
        return elem_scale(evaluator.on_monomial(m), c)
    out: Elem = {}
    for m, c in x.items():
        img = evaluator.on_monomial(m)
        if img:
            out = elem_add(out, elem_scale(img, c))
    return out


class DiffEvaluator:
    """Derivation extension of a generator-indexed derivative table.

    Suffix-caches monomial images, so sweeping a whole degreewise basis costs
    little more than one pass.
    """

    def __init__(self, sig: Signature, diff: Mapping[int, Elem]):
        self.sig = sig
        self.diff = diff
        self._cache: Dict[Mono, Elem] = {(): {}}

    def on_monomial(self, m: Mono) -> Elem:
        cached = self._cache.get(m)
        if cached is not None:
            return cached
        # d(g * rest) = d(g) * rest + (-1)^{|g|} g * d(rest)
        (i, e) = m[0]
        rest: Mono = ((i, e - 1),) + m[1:] if e > 1 else m[1:]
        dg = self.diff.get(i, {})
        out = elem_mul(self.sig, dg, mono_elem(rest)) if dg else {}
        tail = self.on_monomial(rest)
        if tail:
            geneleme = elem_gen(self.sig, i)
            term = elem_mul(self.sig, geneleme, tail)
            if self.sig.degree(i) % 2:
                term = {mm: -c for mm, c in term.items()}
            out = elem_add(out, term)
        self._cache[m] = out
        return out

    on_element = linear_extension


def apply_d(dga: DGAlgebra, x: Elem) -> Elem:
    return DiffEvaluator(dga.sig, dga.diff).on_element(x)


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
    for g in sig.generators:
        if g.degree < 1:
            bad.append(Violation("generator-degree", g.name, f"degree {g.degree} < 1"))
    ev = DiffEvaluator(sig, dga.diff)
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
