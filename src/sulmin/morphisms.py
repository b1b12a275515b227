"""Generator-indexed morphism tables and the contraction identity checker.

A contraction to the small algebra consists of a projection ``f`` and an
inclusion ``g`` (both algebra maps of degree 0, stored on generators and
extended multiplicatively) together with a degree -1 homotopy ``phi``.  The
homotopy extends to products through the two-term rule

    phi(x * y) = (-1)^{|x|} x * phi(y) + phi(x) * g(f(y))

evaluated by left-factor recursion over the canonical monomial order: it is
the ``differential.Extension`` derivation whose right leg is ``g f``.  A
generator missing from the ``phi`` table maps to zero; one missing from the
``f`` or ``g`` table raises ``KeyError`` naming it.
``check_contraction`` evaluates all the identities that make the triple a
full algebra contraction, on every basis monomial up to a degree cap, in
exact arithmetic; failures are reported as data, not exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .differential import DGAlgebra, Extension
from .graded_algebra import (
    Elem,
    Mono,
    Signature,
    basis_monomials,
    elem_add,
    elem_is_zero,
    elem_mul,
    elem_neg,
    elem_scale,
    elem_sub,
    mono_degree,
    mono_elem,
    mono_str,
)


def homotopy_extension(sig: Signature, phi_table: Mapping[int, Elem],
                       f_ev: Extension, g_ev: Extension) -> Extension:
    """``phi`` extended by the two-leg rule, its right leg ``g f`` read through
    the given cached ``f`` and ``g`` evaluators."""
    return Extension(sig, phi_table, lambda r: g_ev.on_element(f_ev.on_monomial(r)))


@dataclass(frozen=True)
class FullContraction:
    """Output record of the minimization run.

    ``W`` lists the surviving generator indices in declaration order, ``dW``
    their induced derivatives; ``f`` (projection) and ``phi`` (homotopy) are
    defined on every source generator, ``g`` (inclusion) on ``W`` only.  The
    four tables are plain ``{generator index: element}`` dicts, the sweep's
    own, and nothing writes to them afterwards.  ``pairs`` records each
    (killer, killed) generator pair.
    """

    source: DGAlgebra
    W: Tuple[int, ...]
    dW: Mapping[int, Elem]
    f: Mapping[int, Elem]
    g: Mapping[int, Elem]
    phi: Mapping[int, Elem]
    pairs: Tuple[Tuple[int, int], ...]

    @property
    def sig(self) -> Signature:
        return self.source.sig

    def w_generators(self):
        return tuple(self.sig.generators[i] for i in self.W)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    ok: bool
    counterexample: Optional[str] = None

    def __str__(self) -> str:
        if self.ok:
            return f"{self.name}: pass"
        return f"{self.name}: FAIL at {self.counterexample}"


@dataclass(frozen=True)
class ContractionReport:
    checks: Tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def _mono_splits(m: Mono):
    """Contiguous splits of the expanded factor sequence, both halves canonical."""
    copies: List[int] = []
    for i, e in m:
        copies.extend([i] * e)
    for t in range(1, len(copies)):
        left = copies[:t]
        right = copies[t:]
        yield _pack(left), _pack(right)


def _pack(copies: List[int]) -> Mono:
    out = []
    for i in copies:
        if out and out[-1][0] == i:
            out[-1] = (i, out[-1][1] + 1)
        else:
            out.append((i, 1))
    return tuple(out)


def check_contraction(c: FullContraction, max_degree: int) -> ContractionReport:
    """Evaluate every contraction identity on basis monomials up to the cap."""
    sig = c.sig
    f_ev = Extension(sig, c.f)
    g_ev = Extension(sig, c.g)
    phi_ev = homotopy_extension(sig, c.phi, f_ev, g_ev)
    d_ev = Extension(sig, c.source.diff, mono_elem)
    dw_ev = Extension(sig, c.dW, mono_elem)

    v_basis: List[Mono] = []
    for p in range(max_degree + 1):
        v_basis.extend(basis_monomials(sig, p))
    in_w = set(c.W)
    w_basis = [m for m in v_basis if all(i in in_w for i, _ in m)]

    failures: Dict[str, str] = {}

    def record(name: str, residual: Elem, m: Mono) -> None:
        if name not in failures and not elem_is_zero(residual):
            failures[name] = mono_str(sig, m)

    for m in v_basis:
        me = mono_elem(m)
        fm = f_ev.on_monomial(m)
        dm = d_ev.on_monomial(m)
        phim = phi_ev.on_monomial(m)
        # f phi = 0
        record("f phi = 0", f_ev.on_element(phim), m)
        # phi phi = 0
        record("phi phi = 0", phi_ev.on_element(phim), m)
        # id - gf = phi d + d phi
        lhs = elem_sub(me, g_ev.on_element(fm))
        rhs = elem_add(phi_ev.on_element(dm), d_ev.on_element(phim))
        record("id - gf = phi d + d phi", elem_sub(lhs, rhs), m)
        # f d = dW f
        record("f d = dW f", elem_sub(f_ev.on_element(dm), dw_ev.on_element(fm)), m)

    for m in w_basis:
        gm = g_ev.on_monomial(m)
        # f g = id
        record("f g = id", elem_sub(f_ev.on_element(gm), mono_elem(m)), m)
        # phi g = 0
        record("phi g = 0", phi_ev.on_element(gm), m)
        # d g = g dW
        dwm = dw_ev.on_monomial(m)
        record("d g = g dW", elem_sub(d_ev.on_element(gm), g_ev.on_element(dwm)), m)
        # dW dW = 0
        record("dW dW = 0", dw_ev.on_element(dwm), m)

    def rule(u: Mono, v: Mono) -> Elem:
        # phi(u*v) = (-1)^{|u|} u*phi(v) + phi(u)*gf(v), gf read from phi's right leg
        left = elem_mul(sig, mono_elem(u), phi_ev.on_monomial(v))
        if mono_degree(sig, u) % 2:
            left = elem_neg(left)
        phi_u = phi_ev.on_monomial(u)
        if not phi_u:
            return left
        return elem_add(left, elem_mul(sig, phi_u, phi_ev.right(v)))

    # extension coherence: both maps agree with every factorization of a product
    for m in v_basis:
        fm = f_ev.on_monomial(m)
        phim = phi_ev.on_monomial(m)
        for x, y in _mono_splits(m):
            dx = mono_degree(sig, x)
            dy = mono_degree(sig, y)
            swap = -1 if (dx % 2 and dy % 2) else 1
            fx, fy = f_ev.on_monomial(x), f_ev.on_monomial(y)
            record("f mu = mu (f x f)",
                   elem_sub(fm, elem_mul(sig, fx, fy)), m)
            record("f mu = mu (f x f)",
                   elem_sub(elem_scale(fm, swap), elem_mul(sig, fy, fx)), m)
            record("phi mu rule", elem_sub(phim, rule(x, y)), m)
            record("phi mu rule", elem_sub(elem_scale(phim, swap), rule(y, x)), m)

    names = [
        "f g = id", "f phi = 0", "phi g = 0", "phi phi = 0",
        "id - gf = phi d + d phi", "f d = dW f", "d g = g dW", "dW dW = 0",
        "f mu = mu (f x f)", "phi mu rule",
    ]
    checks = tuple(
        IdentityCheck(n, n not in failures, failures.get(n)) for n in names)
    return ContractionReport(checks)
