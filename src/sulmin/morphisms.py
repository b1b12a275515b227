"""Generator-indexed morphism tables and the contraction identity checker.

A contraction to the small algebra consists of a projection ``f`` and an
inclusion ``g`` (both algebra maps of degree 0, stored on generators and
extended multiplicatively) together with a degree -1 homotopy ``phi``.  The
homotopy extends to products through the two-term rule

    phi(x * y) = (-1)^{|x|} x * phi(y) + phi(x) * g(f(y))

evaluated by left-factor recursion over the canonical monomial order.
``check_contraction`` evaluates all the identities that make the triple a
full algebra contraction, on every basis monomial up to a degree cap, in
exact arithmetic; failures are reported as data, not exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .differential import DGAlgebra, DiffEvaluator, linear_extension
from .graded_algebra import (
    Elem,
    Mono,
    Signature,
    basis_monomials,
    elem_add,
    elem_degree,
    elem_gen,
    elem_is_zero,
    elem_mul,
    elem_one,
    elem_scale,
    elem_sub,
    mono_degree,
    mono_elem,
    mono_str,
)


@dataclass(frozen=True)
class GeneratorMap:
    """Table of generator images; degree 0 maps extend multiplicatively,
    degree -1 maps through the homotopy rule."""

    sig: Signature
    table: Mapping[int, Elem]
    map_degree: int = 0

    def __post_init__(self):
        object.__setattr__(self, "table", {i: dict(e) for i, e in self.table.items()})

    def image(self, index: int) -> Elem:
        try:
            return self.table[index]
        except KeyError:
            raise KeyError(f"no image for generator {self.sig.name(index)}") from None

    def validate(self) -> List[str]:
        problems = []
        for i, img in sorted(self.table.items()):
            want = self.sig.degree(i) + self.map_degree
            try:
                d = elem_degree(self.sig, img)
            except ValueError:
                problems.append(f"image of {self.sig.name(i)} is not homogeneous")
                continue
            if d is not None and d != want:
                problems.append(
                    f"image of {self.sig.name(i)} has degree {d}, expected {want}")
        return problems


class MapEvaluator:
    """Multiplicative extension of a degree-0 generator table, with caching."""

    def __init__(self, sig: Signature, table: Mapping[int, Elem]):
        self.sig = sig
        self.table = table
        self._cache: Dict[Mono, Elem] = {(): elem_one()}

    def on_monomial(self, m: Mono) -> Elem:
        cached = self._cache.get(m)
        if cached is not None:
            return cached
        (i, e) = m[0]
        rest: Mono = ((i, e - 1),) + m[1:] if e > 1 else m[1:]
        try:
            head = self.table[i]
        except KeyError:
            raise KeyError(f"no image for generator {self.sig.name(i)}") from None
        out = elem_mul(self.sig, head, self.on_monomial(rest))
        self._cache[m] = out
        return out

    on_element = linear_extension


class HomotopyEvaluator:
    """Homotopy extension of a degree -1 table against given f and g tables."""

    def __init__(self, sig: Signature, phi_table: Mapping[int, Elem],
                 f_ev: MapEvaluator, g_ev: MapEvaluator):
        self.sig = sig
        self.phi_table = phi_table
        self.f_ev = f_ev
        self.g_ev = g_ev
        self._cache: Dict[Mono, Elem] = {(): {}}

    def on_monomial(self, m: Mono) -> Elem:
        cached = self._cache.get(m)
        if cached is not None:
            return cached
        (i, e) = m[0]
        rest: Mono = ((i, e - 1),) + m[1:] if e > 1 else m[1:]
        # (-1)^{|g|} g * phi(rest)
        tail = self.on_monomial(rest)
        out: Elem = {}
        if tail:
            out = elem_mul(self.sig, elem_gen(self.sig, i), tail)
            if self.sig.degree(i) % 2:
                out = {mm: -c for mm, c in out.items()}
        # phi(g) * g(f(rest))
        try:
            head = self.phi_table[i]
        except KeyError:
            raise KeyError(f"no homotopy image for generator {self.sig.name(i)}") from None
        if head:
            gf_rest = self.g_ev.on_element(self.f_ev.on_monomial(rest))
            term = elem_mul(self.sig, head, gf_rest)
            out = elem_add(out, term)
        self._cache[m] = out
        return out

    on_element = linear_extension


def apply_multiplicative(gmap: GeneratorMap, x: Elem) -> Elem:
    if gmap.map_degree != 0:
        raise ValueError("multiplicative extension needs a degree-0 map")
    return MapEvaluator(gmap.sig, gmap.table).on_element(x)


def apply_homotopy(phi: GeneratorMap, f: GeneratorMap, g: GeneratorMap, x: Elem) -> Elem:
    if phi.map_degree != -1:
        raise ValueError("homotopy extension needs a degree -1 map")
    f_ev = MapEvaluator(f.sig, f.table)
    g_ev = MapEvaluator(g.sig, g.table)
    return HomotopyEvaluator(phi.sig, phi.table, f_ev, g_ev).on_element(x)


@dataclass(frozen=True)
class FullContraction:
    """Output record of the minimization run.

    ``W`` lists the surviving generator indices in declaration order, ``dW``
    their induced derivatives; ``f`` (projection) and ``phi`` (homotopy) are
    defined on every source generator, ``g`` (inclusion) on ``W`` only.
    ``pairs`` records each (killer, killed) generator pair.
    """

    source: DGAlgebra
    W: Tuple[int, ...]
    dW: Mapping[int, Elem]
    f: GeneratorMap
    g: GeneratorMap
    phi: GeneratorMap
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
    f_ev = MapEvaluator(sig, c.f.table)
    g_ev = MapEvaluator(sig, c.g.table)
    phi_ev = HomotopyEvaluator(sig, c.phi.table, f_ev, g_ev)
    d_ev = DiffEvaluator(sig, c.source.diff)
    dw_ev = DiffEvaluator(sig, c.dW)

    v_basis: List[Mono] = []
    w_basis: List[Mono] = []
    for p in range(max_degree + 1):
        v_basis.extend(basis_monomials(sig, p))
        w_basis.extend(basis_monomials(sig, p, c.W))

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

    # extension coherence: both maps agree with every factorization of a product
    for m in v_basis:
        for x, y in _mono_splits(m):
            dx = mono_degree(sig, x)
            dy = mono_degree(sig, y)
            swap = -1 if (dx % 2 and dy % 2) else 1
            fx, fy = f_ev.on_monomial(x), f_ev.on_monomial(y)
            fm = f_ev.on_monomial(m)
            record("f mu = mu (f x f)",
                   elem_sub(fm, elem_mul(sig, fx, fy)), m)
            record("f mu = mu (f x f)",
                   elem_sub(elem_scale(fm, swap), elem_mul(sig, fy, fx)), m)
            # phi(x*y) = (-1)^{|x|} x*phi(y) + phi(x)*gf(y), in both factor orders
            phim = phi_ev.on_monomial(m)

            def rule(u: Mono, v: Mono) -> Elem:
                left = elem_mul(sig, mono_elem(u), phi_ev.on_monomial(v))
                if mono_degree(sig, u) % 2:
                    left = {mm: -cc for mm, cc in left.items()}
                gf_v = g_ev.on_element(f_ev.on_monomial(v))
                return elem_add(left, elem_mul(sig, phi_ev.on_monomial(u), gf_v))

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
