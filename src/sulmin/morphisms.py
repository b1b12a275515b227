"""Generator-indexed morphism tables and the contraction identity checker.

``MachineDocument`` declares the six tables of a contraction once, as the
machine document holds them; ``FullContraction``, the minimization run's
output, extends it with the source algebra and the model algebra of ``dW``.

A contraction to the small algebra consists of a projection ``f`` and an
inclusion ``g`` (both algebra maps of degree 0, stored on generators and
extended multiplicatively) together with a degree -1 homotopy ``phi``.  The
homotopy extends to products through the two-term rule

    phi(x * y) = (-1)^{|x|} x * phi(y) + phi(x) * g(f(y))

evaluated left factor by left factor over the canonical monomial order: it is
the ``differential.Extension`` derivation whose right leg is ``g f``.
``homotopy_extension`` reads that leg through the ``f`` and ``g``
evaluators, with no memo of ``g f`` of its own, and the checker reads the
same leg for ``id - gf`` and for the product rule.  The ``id - gf`` sum
starts from ``gf(m)``, a new dict, and accumulates ``phi(d m)`` and ``d(phi
m)`` in place through ``Extension.add_into``, so neither image is built on
its own.  A generator missing from the ``phi`` table maps to zero; one
missing from the ``f`` or ``g`` table raises ``KeyError`` naming it.
``check_contraction`` decides all the identities that make the triple a
full algebra contraction, on every basis monomial up to a degree cap, in
exact arithmetic: the five that read no ``phi`` on generators where it can
(below), the others by a scan of the basis.  Each scanned identity is an
equality test between canonical elements, which is equality in the algebra,
and failures are reported as data, not exceptions.  An identity stops at
its first failure: the report keeps only the first failing monomial of
each, in basis order, so what a failed identity would still evaluate could
change no report.  ``f``, ``d`` and ``phi`` are evaluated on every basis
monomial all the same, so a generator up to the cap that is missing from
``f`` always raises.  The checker reads ``d`` through the source algebra's
shared evaluator and ``dW`` through the model algebra's,
``FullContraction.model``, which the oracle's survivor side reads too.  The
``phi`` product rule reads the images of a split's halves straight from the
``phi`` evaluator's cache, and the splits of every basis monomial come from
``graded_algebra.basis_splits``, which builds each monomial's list from its
suffix's.  A ``phi`` identity whose operand is zero is tested as the
emptiness of its other side (every map sends 0 to 0); the scan of the
``phi``-free identities, a fallback (below), has no such shortcut.

Five identities read no ``phi``: ``f d = dW f``, ``f g = id``, ``d g = g
dW``, ``dW dW = 0`` and ``f mu``.  ``_proved_on_generators`` decides them on
generators before the basis loops, under a precondition that reads the
tables alone: every source generator has an ``f`` entry and every ``W``
generator a ``g`` entry; ``f(v)``, ``g(w)``, ``d(v)`` and ``dW(w)`` are
homogeneous of degrees ``|v|``, ``|w|``, ``|v|+1`` and ``|w|+1``; and every
term of ``f(v)`` and of ``dW(w)`` lies in the survivors' subalgebra
``Lambda(W)``.  Then ``f`` and ``g`` are graded algebra maps and ``d`` and
``dW`` derivations, and a derivation, or a derivation along an algebra map,
is fixed by its values on generators (FHT, *Rational Homotopy Theory*, GTM
205): ``f d`` and ``dW f`` are derivations along ``f``, ``d g`` and ``g dW``
derivations along ``g`` on ``Lambda(W)``, ``f g`` is an algebra map, and
``dW dW = [dW, dW]/2`` is a derivation of ``Lambda(W)``.  A basis monomial
up to the cap has only letters up to the cap, so ``f(d v) = dW(f v)`` on the
generators up to the cap, and ``f(g w) = w``, ``d(g w) = g(dW w)`` and
``dW(dW w) = 0`` on those of ``W``, prove each identity on every basis
monomial; one that holds there is reported as a pass without a scan.  ``f
mu`` needs no check: it holds for images that keep their generator's degree
parity (below).  When a table fails the precondition nothing is decided and
all five are scanned, and an identity that fails on a generator is scanned
too.  The scan stops at the first failure in basis order, so the report is
the one the scan alone makes, and a generator missing from ``f`` or ``g``
raises the same ``KeyError``.

``f mu = mu (f x f)`` is tested in the reverse order only, ``(-1)^{|x||y|}
f(x*y) = f(y) f(x)``: the evaluator computes ``f(x*y)`` as the product of
its letters' images in the canonical order, which a split ``(x, y)`` cuts
without reordering, so the forward order holds by associativity for any
table, while the reverse one fails when an image breaks its generator's
degree parity.  The forward order of the ``phi mu rule`` holds by
construction only when ``g f`` is an algebra map, since the induction on the
left half needs ``g(f(u) f(v)) = g(f(u)) g(f(v))``, and a table from outside
need not make it one.  Under the precondition ``f`` maps into ``Lambda(W)``
and ``g`` preserves degree, so ``g f`` is one and the rule is tested in the
reverse order only; otherwise it is tested in both orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from .differential import DGAlgebra, Extension
from .graded_algebra import (
    Elem,
    Mono,
    Signature,
    basis_splits,
    elem_mul,
    elem_mul_into,
    elem_scale,
    mono_degree,
    mono_elem,
    mono_gen,
    mono_str,
    subset_test,
)


def homotopy_extension(sig: Signature, phi_table: Mapping[int, Elem],
                       f_ev: Extension, g_ev: Extension) -> Extension:
    """``phi`` extended by the two-leg rule.  Its right leg ``g f`` is read
    through the given cached ``f`` and ``g`` evaluators."""
    return Extension(sig, phi_table, lambda r: g_ev.on_element(f_ev.on_monomial(r)))


@dataclass(frozen=True)
class MachineDocument:
    """The six tables of a contraction, as a machine document holds them.

    ``W`` lists the surviving generator indices in declaration order, ``dW``
    their induced derivatives; ``f`` (projection) and ``phi`` (homotopy) are
    defined on every source generator, ``g`` (inclusion) on ``W`` only.  The
    four maps are plain ``{generator index: element}`` dicts, and nothing
    writes to them after construction.  ``pairs`` records each (killer,
    killed) generator pair.  ``dsl.parse_machine`` returns this record, and
    ``dsl.render_machine`` writes it.
    """

    W: Tuple[int, ...]
    dW: Mapping[int, Elem]
    f: Mapping[int, Elem]
    g: Mapping[int, Elem]
    phi: Mapping[int, Elem]
    pairs: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class FullContraction(MachineDocument):
    """Output record of the minimization run: the machine document's tables,
    the sweep's own, plus the algebra they contract.

    ``source`` is the input algebra.  ``model`` is the minimal model, the
    algebra of ``dW`` over the signature, built with the record and left out
    of ``==`` and ``repr``: its evaluator is the one reader of ``dW`` on
    monomials in a job.  Every caller builds the record with keywords.
    """

    source: DGAlgebra
    model: DGAlgebra = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "model", DGAlgebra(self.sig, self.dW))

    @property
    def sig(self) -> Signature:
        return self.source.sig


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


def _proved_on_generators(c: FullContraction, max_degree: int, f_ev: Extension,
                          g_ev: Extension, d_ev: Extension,
                          dw_ev: Extension) -> Optional[Tuple[str, ...]]:
    """The ``phi``-free identities that hold on every basis monomial up to
    the cap, decided on generators (see the module docstring); None when a
    table fails the precondition, and then nothing is decided.  It reads
    the tables and the given evaluators only."""
    sig = c.sig
    deg = sig.degree
    in_w = subset_test(sig, c.W)
    f, g, d, dw = f_ev.table, g_ev.table, d_ev.table, dw_ev.table

    def graded(x: Elem, p: int) -> bool:
        return all(mono_degree(sig, m) == p for m in x)

    if not (all(i in f and graded(f[i], deg(i)) and all(map(in_w, f[i]))
                and graded(d.get(i, {}), deg(i) + 1) for i in range(len(sig)))
            and all(w in g and graded(g[w], deg(w)) and graded(dw.get(w, {}), deg(w) + 1)
                    and all(map(in_w, dw.get(w, {}))) for w in c.W)):
        return None
    # a basis monomial up to the cap has only letters up to the cap
    v_gens = [mono_gen(sig, i) for i in range(len(sig)) if deg(i) <= max_degree]
    w_gens = [mono_gen(sig, w) for w in c.W if deg(w) <= max_degree]
    holds = {
        "f d = dW f": all(f_ev.on_element(d_ev.on_monomial(v))
                          == dw_ev.on_element(f_ev.on_monomial(v)) for v in v_gens),
        "f g = id": all(f_ev.on_element(g_ev.on_monomial(w)) == mono_elem(w)
                        for w in w_gens),
        "d g = g dW": all(d_ev.on_element(g_ev.on_monomial(w))
                          == g_ev.on_element(dw_ev.on_monomial(w)) for w in w_gens),
        "dW dW = 0": not any(dw_ev.on_element(dw_ev.on_monomial(w)) for w in w_gens),
    }
    return ("f mu = mu (f x f)",) + tuple(n for n, ok in holds.items() if ok)


def check_contraction(c: FullContraction, max_degree: int) -> ContractionReport:
    """Evaluate every contraction identity on basis monomials up to the cap.

    The ``phi``-free identities that ``_proved_on_generators`` proves on
    generators pass without a scan; when the tables fail its precondition,
    or an identity fails on a generator, that identity is scanned (see the
    module docstring).  Each scanned identity is an equality of canonical
    elements, or an emptiness test for the ``= 0`` identities, and is
    evaluated on every monomial (and every split: the reverse order for
    ``f mu``, the reverse order for the ``phi mu rule`` and, when the
    precondition fails, the forward order too) until its first failure,
    which the report keeps; the monomials come in basis order, so skipping
    a failed identity changes no report.  Where ``phi(m)``, or ``phi`` of
    both halves of a split, is zero, the ``phi`` identity is tested as the
    emptiness of its other side, which is the same test; the ``phi``-free
    identities are scanned with no zero shortcut.  The splits come from
    ``basis_splits``.
    ``f``, ``d`` and ``phi`` are evaluated on every basis monomial.
    """
    sig = c.sig
    f_ev = Extension(sig, c.f)
    g_ev = Extension(sig, c.g)
    phi_ev = homotopy_extension(sig, c.phi, f_ev, g_ev)
    gf = phi_ev.right
    d_ev = c.source.ev
    dw_ev = c.model.ev
    phi_cache = phi_ev.cache

    splits = basis_splits(sig, max_degree)
    w_basis = list(filter(subset_test(sig, c.W), splits))

    # an identity is tested only while it is open: one proved on generators
    # is settled as a pass (None), and a failure settles its first failing
    # monomial, after which the test of that identity is skipped
    proved = _proved_on_generators(c, max_degree, f_ev, g_ev, d_ev, dw_ev)
    settled: Dict[str, Optional[str]] = dict.fromkeys(proved or ())
    # the forward phi mu rule holds by construction when gf is an algebra
    # map, which the precondition makes it (see the module docstring)
    forward = proved is None

    def fail(name: str, m: Mono) -> None:
        settled[name] = mono_str(sig, m)

    def rule(u: Mono, du: int, phi_u: Elem, v: Mono, phi_v: Elem) -> Elem:
        # phi(u*v) = (-1)^{|u|} u*phi(v) + phi(u)*gf(v), for the halves of a
        # split, whose images are cached (see below)
        out: Elem = {}
        if phi_v:
            elem_mul_into(sig, out, {u: -1 if du % 2 else 1}, phi_v)
        if phi_u:
            elem_mul_into(sig, out, phi_u, gf(v))
        return out

    # a phi identity with a zero operand is tested as the emptiness of its
    # other side, since every map sends 0 to 0
    for m, m_splits in splits.items():
        # f is evaluated on every basis monomial, so a generator up to the
        # cap that is missing from its table raises KeyError
        fm = f_ev.on_monomial(m)
        dm = d_ev.on_monomial(m)
        phim = phi_ev.on_monomial(m)
        if phim and "f phi = 0" not in settled and f_ev.on_element(phim):
            fail("f phi = 0", m)
        if phim and "phi phi = 0" not in settled and phi_ev.on_element(phim):
            fail("phi phi = 0", m)
        if "id - gf = phi d + d phi" not in settled:
            # read as gf + phi d + d phi = id
            total = gf(m)
            phi_ev.add_into(total, dm)
            d_ev.add_into(total, phim)
            if total != mono_elem(m):
                fail("id - gf = phi d + d phi", m)
        if "f d = dW f" not in settled and f_ev.on_element(dm) != dw_ev.on_element(fm):
            fail("f d = dW f", m)
        # extension coherence: both maps agree with every factorization
        # (f in the reverse order only, see the module docstring).  Both
        # halves are basis monomials of lower degree, met earlier in this
        # loop, so their images are cached
        f_open = "f mu = mu (f x f)" not in settled
        phi_open = "phi mu rule" not in settled
        if not (f_open or phi_open):
            continue
        for x, dx, y, dy in m_splits:
            swap = -1 if dx & dy & 1 else 1
            if f_open and elem_scale(fm, swap) != elem_mul(
                    sig, f_ev.on_monomial(y), f_ev.on_monomial(x)):
                fail("f mu = mu (f x f)", m)
                f_open = False
            if phi_open:
                phix, phiy = phi_cache[x], phi_cache[y]
                if phix or phiy:
                    phi_open = (not forward or phim == rule(x, dx, phix, y, phiy)) \
                        and elem_scale(phim, swap) == rule(y, dy, phiy, x, phix)
                else:
                    phi_open = not phim
                if not phi_open:
                    fail("phi mu rule", m)

    for m in w_basis:
        gm = g_ev.on_monomial(m)
        dwm = dw_ev.on_monomial(m)
        if "f g = id" not in settled and f_ev.on_element(gm) != mono_elem(m):
            fail("f g = id", m)
        if "phi g = 0" not in settled and phi_ev.on_element(gm):
            fail("phi g = 0", m)
        if "d g = g dW" not in settled and d_ev.on_element(gm) != g_ev.on_element(dwm):
            fail("d g = g dW", m)
        if "dW dW = 0" not in settled and dw_ev.on_element(dwm):
            fail("dW dW = 0", m)

    names = [
        "f g = id", "f phi = 0", "phi g = 0", "phi phi = 0",
        "id - gf = phi d + d phi", "f d = dW f", "d g = g dW", "dW dW = 0",
        "f mu = mu (f x f)", "phi mu rule",
    ]
    checks = tuple(
        IdentityCheck(n, settled.get(n) is None, settled.get(n)) for n in names)
    return ContractionReport(checks)
