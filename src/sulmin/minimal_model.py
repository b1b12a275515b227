"""Incremental minimization of a free graded-commutative DG-algebra.

The sweep decides no collapse itself.  The generators of the minimal model
are H(V, d0), the homology of the linear part d0 of d (FHT, *Rational
Homotopy Theory*, Thm 14.9), so the module AT-model of (V, d0), computed by
``at_model``'s pairing loop, names every contractible pair.  The sweep lifts
that contraction to products, generator by generator in declaration order.
For each generator m it looks at a = f(d(m)), the projected derivative, and
b = m - phi(d(m)):

* the module layer keeps m: m survives, f(m) = m, g(m) = b, phi(m) = 0, and
  a, a word of length >= 2 in the surviving generators, is the induced
  derivative of m.
* the module layer pairs m with j: a holds j linearly with coefficient
  alpha, j is removed, and the earlier f/phi tables are corrected.

The correction realizes the composition with the elementary contraction that
collapses the pair.  On f it substitutes j -> j - a/alpha (an algebra map),
which on a linear occurrence of j is exactly the module layer's column update
f(x) -= lambda * a; the substitution form also clears occurrences of j inside
product terms, which the linear update cannot reach, and keeps every f image
inside the surviving subalgebra.  The phi correction is the matching homotopy
term, again reducing to phi(x) += lambda * b on linear occurrences: the pair
homotopy sends j to m/alpha and every other generator to zero, and extends
to products with the substitution as its right leg.  Both are
``differential.Extension`` evaluators, as are f, g, phi and d themselves.
So the linear part of every f, g and phi entry is the module layer's.

Each step checks that a bears the module layer's decision, and after the
sweep the induced derivative is recomputed from the final tables and
checked: against the maintained per-step values, for minimality, for
squaring to zero, and for agreement with f(d(g(w))).  Any failure is an
internal invariant breach and raises.
"""

from __future__ import annotations

from typing import Dict

from .at_model import DGModule, compute_at_model
from .differential import DGAlgebra, Extension, validate_sullivan
from .homology_oracle import column_reduce
from .graded_algebra import (
    Elem,
    Signature,
    basis_monomials,
    elem_add,
    elem_gen,
    elem_scale,
    elem_sub,
    in_lambda_geq2,
    linear_part,
    mono_gen,
    mono_key,
    mono_str,
    q_div,
    subset_test,
)
from .morphisms import FullContraction, homotopy_extension


class SullivanValidationError(ValueError):
    """The input fails the ordered Sullivan contract."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class InternalInvariantError(RuntimeError):
    """State corruption inside the sweep; indicates a bug, never bad input."""


def _d_preimage(sig: Signature, d_ev: Extension, degree: int, earlier,
                target: Elem) -> Elem:
    """Deterministic solution u of d(u) = target over the earlier generators.

    Rows are keyed by ``mono_key``, so the pivots, and with them the solution,
    follow the canonical monomial order."""
    basis = basis_monomials(sig, degree, earlier)
    columns = [d_ev.on_monomial(m) for m in basis] + [target]
    _, kernel = column_reduce([{mono_key(sig, m): c for m, c in col.items()}
                               for col in columns])
    last = len(basis)
    for combo in kernel:
        c_last = combo.get(last)
        if c_last:
            # kernel positions are distinct and their coefficients nonzero
            return {basis[pos]: q_div(-c, c_last) for pos, c in combo.items() if pos != last}
    raise InternalInvariantError("no derivative preimage for a chain correction")


def compute_minimal_model(dga: DGAlgebra) -> FullContraction:
    report = validate_sullivan(dga)
    if not report.ok:
        raise SullivanValidationError(report)

    sig = dga.sig
    # the module layer decides every collapse: the pairs of (V, d0), the
    # linear part of d, are the pairs of the algebra
    linear = DGModule(tuple((gen.name, gen.degree) for gen in sig),
                      {i: linear_part(sig, dx) for i, dx in dga.diff.items()})
    pairs = compute_at_model(linear).pairs
    killed = dict(pairs)
    f: Dict[int, Elem] = {}
    g: Dict[int, Elem] = {}
    phi: Dict[int, Elem] = {}
    # the running f-projection of each survivor's derivative; its keys are
    # the survivors so far, in declaration order
    dw_current: Dict[int, Elem] = {}

    d_ev = dga.ev
    for i in range(len(sig)):
        di = dga.d_of(i)
        f_ev = Extension(sig, f)
        g_ev = Extension(sig, g)
        phi_ev = homotopy_extension(sig, phi, f_ev, g_ev)
        a = f_ev.on_element(di)
        b = elem_sub(elem_gen(sig, i), phi_ev.on_element(di))

        surviving = subset_test(sig, dw_current)
        for m in a:
            if not surviving(m):
                raise InternalInvariantError(
                    f"projected derivative of {sig.name(i)} leaves the surviving "
                    f"subalgebra at term {mono_str(sig, m)}")

        # the recursion for phi can undershoot on products once earlier pairs
        # interact, leaving b short of the chain property d(b) = g(a); repair
        # with an exact derivative preimage, projected off the surviving part
        # (never triggers on inputs whose pairs do not interact)
        residual = elem_sub(d_ev.on_element(b), g_ev.on_element(a))
        if residual:
            delta = _d_preimage(sig, d_ev, sig.degree(i), range(i), residual)
            delta = elem_sub(delta, g_ev.on_element(f_ev.on_element(delta)))
            b = elem_sub(b, delta)
            if elem_sub(d_ev.on_element(b), g_ev.on_element(a)):
                raise InternalInvariantError(
                    f"chain correction failed for {sig.name(i)}")

        target = killed.get(i)
        if target is None:
            if not in_lambda_geq2(sig, a, dw_current):
                raise InternalInvariantError(
                    f"projected derivative of {sig.name(i)} is not a product, "
                    "yet the module layer keeps it")
            f[i] = elem_gen(sig, i)
            g[i] = b
            phi[i] = {}
            dw_current[i] = a
        else:
            alpha = a.get(mono_gen(sig, target))
            if not alpha:
                raise InternalInvariantError(
                    f"projected derivative of {sig.name(i)} does not hold "
                    f"{sig.name(target)}, which the module layer pairs it with")
            del dw_current[target]
            f[i] = {}
            phi[i] = {}

            inverse = q_div(1, alpha)
            replacement = elem_sub(elem_gen(sig, target), elem_scale(a, inverse))
            kill_image = elem_scale(elem_gen(sig, i), inverse)
            # the collapse substitutes target -> replacement (an algebra map);
            # its homotopy sends target to kill_image, every other generator to
            # zero, and has the substitution as its right leg
            subst_table = {k: elem_gen(sig, k) for k in range(i)}
            subst_table[target] = replacement
            subst = Extension(sig, subst_table)
            pair_phi = Extension(sig, {target: kill_image}, subst.on_monomial)

            g_mid = dict(g)
            g_mid[i] = b  # the killer embeds as b while the collapse composes
            g_mid_ev = Extension(sig, g_mid)
            g.pop(target, None)

            avoids_target = subset_test(sig, (k for k in range(len(sig)) if k != target))

            def mentions_target(x: Elem) -> bool:
                return not all(map(avoids_target, x))

            for k in range(i):
                fk = f[k]
                if mentions_target(fk):
                    f[k] = subst.on_element(fk)
                    correction = pair_phi.on_element(fk)
                    phi[k] = elem_add(phi[k], g_mid_ev.on_element(correction))
            # a survivor whose induced derivative mentioned the killed
            # generator changes derivative under the substitution, and its
            # inclusion image must absorb the matching homotopy term to stay
            # a chain map (no-op whenever the killed generator only ever
            # appeared linearly, as in the small worked cases)
            for w, dw in dw_current.items():
                if mentions_target(dw):
                    correction = pair_phi.on_element(dw)
                    g[w] = elem_sub(g[w], g_mid_ev.on_element(correction))
                    dw_current[w] = subst.on_element(dw)

    # finalize the induced derivative from the final projection table
    W = tuple(dw_current)
    f_ev = Extension(sig, f)
    dW: Dict[int, Elem] = {}
    for w in W:
        final = f_ev.on_element(d_ev.on_monomial(mono_gen(sig, w)))
        if final != dw_current[w]:
            raise InternalInvariantError(
                f"induced derivative of {sig.name(w)} drifted from its recorded value")
        if not in_lambda_geq2(sig, final, W):
            raise InternalInvariantError(
                f"induced derivative of {sig.name(w)} is not minimal")
        fdg = f_ev.on_element(d_ev.on_element(g[w]))
        if fdg != final:
            raise InternalInvariantError(
                f"induced derivative of {sig.name(w)} disagrees with f(d(g({sig.name(w)})))")
        if final:
            dW[w] = final
    for w in W:
        if f[w] != elem_gen(sig, w):
            raise InternalInvariantError(f"projection does not fix {sig.name(w)}")
    c = FullContraction(source=dga, W=W, dW=dW, f=f, g=g, phi=phi, pairs=pairs)
    for w, dv in dW.items():
        if c.model.ev.on_element(dv):
            raise InternalInvariantError(
                f"induced derivative does not square to zero on {sig.name(w)}")
    return c

