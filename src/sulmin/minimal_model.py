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
  alpha, j is removed, and the tables are corrected.

The correction composes the contraction with the elementary one that
collapses the pair (FHT, §14).  On f it is the algebra map j -> j - a/alpha,
which on a linear occurrence of j is the module layer's update f(x) -=
lambda * a.  On phi it adds the pair homotopy, which sends j to m/alpha and
every other generator to zero, with the substitution as its right leg.  So
the linear part of every f, g and phi entry is the module layer's.

A collapse touches only the entries that mention j, and these leave the
surviving subalgebra once j does, so one test, ``outside``, finds them.  A
survivor's f image is itself and a killer's is zero, so only the generators
killed so far, j included, have f and phi entries to correct.  Among the
survivors, an index from each generator to the survivors whose derivative
may mention it names the ones a collapse rewrites; g is still snapshot
whole.  The substitution reads one identity table under its one changed
entry.

Each step checks that a bears the module layer's decision, and after the
sweep the induced derivative is recomputed from the final tables and
checked: against the maintained per-step values, for minimality, for
squaring to zero, and for agreement with f(d(g(w))).  Any failure is an
internal invariant breach and raises.
"""

from __future__ import annotations

from collections import ChainMap
from typing import Dict, List

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
    mono_factors,
    mono_gen,
    mono_str,
    q_div,
)
from .morphisms import FullContraction, homotopy_extension


class SullivanValidationError(ValueError):
    """The input fails the ordered Sullivan contract; ``problems`` lists
    every violation, as ``validate_sullivan`` returns them."""

    def __init__(self, problems: List[str]):
        super().__init__("\n".join(problems))
        self.problems = problems


class InternalInvariantError(RuntimeError):
    """State corruption inside the sweep; indicates a bug, never bad input."""


def _d_preimage(prefix: Signature, d_ev: Extension, degree: int, target: Elem) -> Elem:
    """Deterministic solution u of d(u) = target over the generators of the
    prefix signature ``prefix``: the kernel vector of the target's column,
    which no order of the row keys changes.  ``column_reduce`` appends a
    column's kernel vector only when that column reduces to zero, with the
    column's own position at coefficient 1 and otherwise only earlier
    positions; the target's column comes last, so only ``kernel[-1]`` can
    hold it, and it does exactly when the target is a derivative."""
    basis = basis_monomials(prefix, degree)
    _, kernel = column_reduce([d_ev.on_monomial(m) for m in basis] + [target])
    last = len(basis)
    if not kernel or last not in kernel[-1]:
        raise InternalInvariantError("no derivative preimage for a chain correction")
    return {basis[pos]: -c for pos, c in kernel[-1].items() if pos != last}


def compute_minimal_model(dga: DGAlgebra) -> FullContraction:
    problems = validate_sullivan(dga)
    if problems:
        raise SullivanValidationError(problems)

    sig = dga.sig
    # the module layer decides every collapse: the pairs of (V, d0), the
    # linear part of d, are the pairs of the algebra
    linear = DGModule(tuple((gen.name, gen.degree) for gen in sig),
                      {i: linear_part(sig, dx) for i, dx in dga.diff.items()})
    pairs = compute_at_model(linear).pairs
    killed = dict(pairs)
    targets = []  # the generators killed so far
    f: Dict[int, Elem] = {}
    g: Dict[int, Elem] = {}
    phi: Dict[int, Elem] = {}
    # the running f-projection of each survivor's derivative; its keys are
    # the survivors so far, in declaration order
    dw_current: Dict[int, Elem] = {}

    # generator -> the survivors whose dw_current entry may mention it
    users: Dict[int, set] = {}
    factors: Dict[int, frozenset] = {}  # the generators of each monomial met

    def gens(m) -> frozenset:
        if m not in factors:
            factors[m] = frozenset(k for k, _ in mono_factors(sig, m))
        return factors[m]

    def outside(m) -> bool:
        """Whether monomial m leaves the survivors' subalgebra."""
        return not dw_current.keys() >= gens(m)

    def set_dw(w: int, dw: Elem) -> None:
        dw_current[w] = dw
        for m in dw:
            for k in gens(m):
                users.setdefault(k, set()).add(w)

    identity = {k: elem_gen(sig, k) for k in range(len(sig))}
    d_ev = dga.ev
    for i in range(len(sig)):
        di = dga.d_of(i)
        f_ev = Extension(sig, f)
        g_ev = Extension(sig, g)
        phi_ev = homotopy_extension(sig, phi, f_ev, g_ev)
        a = f_ev.on_element(di)
        b = elem_sub(elem_gen(sig, i), phi_ev.on_element(di))

        for m in a:
            if outside(m):
                raise InternalInvariantError(
                    f"projected derivative of {sig.name(i)} leaves the surviving "
                    f"subalgebra at term {mono_str(sig, m)}")

        # phi's recursion can undershoot on products once earlier pairs
        # interact, leaving b short of d(b) = g(a); repair with an exact
        # derivative preimage, projected off the surviving part (never
        # triggers on inputs whose pairs do not interact)
        residual = elem_sub(d_ev.on_element(b), g_ev.on_element(a))
        if residual:
            delta = _d_preimage(Signature(sig.generators[:i]), d_ev, sig.degree(i), residual)
            delta = elem_sub(delta, g_ev.on_element(f_ev.on_element(delta)))
            b = elem_sub(b, delta)
            if elem_sub(d_ev.on_element(b), g_ev.on_element(a)):
                raise InternalInvariantError(
                    f"chain correction failed for {sig.name(i)}")

        target = killed.get(i)
        phi[i] = {}
        if target is None:
            if not in_lambda_geq2(sig, a):
                raise InternalInvariantError(
                    f"projected derivative of {sig.name(i)} is not a product, "
                    "yet the module layer keeps it")
            f[i] = elem_gen(sig, i)
            g[i] = b
            set_dw(i, a)
        else:
            alpha = a.get(mono_gen(sig, target))
            if not alpha:
                raise InternalInvariantError(
                    f"projected derivative of {sig.name(i)} does not hold "
                    f"{sig.name(target)}, which the module layer pairs it with")
            del dw_current[target]
            targets.append(target)
            f[i] = {}

            inverse = q_div(1, alpha)
            replacement = elem_sub(elem_gen(sig, target), elem_scale(a, inverse))
            kill_image = elem_scale(elem_gen(sig, i), inverse)
            # the collapse substitutes target -> replacement; its homotopy
            # sends target to kill_image and every other generator to zero
            subst = Extension(sig, ChainMap({target: replacement}, identity))
            pair_phi = Extension(sig, {target: kill_image}, subst.on_monomial)

            # g's snapshot; the killer embeds as b while the collapse composes
            g_mid_ev = Extension(sig, {**g, i: b})
            g.pop(target, None)

            def collapse(x: Elem):
                """x substituted, and the homotopy term its image absorbs."""
                return subst.on_element(x), g_mid_ev.on_element(pair_phi.on_element(x))

            for k in targets:
                if any(map(outside, f[k])):
                    f[k], correction = collapse(f[k])
                    phi[k] = elem_add(phi[k], correction)
            # g absorbs the homotopy term, so it stays a chain map.  Only a
            # survivor whose derivative mentions the target leaves the
            # survivors' subalgebra
            for w in sorted(users.pop(target, ())):
                dw = dw_current.get(w)
                if dw is not None and any(map(outside, dw)):
                    dw, correction = collapse(dw)
                    set_dw(w, dw)
                    g[w] = elem_sub(g[w], correction)

    # finalize the induced derivative from the final projection table
    W = tuple(dw_current)
    f_ev = Extension(sig, f)
    dW: Dict[int, Elem] = {}
    for w in W:
        final = f_ev.on_element(d_ev.on_monomial(mono_gen(sig, w)))
        if final != dw_current[w]:
            raise InternalInvariantError(
                f"induced derivative of {sig.name(w)} drifted from its recorded value")
        fdg = f_ev.on_element(d_ev.on_element(g[w]))
        if fdg != final:
            raise InternalInvariantError(
                f"induced derivative of {sig.name(w)} disagrees with f(d(g({sig.name(w)})))")
        if final:
            dW[w] = final
    # one test over every term, as cli.verify_algebra makes it: a test per
    # survivor would rebuild the survivors' mask once for each
    if not in_lambda_geq2(sig, {m: 1 for dv in dW.values() for m in dv}, W):
        raise InternalInvariantError("induced derivative is not minimal")
    for w in W:
        if f[w] != elem_gen(sig, w):
            raise InternalInvariantError(f"projection does not fix {sig.name(w)}")
    c = FullContraction(source=dga, W=W, dW=dW, f=f, g=g, phi=phi, pairs=pairs)
    for w, dv in dW.items():
        if c.model.ev.on_element(dv):
            raise InternalInvariantError(
                f"induced derivative does not square to zero on {sig.name(w)}")
    return c

