"""Seeded random generators for valid ordered inputs.

Used by the property suites and the stress script.  Derivative candidates are
drawn from the exact cocycle space over the earlier generators, so every
sample satisfies the full ordered contract (homogeneous degree +1, squares to
zero, mentions earlier generators only) by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List

from .at_model import DGModule, Lin
from .differential import DGAlgebra, Extension
from .graded_algebra import (
    Elem,
    Signature,
    basis_monomials,
    lin_axpy,
    mono_elem,
)
from .homology_oracle import column_reduce

_COEFF_POOL = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)]


def _cocycle_space(prefix: Signature, diff: Dict[int, Elem], degree: int) -> List[Elem]:
    """Basis of the degree-``degree`` cocycles over the generators of the
    prefix signature ``prefix``, whose derivatives ``diff`` holds: the
    kernel of ``d`` on the degree basis, which no order of the row keys
    changes."""
    basis = basis_monomials(prefix, degree)
    if not basis:
        return []
    ev = Extension(prefix, diff, mono_elem)
    _, kernel = column_reduce([ev.on_monomial(b) for b in basis])
    # kernel positions are distinct and their coefficients nonzero
    return [{basis[pos]: c for pos, c in combo.items()} for combo in kernel]


def random_sullivan_algebra(rng: random.Random, max_gens: int = 8,
                            max_degree: int = 4) -> DGAlgebra:
    n = rng.randint(4, max_gens)
    pairs = []
    for i in range(n):
        deg = rng.randint(1, max_degree)
        pairs.append((f"g{i}", deg))
    sig = Signature.from_pairs(pairs)
    diff: Dict[int, Elem] = {}
    for i in range(n):
        if rng.random() < 0.4:  # leave the generator closed
            continue
        space = _cocycle_space(Signature(sig.generators[:i]), diff, sig.degree(i) + 1)
        if not space:
            continue
        picks = rng.randint(1, min(3, len(space)))
        chosen = rng.sample(space, picks)
        value: Elem = {}
        for vec in chosen:
            lin_axpy(value, rng.choice(_COEFF_POOL), vec)
        if value:
            diff[i] = value
    return DGAlgebra(sig, diff)


def random_dg_module(rng: random.Random, max_gens: int = 30,
                     max_degree: int = 5) -> DGModule:
    n = rng.randint(2, max_gens)
    gens = []
    for i in range(n):
        gens.append((f"m{i}", rng.randint(0, max_degree)))
    diff: Dict[int, Lin] = {}
    for i in range(n):
        if rng.random() < 0.35:  # leave the generator closed
            continue
        deg = gens[i][1]
        earlier = [k for k in range(i) if gens[k][1] == deg + 1]
        if not earlier:
            continue
        # kernel of d restricted to the earlier degree-(deg+1) generators
        _, kernel = column_reduce([diff.get(k, {}) for k in earlier])
        if not kernel:
            continue
        picks = rng.randint(1, min(3, len(kernel)))
        value: Lin = {}
        for combo in rng.sample(kernel, picks):
            lin_axpy(value, rng.choice(_COEFF_POOL),
                     {earlier[t]: coef for t, coef in combo.items()})
        if value:
            diff[i] = value
    return DGModule(tuple(gens), diff)
