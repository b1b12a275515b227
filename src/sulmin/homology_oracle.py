"""Brute-force degreewise cohomology over the rationals.

Independent of the contraction machinery: enumerate the monomial basis degree
by degree, expand the differential of each basis monomial into the next
degree, and read off dim H^p = dim ker d^p - rank d^{p-1} from exact column
elimination.  Used to cross-check that a minimization run preserves
cohomology, and to validate module contractions.

Within one ``verify`` job the oracle shares two things with the checker: the
signature's memoised full bases (``basis_monomials``; a subset side filters
them) and the source algebra's differential evaluator ``DGAlgebra.ev``.  It
never reads the contraction's ``f``, ``g`` or ``phi``: the survivor side is
the algebra of ``dW`` on ``W``, with an evaluator of its own.

The ranks come from ``rank_of_columns``, a fraction-free integer elimination
that builds no kernel.  ``column_reduce`` is the separate rational
elimination that also returns kernel combinations; the sweep's chain
correction and the random input generators use it, the oracle does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .at_model import DGModule
from .differential import DGAlgebra, Extension
from .graded_algebra import (
    Coeff, Signature, _as_indices, basis_monomials, lin_axpy, mono_str, q_div)

SparseVec = Dict[int, Coeff]


def column_reduce(columns: Sequence[SparseVec]) -> Tuple[int, List[SparseVec]]:
    """Exact incremental elimination over sparse rational columns.

    Returns (rank, kernel combinations): each kernel combination maps column
    positions to coefficients of a vanishing linear relation.
    """
    pivots: Dict[int, Tuple[SparseVec, SparseVec]] = {}
    kernel: List[SparseVec] = []
    for pos, col in enumerate(columns):
        vec = dict(col)
        combo: SparseVec = {pos: 1}
        while vec:
            lead = min(vec)
            hit = pivots.get(lead)
            if hit is None:
                pivots[lead] = (vec, combo)
                break
            pvec, pcombo = hit
            factor = q_div(-vec[lead], pvec[lead])
            lin_axpy(vec, factor, pvec)
            lin_axpy(combo, factor, pcombo)
        else:
            kernel.append(combo)
    return len(pivots), kernel


def rank_of_columns(columns: Sequence[SparseVec]) -> int:
    """Rank of sparse rational columns by fraction-free integer elimination.

    Each column is scaled to integers by the lcm of its denominators and
    reduced by cross-multiplication against the stored pivot columns; a
    stored pivot is divided by the gcd of its entries.  Only ``int``
    arithmetic, and no kernel combinations are built.
    """
    pivots: Dict[int, Dict[int, int]] = {}
    for col in columns:
        den = 1
        for c in col.values():
            den = lcm(den, c.denominator)
        vec = {r: c.numerator * (den // c.denominator) for r, c in col.items() if c}
        while vec:
            lead = min(vec)
            pvec = pivots.get(lead)
            if pvec is None:
                content = gcd(*vec.values())
                pivots[lead] = {r: c // content for r, c in vec.items()}
                break
            p, v = pvec[lead], vec[lead]
            common = gcd(p, v)
            p //= common
            v //= common
            # p * vec - v * pvec clears the lead entry
            vec = lin_axpy({r: p * c for r, c in vec.items()}, -v, pvec)
    return len(pivots)


class NotClosedError(ValueError):
    """The differential leaves the span of the requested generator subset."""


def _degree_columns(sig: Signature, ev: Extension, basis_p, index_next,
                    subset_set) -> List[SparseVec]:
    cols = []
    for m in basis_p:
        img = ev.on_monomial(m)
        col: SparseVec = {}
        for mm, c in img.items():
            if any(i not in subset_set for i, _ in mm):
                raise NotClosedError(
                    f"d({mono_str(sig, m)}) has term {mono_str(sig, mm)} outside the subset")
            col[index_next[mm]] = c
        cols.append(col)
    return cols


def cohomology_dims(dga: DGAlgebra, subset=None, max_degree: int = 10) -> List[Tuple[int, int]]:
    """(degree, dimension) of H^p for 0 <= p <= max_degree, exactly."""
    if max_degree < 0:
        raise ValueError("degree cap must be >= 0")
    sig = dga.sig
    subset_set = set(_as_indices(sig, subset))
    bases = [basis_monomials(sig, p) for p in range(max_degree + 2)]
    if subset is not None:
        # filtering the sorted full basis keeps its order
        bases = [[m for m in basis if all(i in subset_set for i, _ in m)]
                 for basis in bases]
    ranks = []
    for p in range(max_degree + 1):
        index_next = {m: k for k, m in enumerate(bases[p + 1])}
        cols = _degree_columns(sig, dga.ev, bases[p], index_next, subset_set)
        ranks.append(rank_of_columns(cols))
    dims = []
    for p in range(max_degree + 1):
        below = ranks[p - 1] if p > 0 else 0
        dims.append((p, len(bases[p]) - ranks[p] - below))
    return dims


def module_homology_dims(M: DGModule, max_degree: Optional[int] = None) -> List[Tuple[int, int]]:
    """(degree, dimension) for a plain DG-module, over its whole degree range."""
    if max_degree is None:
        max_degree = max((d for _, d in M.generators), default=0)
    by_degree: Dict[int, List[int]] = {}
    for i, (_, d) in enumerate(M.generators):
        by_degree.setdefault(d, []).append(i)
    ranks: Dict[int, int] = {}
    for p in range(max_degree + 1):
        gens_p = by_degree.get(p, [])
        pos_next = {g: k for k, g in enumerate(by_degree.get(p + 1, []))}
        cols = []
        for g in gens_p:
            col = {pos_next[j]: c for j, c in M.d_of(g).items()}
            cols.append(col)
        ranks[p] = rank_of_columns(cols)
    dims = []
    for p in range(max_degree + 1):
        below = ranks.get(p - 1, 0)
        dims.append((p, len(by_degree.get(p, [])) - ranks[p] - below))
    return dims


@dataclass(frozen=True)
class ComparisonReport:
    dims_a: Tuple[Tuple[int, int], ...]
    dims_b: Tuple[Tuple[int, int], ...]
    first_mismatch: Optional[int]

    @property
    def equal(self) -> bool:
        return self.first_mismatch is None

    def __str__(self) -> str:
        lines = []
        for (p, da), (_, db) in zip(self.dims_a, self.dims_b):
            mark = "" if da == db else "   <- mismatch"
            lines.append(f"H^{p}: {da} vs {db}{mark}")
        lines.append("equal" if self.equal else f"first mismatch at degree {self.first_mismatch}")
        return "\n".join(lines)


def compare_cohomology(a: Tuple[DGAlgebra, object], b: Tuple[DGAlgebra, object],
                       max_degree: int = 10) -> ComparisonReport:
    """Degreewise dimension comparison of two (algebra, subset) sides."""
    return compare_dims(cohomology_dims(a[0], a[1], max_degree),
                        cohomology_dims(b[0], b[1], max_degree))


def compare_dims(dims_a: Sequence[Tuple[int, int]],
                 dims_b: Sequence[Tuple[int, int]]) -> ComparisonReport:
    """Compare two (degree, dimension) lists degree by degree."""
    first = next((p for (p, da), (_, db) in zip(dims_a, dims_b) if da != db), None)
    return ComparisonReport(tuple(dims_a), tuple(dims_b), first)
