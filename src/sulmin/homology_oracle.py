"""Brute-force degreewise cohomology over the rationals.

Independent of the contraction machinery: enumerate the monomial basis degree
by degree, expand the differential of each basis monomial, and read off
dim H^p = dim ker d^p - rank d^{p-1} from exact column elimination.  Used to
cross-check that a minimization run preserves cohomology, and to validate
module contractions.

A column is the differential itself, keyed by the monomials it holds (by
generator indices for a module), so no row needs a position in a degree
p+1 basis: up to the cap p, only the bases of degrees 0 to p are built.
``_dims`` turns the ranks into dimensions for algebras and modules alike.

Within one ``verify`` job the oracle shares two things with the checker: the
signature's memoised bases (``basis_monomials``; a subset side filters
them) and the differential evaluators: the source algebra's ``DGAlgebra.ev``
and, on the survivor side, the model algebra's (``FullContraction.model``,
the algebra of ``dW`` restricted to ``W``).  It never reads the
contraction's ``f``, ``g`` or ``phi``.

The ranks come from ``rank_of_columns``, a fraction-free integer elimination
that builds no kernel; it scales each column to an integer row through
``graded_algebra.int_row``, as the AT-model sweep scales its vectors.
``column_reduce`` is the separate rational elimination that also returns
kernel combinations; the sweep's chain correction and the random input
generators use it, the oracle does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import (
    TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Sequence, Tuple)

from .differential import DGAlgebra
from .graded_algebra import (
    Coeff, Mono, basis_monomials, int_row, lin_axpy, mono_str, q_div, subset_test)

if TYPE_CHECKING:
    from .at_model import DGModule

# row key (a monomial, a generator index, a column position) -> coefficient
SparseVec = Dict[Hashable, Coeff]


def column_reduce(columns: Sequence[SparseVec]) -> Tuple[int, List[SparseVec]]:
    """Exact incremental elimination over sparse rational columns.

    Returns (rank, kernel combinations): each kernel combination maps column
    positions to coefficients of a vanishing linear relation.

    A row key is any totally ordered hashable, and a column's pivot is its
    least key.  No result depends on that order: column ``pos`` becomes a
    pivot exactly when it is not in the span of the columns before it, and
    then its kernel combination is ``e_pos`` minus the unique expansion of
    the column in the earlier pivot columns, which are independent.  So the
    rank, the list of kernels (in column order) and each kernel's values are
    the same for every order of the keys; only the order of the items
    inside one kernel dict may differ.  The callers hand over packed
    monomials or generator indices as they are.
    """
    pivots: Dict[Hashable, Tuple[SparseVec, SparseVec]] = {}
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

    Each column is scaled to integers by the lcm of its denominators
    (``graded_algebra.int_row``, the scaling the module layer's integer rows
    share) and reduced by cross-multiplication against the stored pivot
    columns; a stored pivot is divided by the gcd of its entries.  Only
    ``int`` arithmetic, and no kernel combinations are built.  A zero column
    never makes a pivot, so it is skipped before it is scaled.  As in
    ``column_reduce``, a row key is any totally ordered hashable and the
    pivot is the least key.
    """
    pivots: Dict[Hashable, Dict[Hashable, int]] = {}
    for col in columns:
        if not col:
            continue
        vec = int_row(col)[1]
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


def _dims(bases: Sequence[Sequence[Hashable]],
          image: Callable[[Hashable], SparseVec]) -> List[Tuple[int, int]]:
    """(p, dim H^p) for each degree p of ``bases``, where ``image`` maps a
    degree-p basis element to its differential, keyed by degree-(p+1) basis
    elements: dim H^p = len(bases[p]) - rank d^p - rank d^{p-1}."""
    dims = []
    below = 0
    for p, basis in enumerate(bases):
        rank = rank_of_columns([image(x) for x in basis])
        dims.append((p, len(basis) - rank - below))
        below = rank
    return dims


def cohomology_dims(dga: DGAlgebra, subset=None, max_degree: int = 10) -> List[Tuple[int, int]]:
    """(degree, dimension) of H^p for 0 <= p <= max_degree, exactly."""
    if max_degree < 0:
        raise ValueError("degree cap must be >= 0")
    sig = dga.sig
    inside = subset_test(sig, subset)
    bases = [basis_monomials(sig, p) for p in range(max_degree + 1)]
    if subset is not None:
        bases = [list(filter(inside, basis)) for basis in bases]

    def image(m: Mono) -> SparseVec:
        img = dga.ev.on_monomial(m)
        for mm in img:
            if not inside(mm):
                raise NotClosedError(
                    f"d({mono_str(sig, m)}) has term {mono_str(sig, mm)} outside the subset")
        return img

    return _dims(bases, image)


def module_homology_dims(M: DGModule, max_degree: Optional[int] = None) -> List[Tuple[int, int]]:
    """(degree, dimension) for a plain DG-module, over its whole degree range."""
    if max_degree is None:
        max_degree = max((d for _, d in M.generators), default=0)
    bases = [[i for i, (_, d) in enumerate(M.generators) if d == p]
             for p in range(max_degree + 1)]
    # a row's values are its vector times den > 0, so they have its rank
    rows = M.rows
    return _dims(bases, lambda i: rows[i][1] if i in rows else {})


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


def compare_dims(dims_a: Sequence[Tuple[int, int]],
                 dims_b: Sequence[Tuple[int, int]]) -> ComparisonReport:
    """Compare two (degree, dimension) lists degree by degree."""
    first = next((p for (p, da), (_, db) in zip(dims_a, dims_b) if da != db), None)
    return ComparisonReport(tuple(dims_a), tuple(dims_b), first)
