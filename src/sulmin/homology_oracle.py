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

An algebra's ranks are taken on its core only.  A generator is free when its
derivative is zero and no derivative reads it; the free generators span a
tensor factor with zero differential, so by the Künneth theorem over Q
(FHT, *Rational Homotopy Theory*, GTM 205, §3 and §12) their contribution
is the count of their monomials in each degree, and only the core's columns
are eliminated.  ``cohomology_dims`` checks that the requested generators are
closed under ``d`` on the generators themselves, since ``d`` is a
derivation.

Within one ``verify`` job the oracle shares two things with the checker: the
signature's memoised bases (``basis_monomials``; the core filters them) and
the differential evaluators: the source algebra's ``DGAlgebra.ev`` and, on
the survivor side, the model algebra's (``FullContraction.model``, the
algebra of ``dW`` restricted to ``W``).  It reads their cached images and
writes none of them.  It never reads the contraction's ``f``, ``g`` or
``phi``.

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
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .differential import DGAlgebra
from .graded_algebra import (
    Coeff, Signature, basis_monomials, int_row, lin_axpy, mono_factors, mono_gen, mono_str,
    q_div, subset_test)

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
    share) and reduced in place on that copy, by cross-multiplication
    against the stored pivot columns; a stored pivot is divided by the gcd
    of its entries.  Only ``int`` arithmetic, and no kernel combinations are
    built.  The input columns are only read: the oracle hands over the
    evaluators' cached images.  A zero column never makes a pivot, so it is
    skipped before it is scaled, and a one-term column on a key that has no
    pivot yet becomes the pivot ``{key: 1}`` unscaled.  As in
    ``column_reduce``, a row key is any totally ordered hashable, but the
    pivot is the greatest key: the rank is the same for any pivot order, and
    on the oracle's largest bases of packed monomials the greatest key
    reduces faster (measured, not proved).  ``column_reduce`` keeps the
    least key, since the sweep reads its kernels.
    """
    pivots: Dict[Hashable, Dict[Hashable, int]] = {}
    for col in columns:
        if not col:
            continue
        if len(col) == 1:
            (lead,) = col
            if lead not in pivots:
                pivots[lead] = {lead: 1}
                continue
        vec = int_row(col)[1]
        while vec:
            lead = max(vec)
            pvec = pivots.get(lead)
            if pvec is None:
                content = gcd(*vec.values())
                pivots[lead] = vec if content == 1 else {r: c // content for r, c in vec.items()}
                break
            p, v = pvec[lead], vec[lead]
            common = gcd(p, v)
            p //= common
            v //= common
            # p * vec - v * pvec clears the lead entry
            if p != 1:
                for r in vec:
                    vec[r] *= p
            lin_axpy(vec, -v, pvec)
    return len(pivots)


class NotClosedError(ValueError):
    """The differential leaves the span of the requested generator subset."""


def _dims(columns: Iterable[Sequence[SparseVec]]) -> List[Tuple[int, int]]:
    """(p, dim H^p) for each degree p, where ``columns`` yields, degree by
    degree, the differential of each degree-p basis element, keyed by
    degree-(p+1) basis elements: dim H^p = the number of columns - rank d^p
    - rank d^{p-1}."""
    dims = []
    below = 0
    for p, cols in enumerate(columns):
        rank = rank_of_columns(cols)
        dims.append((p, len(cols) - rank - below))
        below = rank
    return dims


def _monomial_counts(sig: Signature, gens: Sequence[int], max_degree: int) -> List[int]:
    """The number of monomials of degree p in the generators ``gens``, for
    0 <= p <= max_degree: the coefficients of the product of 1 + t^d over
    the odd generators and 1 / (1 - t^d) over the even ones."""
    counts = [1] + [0] * max_degree
    for i in gens:
        d = sig.degree(i)
        if d % 2:
            for p in range(max_degree, d - 1, -1):
                counts[p] += counts[p - d]
        else:
            for p in range(d, max_degree + 1):
                counts[p] += counts[p - d]
    return counts


def cohomology_dims(dga: DGAlgebra, subset=None, max_degree: int = 10) -> List[Tuple[int, int]]:
    """(degree, dimension) of H^p for 0 <= p <= max_degree, exactly.

    Let S be the generators in play: all of them, or ``subset``.  ``d`` is a
    derivation, so the first basis monomial whose derivative leaves the
    span of S is a generator; ``NotClosedError`` names the first such
    generator up to the cap, in (degree, index) order.  A generator of S is
    free when its derivative is zero and no derivative of a generator of S
    reads it; the rest is the core C, and ΛC is a sub-DGA with ΛS = ΛC ⊗
    Λ(free), the second factor with zero differential.  So
    dim H^p = sum over q of dim H^q(ΛC) times the number of degree p - q
    monomials in the free generators, and only the core's columns, the
    memoised full bases filtered to ΛC, are ranked.  The full bases are
    enumerated up to the cap all the same: the checker shares them, and a
    word past the monomial layout raises ``WordTooLongError`` there.
    """
    if max_degree < 0:
        raise ValueError("degree cap must be >= 0")
    sig = dga.sig
    inside = subset_test(sig, subset)
    full = [basis_monomials(sig, p) for p in range(max_degree + 1)]
    gens = range(len(sig)) if subset is None else sorted(set(map(int, subset)))
    image = dga.ev.on_monomial
    for i in sorted(gens, key=sig.degree):
        if sig.degree(i) > max_degree:
            break
        for m in image(mono_gen(sig, i)):
            if not inside(m):
                raise NotClosedError(
                    f"d({sig.name(i)}) has term {mono_str(sig, m)} outside the subset")
    read = {j for i in gens for m in dga.d_of(i) for j, _ in mono_factors(sig, m)}
    core, free = [], []
    for i in gens:
        (core if i in read or dga.d_of(i) else free).append(i)
    counts = _monomial_counts(sig, free, max_degree)
    in_core = subset_test(sig, core)
    dims = [0] * (max_degree + 1)
    for q, h in _dims([image(m) for m in basis if in_core(m)] for basis in full):
        if h:
            for p in range(q, max_degree + 1):
                dims[p] += h * counts[p - q]
    return list(enumerate(dims))


def module_homology_dims(M: DGModule, max_degree: Optional[int] = None) -> List[Tuple[int, int]]:
    """(degree, dimension) for a plain DG-module, over its whole degree range."""
    if max_degree is None:
        max_degree = max((d for _, d in M.generators), default=0)
    # a row's values are its vector times den > 0, so they have its rank
    rows = M.rows
    return _dims([rows[i][1] if i in rows else {} for i, (_, d) in enumerate(M.generators) if d == p]
                 for p in range(max_degree + 1))


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
