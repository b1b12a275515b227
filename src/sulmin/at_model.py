"""Incremental contraction of a finitely generated DG-module onto its homology.

No products here: differentials and morphism tables are plain linear
combinations of generators over the rationals.  The pairing sweep processes
generators in declaration order; a generator whose projected derivative
vanishes births a homology class, otherwise it kills the highest-index
surviving class and the earlier tables are corrected by exact column
elimination.

This is the one pairing loop of the package.  It serves ``at-model`` on
module inputs, and ``minimal_model`` on the linear part of an algebra's
differential: the algebra sweep takes its pairs from here and only lifts the
contraction to products.

Inside this module every vector is an integer row ``(den, vals)`` (see
``graded_algebra.int_row``): the vector ``vals / den`` with ``den > 0``,
``int`` values, and no factor common to ``den`` and all the values.  A row
is in lowest terms, so two rows are equal exactly when their vectors are.
Validation, the sweep and the checker run no ``Fraction`` arithmetic:
``row_apply``, the one linear extension of a table of rows, sums over a
common denominator with ``graded_algebra.lin_axpy`` on ``int``s, and the
sweep's corrections cross-multiply.

A parsed module holds its differential as rows from the start: the parser
reads each derivative into a row (``row_of_terms``) and builds the module
with ``DGModule.from_rows``.  A module built from coefficient maps becomes
rows once, on the first read of ``DGModule.rows``.  The coefficient maps of
a parsed module (``DGModule.diff``, which the benchmark's writer reads) are
derived only when read; ``at-model`` and ``homology`` never read them.
Vectors stay rows from there to stdout: the ``ATModel`` tables are the
sweep's own rows, ``check_at_model`` reads them as rows, and ``at-model``
prints them with ``dsl.format_linear``; nothing turns them back into
coefficients.  The sweep owns every row it builds and no two share a dict,
so it corrects a row in place and hands each dict to the ``ATModel`` at
most once.

No work is spent on a zero row.  A closed generator (no row) births its
class with fresh unit rows and applies no table, and ``at-model`` prints
each empty row as ``0`` without calling ``format_linear``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .graded_algebra import Coeff, Row, int_row, lin_axpy, q_div, q_table
from .morphisms import IdentityCheck

Lin = Dict[int, Coeff]


def _lowest(den: int, vals: Dict[int, int]) -> Row:
    """The row ``vals / den`` (``den`` > 0) in lowest terms."""
    if not vals:
        return 1, vals
    if den != 1:
        c = gcd(den, *vals.values())
        if c != 1:
            return den // c, {k: v // c for k, v in vals.items()}
    return den, vals


def _grow(den: int, vals: Dict[int, int], d: int) -> Row:
    """``vals / den`` over the common denominator ``lcm(den, d)``, in a new
    dict; callers ask for it only when ``d`` does not divide ``den``."""
    grown = lcm(den, d)
    scale = grown // den
    return grown, {j: scale * v for j, v in vals.items()}


def row_of_terms(terms: Iterable[Tuple[int, int, int]]) -> Row:
    """The row of the sum of ``num / den`` times generator ``k`` over the
    ``(num, den, k)`` of ``terms`` (``den`` > 0), in lowest terms: how a
    parsed derivative becomes a row.  The sum accumulates over a common
    denominator, the lcm of the denominators so far, as in ``row_apply``; a
    zero numerator adds nothing, and a sum that cancels drops its key."""
    vals: Dict[int, int] = {}
    common = 1
    for num, den, k in terms:
        if not num:
            continue
        if common % den:
            common, vals = _grow(common, vals, den)
        if den != common:
            num *= common // den
        s = vals.get(k)
        if s is None:
            vals[k] = num
        elif s + num:
            vals[k] = s + num
        else:
            del vals[k]
    return _lowest(common, vals)


def row_apply(table: Mapping[int, Row], x: Row) -> Row:
    """The linear extension of a table of rows: the row of the sum of
    ``c / den * table[k]`` over ``x = (den, {k: c})``.

    A generator absent from the table maps to zero.  The sum accumulates in
    one new dict over a common denominator, the lcm of the images' ones so
    far: an image whose denominator does not divide it rescales the sum by
    the missing factor first.  No table entry is written to or handed back by
    reference.
    """
    den, vals = x
    out: Dict[int, int] = {}
    common = 1
    for k, c in vals.items():
        img = table.get(k)
        if img is None or not img[1]:
            continue
        d, y = img
        if common % d:
            common, out = _grow(common, out, d)
        lin_axpy(out, c if d == common else c * (common // d), y)
    return _lowest(den * common, out)


_ZERO: Row = (1, {})  # read only


class DGModule:
    """Ordered generators (name, degree >= 0) with a linear differential.

    The differential has two forms, each derived from the other when first
    read and then kept; neither may be mutated.  ``diff`` maps a generator
    index to its derivative as a coefficient map under the int/``Fraction``
    rule, and ``rows`` maps it to the same vector as an integer row in lowest
    terms; a zero derivative has no entry in either.  ``DGModule(generators,
    diff)`` brings the maps to the rule (``q_table``) and raises
    ``ValueError`` on an index that names no generator; ``from_rows`` takes
    rows as they are.  Two modules are equal when their generators and
    differentials are, whichever form built them."""

    def __init__(self, generators: Tuple[Tuple[str, int], ...],
                 diff: Optional[Mapping[int, Lin]] = None):
        self.__dict__.update(generators=tuple(generators), diff=q_table(diff or {}))
        n = len(self.generators)
        for i, dx in self.diff.items():
            for j in (i, *dx):
                if not 0 <= j < n:
                    raise ValueError(
                        f"differential table mentions index {j} outside the generators")

    @classmethod
    def from_rows(cls, generators: Tuple[Tuple[str, int], ...],
                  rows: Mapping[int, Row]) -> "DGModule":
        """The module whose differential takes generator ``i`` to the row
        ``rows[i]``, as the parser builds it.  Every row must be in lowest
        terms and every index name a generator; neither is checked.  A zero
        row is dropped, and the module keeps the rest in a new dict."""
        M = cls.__new__(cls)
        M.__dict__.update(generators=tuple(generators),
                          rows={i: row for i, row in rows.items() if row[1]})
        return M

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to DGModule.{name}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.generators == other.generators and self.rows == other.rows

    def __repr__(self):
        return f"DGModule(generators={self.generators!r}, diff={self.diff!r})"

    def name(self, index: int) -> str:
        return self.generators[index][0]

    @cached_property
    def diff(self) -> Dict[int, Lin]:
        """The coefficient maps, derived from the rows on first read by a
        module built from rows (a parsed one): the benchmark's writer reads
        them; ``at-model`` and ``homology`` read the rows."""
        return {i: {k: q_div(v, den) for k, v in vals.items()}
                for i, (den, vals) in self.rows.items()}

    @cached_property
    def rows(self) -> Dict[int, Row]:
        """The integer rows that validation, the sweep and the homology
        oracle read.  A parsed module holds them from the start; one built
        from coefficient maps derives them on first read (``int_row``)."""
        return {i: int_row(dx) for i, dx in self.diff.items()}


def validate_module(M: DGModule) -> List[str]:
    """All violations of the ordered DG-module contract, as messages."""
    problems = []
    names = set()
    for i, (name, deg) in enumerate(M.generators):
        if deg < 0:
            problems.append(f"generator {name} has degree {deg} < 0")
        if name in names:
            problems.append(f"duplicate generator name {name}")
        names.add(name)
    gens = M.generators
    rows = M.rows
    for i, (_, vals) in sorted(rows.items()):
        name, deg = gens[i]
        for j in vals:
            name_j, deg_j = gens[j]
            if j >= i:
                problems.append(f"d({name}) uses {name_j} (index {j} >= {i})")
            if deg_j != deg + 1:
                problems.append(
                    f"d({name}) term {name_j} has degree {deg_j}, expected {deg + 1}")
        if row_apply(rows, rows[i])[1]:
            problems.append(f"d(d({name})) is nonzero")
    return problems


class ModuleValidationError(ValueError):
    """The input fails the ordered DG-module contract; ``problems`` lists
    every violation, as ``validate_module`` returns them."""

    def __init__(self, problems: List[str]):
        super().__init__("invalid DG-module: " + "; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class ATModel:
    """Contraction of a DG-module onto its homology (zero differential).

    ``f``, ``g`` and ``phi`` map a generator index to its image as an integer
    row ``(den, vals)`` in lowest terms, as ``graded_algebra.int_row`` defines
    them: the coefficient of generator ``k`` is ``q_div(vals[k], den)``."""

    H: Tuple[int, ...]
    f: Mapping[int, Row]
    g: Mapping[int, Row]
    phi: Mapping[int, Row]
    pairs: Tuple[Tuple[int, int], ...]


def compute_at_model(M: DGModule) -> ATModel:
    problems = validate_module(M)
    if problems:
        raise ModuleValidationError(problems)

    rows = M.rows
    f: Dict[int, Row] = {}
    g: Dict[int, Row] = {}
    phi: Dict[int, Row] = {}
    pairs: List[Tuple[int, int]] = []
    # users[k]: the generators whose f image mentions the class k, for
    # exactly the surviving classes k, in index order
    users: Dict[int, Set[int]] = {}

    for i in range(len(M.generators)):
        di = rows.get(i)
        if di is None:  # a closed generator: nothing to apply
            a, b_den, b = None, 1, {i: 1}
        else:
            a_den, a = row_apply(f, di)
            b_den, b = row_apply(phi, di)
            b = lin_axpy({i: b_den}, -1, b) if b else {i: 1}  # i - phi(d i)
        if not a:
            # a birth; every table gets a fresh dict, since the corrections
            # below write rows in place
            f[i] = (1, {i: 1})
            g[i] = (b_den, b)
            phi[i] = (1, {})
            users[i] = {i}
        else:
            j = max(k for k in a if k in users)
            # alpha = a[j] / a_den; dividing by p = |a[j]| and multiplying by
            # sign keeps every denominator below positive
            p, sign = (a[j], 1) if a[j] > 0 else (-a[j], -1)
            f[i] = (1, {})
            phi[i] = (1, {})
            g.pop(j, None)
            pairs.append((i, j))
            # each correction cancels j and can only add or cancel the classes
            # of a; the sweep owns every row it stores (no dict is shared), so
            # an unscaled row is corrected in place
            for m in sorted(users.pop(j)):
                den, fm = f[m]
                t = sign * fm[j]
                # lam = fm[j] / (den * alpha) = t * a_den / (den * p), so
                # f[m] - lam * a = (p * fm - t * a) / (den * p): a_den cancels
                if p != 1:
                    fm = {k: p * v for k, v in fm.items()}
                f[m] = _lowest(den * p, lin_axpy(fm, -t, a))
                # phi[m] + lam * b over the lcm of both denominators
                lam_den = den * p * b_den
                phi_den, phi_m = phi[m]
                if phi_den % lam_den:
                    phi_den, phi_m = _grow(phi_den, phi_m, lam_den)
                phi[m] = _lowest(phi_den, lin_axpy(phi_m, t * a_den * (phi_den // lam_den), b))
                for k in a:
                    if k != j:
                        if k in fm:
                            users[k].add(m)
                        else:
                            users[k].discard(m)

    return ATModel(tuple(users), f, g, phi, tuple(pairs))


def check_at_model(M: DGModule, A: ATModel) -> Tuple[IdentityCheck, ...]:
    """Verify the nine contraction identities on every generator, exactly."""

    failures: Dict[str, str] = {}

    def record(name: str, failed, where: str) -> None:
        if failed and name not in failures:
            failures[name] = where

    def total(*rows: Row) -> Row:
        """The row of the sum of ``rows``."""
        return row_apply(dict(enumerate(rows)), (1, dict.fromkeys(range(len(rows)), 1)))

    # rows in lowest terms (``_lowest``) make each identity an equality of rows
    D = M.rows
    F, G, P = ({k: _lowest(*v) for k, v in table.items()} for table in (A.f, A.g, A.phi))
    for i in range(len(M.generators)):
        name = M.name(i)
        di = D.get(i, _ZERO)
        phii = P[i]
        record("f d = 0", row_apply(F, di)[1], name)
        record("f phi = 0", row_apply(F, phii)[1], name)
        record("phi phi = 0", row_apply(P, phii)[1], name)
        fi = F.get(i, _ZERO)
        if any(k not in A.g for k in fi[1]):
            record("id - gf = phi d + d phi", True, name)  # f escapes the span of H
        else:
            record("id - gf = phi d + d phi",
                   total(row_apply(G, fi), row_apply(P, di), row_apply(D, phii)) != (1, {i: 1}),
                   name)
        record("phi d phi = phi", row_apply(P, row_apply(D, phii)) != phii, name)
        record("d phi d = d", row_apply(D, row_apply(P, di)) != di, name)
    for h in A.H:
        name = M.name(h)
        gh = G[h]
        record("f g = id", row_apply(F, gh) != (1, {h: 1}), name)
        record("phi g = 0", row_apply(P, gh)[1], name)
        record("d g = 0", row_apply(D, gh)[1], name)

    names = [
        "f d = 0", "d g = 0", "f phi = 0", "phi g = 0", "phi phi = 0",
        "id - gf = phi d + d phi", "f g = id", "phi d phi = phi", "d phi d = d",
    ]
    return tuple(
        IdentityCheck(n, n not in failures, failures.get(n)) for n in names)
