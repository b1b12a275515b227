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

``lin_apply`` is the one linear extension of a generator table: the module
differential, the sweep's ``f`` and ``phi`` and the identity checker all go
through it.  It accumulates in place on a dict that it creates and hands to
the caller, so no stored table entry is ever written.  The accumulate itself,
``lin_axpy``, belongs to ``graded_algebra``: the module layer sits under the
algebra layer and owns no kernel of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Set, Tuple

from .graded_algebra import Coeff, lin_axpy, q_div, q_table
from .morphisms import IdentityCheck

Lin = Dict[int, Coeff]


def lin_apply(table: Mapping[int, Lin], x: Lin) -> Lin:
    """The linear extension of a generator table: the sum of c * table[i] over x.

    A generator absent from the table maps to zero.  The sum accumulates in
    place in one new dict, which the caller owns; no table entry is written
    to or handed back by reference.
    """
    out: Lin = {}
    for i, c in x.items():
        img = table.get(i)
        if img and c:
            lin_axpy(out, c, img)
    return out


@dataclass(frozen=True)
class DGModule:
    """Ordered generators (name, degree >= 0) with a linear differential table."""

    generators: Tuple[Tuple[str, int], ...]
    diff: Mapping[int, Lin] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "diff", q_table(self.diff))

    def degree(self, index: int) -> int:
        return self.generators[index][1]

    def name(self, index: int) -> str:
        return self.generators[index][0]

    def d_of(self, index: int) -> Lin:
        return self.diff.get(index, {})


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
    for i, dx in sorted(M.diff.items()):
        name, deg = M.generators[i]
        for j in dx:
            if j >= i:
                problems.append(
                    f"d({name}) uses {M.name(j)} (index {j} >= {i})")
            if M.degree(j) != deg + 1:
                problems.append(
                    f"d({name}) term {M.name(j)} has degree {M.degree(j)}, expected {deg + 1}")
        if lin_apply(M.diff, dx):
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
    """Contraction of a DG-module onto its homology (zero differential)."""

    H: Tuple[int, ...]
    f: Mapping[int, Lin]
    g: Mapping[int, Lin]
    phi: Mapping[int, Lin]
    pairs: Tuple[Tuple[int, int], ...]


def compute_at_model(M: DGModule) -> ATModel:
    problems = validate_module(M)
    if problems:
        raise ModuleValidationError(problems)

    H: List[int] = []
    f: Dict[int, Lin] = {}
    g: Dict[int, Lin] = {}
    phi: Dict[int, Lin] = {}
    pairs: List[Tuple[int, int]] = []
    # users[k]: the generators whose f image mentions the class k, for
    # exactly the classes k still in H
    users: Dict[int, Set[int]] = {}

    for i in range(len(M.generators)):
        di = M.d_of(i)
        a = lin_apply(f, di)
        b = lin_axpy({i: 1}, -1, lin_apply(phi, di))
        if not a:
            H.append(i)
            f[i] = {i: 1}
            g[i] = b
            phi[i] = {}
            users[i] = {i}
        else:
            j = max(k for k in a if k in users)
            alpha = a[j]
            H.remove(j)
            f[i] = {}
            phi[i] = {}
            g.pop(j, None)
            pairs.append((i, j))
            # corrections store new dicts: no entry is written once stored;
            # each one cancels j and can only add or cancel the classes of a
            for m in sorted(users.pop(j)):
                fm = f[m]
                lam = q_div(fm[j], alpha)
                fm = f[m] = lin_axpy(dict(fm), -lam, a)
                phi[m] = lin_axpy(dict(phi[m]), lam, b)
                for k in a:
                    if k != j:
                        if k in fm:
                            users[k].add(m)
                        else:
                            users[k].discard(m)

    return ATModel(tuple(H), f, g, phi, tuple(pairs))


def check_at_model(M: DGModule, A: ATModel) -> Tuple[IdentityCheck, ...]:
    """Verify the nine contraction identities on every generator, exactly."""

    failures: Dict[str, str] = {}

    def record(name: str, residual: Lin, where: str) -> None:
        if residual and name not in failures:
            failures[name] = where

    for i in range(len(M.generators)):
        name = M.name(i)
        unit: Lin = {i: 1}
        di = M.d_of(i)
        phii = A.phi[i]
        record("f d = 0", lin_apply(A.f, di), name)
        record("f phi = 0", lin_apply(A.f, phii), name)
        record("phi phi = 0", lin_apply(A.phi, phii), name)
        fm = lin_apply(A.f, unit)
        if any(k not in A.g for k in fm):
            record("id - gf = phi d + d phi", fm, name)  # f escapes the span of H
        else:
            # the residual up to sign: gf + phi d + d phi - id
            residual = lin_axpy(lin_apply(A.g, fm), -1, unit)
            lin_axpy(residual, 1, lin_apply(A.phi, di))
            lin_axpy(residual, 1, lin_apply(M.diff, phii))
            record("id - gf = phi d + d phi", residual, name)
        record("phi d phi = phi",
               lin_axpy(lin_apply(A.phi, lin_apply(M.diff, phii)), -1, phii), name)
        record("d phi d = d", lin_axpy(lin_apply(M.diff, lin_apply(A.phi, di)), -1, di), name)
    for h in A.H:
        name = M.name(h)
        unit: Lin = {h: 1}
        record("f g = id", lin_axpy(lin_apply(A.f, A.g[h]), -1, unit), name)
        record("phi g = 0", lin_apply(A.phi, A.g[h]), name)
        record("d g = 0", lin_apply(M.diff, A.g[h]), name)

    names = [
        "f d = 0", "d g = 0", "f phi = 0", "phi g = 0", "phi phi = 0",
        "id - gf = phi d + d phi", "f g = id", "phi d phi = phi", "d phi d = d",
    ]
    return tuple(
        IdentityCheck(n, n not in failures, failures.get(n)) for n in names)


def homology_class_dims(M: DGModule, A: ATModel) -> Dict[int, int]:
    """Number of surviving classes per degree."""
    out: Dict[int, int] = {}
    for h in A.H:
        d = M.degree(h)
        out[d] = out.get(d, 0) + 1
    return out
