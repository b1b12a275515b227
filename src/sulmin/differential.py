"""Differential structure on a free graded-commutative algebra.

A ``DGAlgebra`` stores the derivative of each generator, and carries the one
evaluator of its differential, ``ev``, that every reader of ``d`` on
monomials shares.  ``Extension`` is
the one evaluator that extends a generator table along monomials: as an
algebra map (the projection, the inclusion, a pair-collapse substitution) or
as a derivation twisted by a right leg (the differential, whose right leg is
the identity, and every homotopy, see ``morphisms``).  It folds a monomial
whose suffix's image is cached in one step, which is every miss of a
degreewise basis visited in order, and walks only deeper misses.  Its one
linear extension is ``add_into``, which sums an element's image into a dict
the caller owns, with no intermediate image; ``on_element`` is
``add_into({}, x)``, so it always returns a new dict and never a cached
image.  Only the checker's split loop reads the cache directly.
``validate_sullivan``
checks the input contract of the minimization algorithm: derivatives are
homogeneous of degree +1, square to zero, and only mention generators that
were declared earlier (the declaration order encodes the filtration).  It
returns one line of text per violation, as ``at_model.validate_module``
does for a module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from .graded_algebra import (
    ONE_MONO,
    Elem,
    Mono,
    Signature,
    WordTooLongError,
    elem_mul,
    elem_mul_into,
    elem_one,
    lin_axpy,
    mono_degree,
    mono_elem,
    mono_factors,
    mono_first,
    mono_gen,
    mono_str,
    mono_valid,
    q_table,
)


# The most factors of a word that an Extension evaluates.  Each factor costs
# a cached image, so a long word that the monomial layout still holds (up to
# ``graded_algebra.MAX_EXPONENT`` copies of each generator) is refused
# before its walk, not after, with the layout's own ``WordTooLongError``.
MAX_WORD = 10_000


@dataclass(frozen=True)
class DGAlgebra:
    """Generator derivatives over ``sig``.  ``ev`` extends them along monomials
    as the differential; it is built with the algebra, caches every image it
    computes for the algebra's lifetime, and is left out of ``==`` and
    ``repr``.  The validator, the sweep, the checker (through
    ``FullContraction.source``) and the oracle all read ``d`` through it, so
    one job evaluates ``d`` once per monomial; likewise for ``dW`` through
    ``FullContraction.model``.  Every term must be a monomial packed by
    ``sig`` (``mono_valid``), or construction raises ``ValueError``."""

    sig: Signature
    diff: Mapping[int, Elem] = field(default_factory=dict)
    ev: Extension = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "diff", q_table(self.diff))
        for i, dx in self.diff.items():
            if not 0 <= i < len(self.sig):
                raise ValueError(f"differential table mentions index {i} outside signature")
            for m in dx:
                if not mono_valid(self.sig, m):
                    raise ValueError(
                        f"derivative of {self.sig.name(i)} has a non-canonical term")
        object.__setattr__(self, "ev", Extension(self.sig, self.diff, mono_elem))

    def d_of(self, index: int) -> Elem:
        return self.diff.get(index, {})


class Extension:
    """Extension of a generator-indexed table along monomials.

    Both rules split off the left factor of the canonical order, ``m = x*r``
    with ``x`` a single generator, and cache the image of every monomial met,
    so sweeping a whole degreewise basis costs little more than one pass.

    * ``right`` is None: the algebra map ``E(x*r) = table[x]*E(r)``,
      ``E(1) = 1``.  A generator missing from the table raises ``KeyError``.
    * otherwise the derivation twisted by ``right``, a map from monomials to
      elements: ``E(x*r) = table[x]*right(r) + (-1)^{|x|} x*E(r)``,
      ``E(1) = 0``.  A generator missing from the table maps to zero.  The
      differential is the case ``right = mono_elem``.

    ``on_monomial`` splits off the head once.  When the suffix's image is
    cached, as it is for every monomial of a degreewise basis visited in
    order, it folds that one step; only a deeper miss walks down to the
    first cached suffix, in a loop, not by recursion, so a word's length is
    bounded by ``MAX_WORD`` and not by the interpreter's stack.  ``cache``
    maps each monomial met, and each suffix of one, to its image; only the
    checker's split loop reads it directly, for halves it knows are cached.
    ``add_into`` is the one linear extension, summed in place through
    ``on_monomial``, and ``on_element`` is ``add_into({}, x)``: its result
    is always a new dict, never a cached image.
    """

    def __init__(self, sig: Signature, table: Mapping[int, Elem],
                 right: Optional[Callable[[Mono], Elem]] = None):
        self.sig = sig
        self.table = table
        self.right = right
        self.cache: Dict[Mono, Elem] = {ONE_MONO: elem_one() if right is None else {}}
        # a derivation's sign term (-1)^{|x|} x, per head generator x met
        self.signed: Dict[int, Elem] = {}

    def on_monomial(self, m: Mono) -> Elem:
        cache = self.cache
        out = cache.get(m)
        if out is not None:
            return out
        sig, table, right = self.sig, self.table, self.right
        signed = self.signed
        word = m
        # Split off the head generator and keep the part of the image that
        # needs no suffix image: the head's image for a map, the head's
        # product with the right leg for a derivation.  When the suffix's
        # image is cached, that one step is folded at once; only a deeper
        # miss walks on, keeping its steps.  Parts are read on the way down,
        # left factor first, so a generator missing from a map's table
        # raises for the leftmost one.
        steps = []
        while True:
            i, rest = mono_first(sig, m)
            if right is None:
                try:
                    part = table[i]
                except KeyError:
                    raise KeyError(f"no image for generator {sig.name(i)}") from None
            else:
                head = table.get(i)
                part = elem_mul(sig, head, right(rest)) if head else {}
            out = cache.get(rest)
            if out is not None:
                break
            steps.append((m, i, part))
            if len(steps) == MAX_WORD:
                raise WordTooLongError(
                    f"word {mono_str(sig, word)} has more than {MAX_WORD} factors")
            m = rest
        # fold the images back up, from the step whose suffix is cached
        while True:
            if right is None:
                out = elem_mul(sig, part, out)
            else:
                # part is a fresh product, so the sign term adds in place
                if out:
                    sign = signed.get(i)
                    if sign is None:
                        sign = signed[i] = {mono_gen(sig, i): -1 if sig.odd[i] else 1}
                    elem_mul_into(sig, part, sign, out)
                out = part
            cache[m] = out
            if not steps:
                return out
            m, i, part = steps.pop()

    def add_into(self, out: Elem, x: Elem) -> Elem:
        """Add the image of ``x`` into ``out`` in place and return ``out``,
        which the caller owns: the linear extension of ``on_monomial``, with
        no intermediate sum.  ``x`` and the cached images are only read."""
        for m, c in x.items():
            img = self.on_monomial(m)
            if img:
                lin_axpy(out, c, img)
        return out

    def on_element(self, x: Elem) -> Elem:
        """Linear extension of ``on_monomial``, as a new dict the caller
        owns: ``add_into({}, x)``.  It never returns a cached image."""
        return self.add_into({}, x)


def validate_sullivan(dga: DGAlgebra) -> List[str]:
    """Every violation of the ordered-input contract, one message each, in
    the form ``kind: generator name: detail``; an empty list when the input
    holds it.  Never raises."""
    sig = dga.sig
    problems: List[str] = []
    for i, dx in sorted(dga.diff.items()):
        g = sig.generators[i]
        want = g.degree + 1
        for m in dx:
            d = mono_degree(sig, m)
            if d != want:
                problems.append(f"degree: generator {g.name}: "
                                f"term {mono_str(sig, m)} has degree {d}, expected {want}")
        for m in dx:
            for j, _ in mono_factors(sig, m):
                if j >= i:
                    problems.append(f"order: generator {g.name}: term {mono_str(sig, m)} "
                                    f"uses {sig.name(j)} (index {j} >= {i})")
                    break
        dd = dga.ev.on_element(dx)
        if dd:
            first = min(dd, key=lambda m: mono_factors(sig, m))
            problems.append(f"d-squared: generator {g.name}: "
                            f"d(d({g.name})) has term {mono_str(sig, first)}")
    return problems
