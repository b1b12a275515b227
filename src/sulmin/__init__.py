"""Minimal models of free graded-commutative DG-algebras over the rationals,
with the full certifying contraction, a module-level contraction, a
brute-force cohomology oracle, and a small text format tying them together.
"""

from .dsl import parse
from .minimal_model import compute_minimal_model
from .morphisms import check_contraction

__all__ = ["parse", "compute_minimal_model", "check_contraction"]
