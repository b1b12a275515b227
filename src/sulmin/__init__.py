"""Minimal models of free graded-commutative DG-algebras over the rationals,
with the full certifying contraction, a module-level contraction, a
brute-force cohomology oracle, and a small text format tying them together.
"""

from .graded_algebra import (
    Elem,
    Generator,
    Mono,
    Signature,
    SignatureError,
    basis_monomials,
    elem_add,
    elem_gen,
    elem_mul,
    elem_one,
    elem_scale,
    elem_sub,
    in_lambda_geq2,
    linear_part,
    mono_mul,
)
from .differential import DGAlgebra, ValidationReport, validate_sullivan
from .morphisms import (
    ContractionReport,
    FullContraction,
    check_contraction,
)
from .at_model import ATModel, DGModule, check_at_model, compute_at_model, validate_module
from .minimal_model import (
    InternalInvariantError,
    SullivanValidationError,
    compute_minimal_model,
)
from .homology_oracle import (
    NotClosedError,
    cohomology_dims,
    compare_cohomology,
    module_homology_dims,
)
from .dsl import DslError, emit_machine, emit_report, parse, parse_expression

__all__ = [name for name in dir() if not name.startswith("_")]
