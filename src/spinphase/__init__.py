"""Exact phase-space toolkit for quantum spin dynamics on the sphere.

Operators of a spin S map to band-limited functions on the sphere for a
family of orderings sigma in [-1, 1]; spin components act as sparse
matrices on the expansion coefficients, so unitary and dissipative
evolution, star products, and classical (large-S) limits all run in
coefficient space with controlled exactness.
"""

from .su2_algebra import SpinContext, clebsch_gordan, spin_matrices, tensor_operator
from .sw_transform import (
    ANTINORMAL,
    NORMAL,
    SYMMETRIC,
    expectation,
    kernel_eval,
    operator_to_symbol,
    symbol_to_operator,
)
from .bopp import (
    bopp_coefficients,
    bopp_matrices,
    evaluate_expression,
    s3_star_ylm,
    star_product,
)
from .dynamics import (
    BathSpec,
    classical_generators,
    classical_limit_scan,
    coherent_state,
    integrate,
    master_rhs,
    qfp_generator,
)

__all__ = [
    "SpinContext", "clebsch_gordan", "spin_matrices", "tensor_operator",
    "SYMMETRIC", "NORMAL", "ANTINORMAL",
    "operator_to_symbol", "symbol_to_operator", "kernel_eval", "expectation",
    "bopp_coefficients", "bopp_matrices", "evaluate_expression",
    "star_product", "s3_star_ylm",
    "BathSpec", "qfp_generator",
    "master_rhs", "classical_generators",
    "classical_limit_scan", "coherent_state", "integrate",
]

__version__ = "0.1.0"
