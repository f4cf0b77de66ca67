"""Exact phase-space toolkit for quantum spin dynamics on the sphere.

Operators of a spin S map to band-limited functions on the sphere for a
family of orderings sigma in [-1, 1]; spin components act as sparse
matrices on the expansion coefficients, so unitary and dissipative
evolution, star products, and classical (large-S) limits all run in
coefficient space with controlled exactness.
"""

from .su2_algebra import SpinContext, spin_matrices
from .sw_transform import (
    ANTINORMAL,
    NORMAL,
    SYMMETRIC,
    expectation,
    kernel_eval,
    operator_to_symbol,
    symbol_to_operator,
)
from .bopp import bopp_coefficients, bopp_matrices, evaluate_expression
from .dynamics import (
    BathSpec,
    classical_generators,
    classical_limit_scan,
    coherent_state,
    integrate,
    qfp_generator,
)

__all__ = [
    "SpinContext", "spin_matrices",
    "SYMMETRIC", "NORMAL", "ANTINORMAL",
    "operator_to_symbol", "symbol_to_operator", "kernel_eval", "expectation",
    "bopp_coefficients", "bopp_matrices", "evaluate_expression",
    "BathSpec", "qfp_generator", "classical_generators",
    "classical_limit_scan", "coherent_state", "integrate",
]

__version__ = "0.1.0"
