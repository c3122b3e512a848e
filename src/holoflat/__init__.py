"""Holomorphic quantization on flat manifolds via tangent-space Gaussian
integration: reproducing-kernel Hilbert spaces of holomorphic functions,
Gauss-Hermite quadrature, ladder operators, and path-integral propagators,
implemented and validated on the circle."""

__version__ = "0.1.0"

from .errors import FactorizationError, QuadratureError, ValidationError
from .quadrature import DEFAULT_ORDER, hermite_rule, tangent_nodes
from .hilbert import (
    BasisSpec,
    GramData,
    HoloState,
    KernelRep,
    bargmann_monomial_basis,
    gram_matrix,
    inner_product,
    moment_matrix,
    orthonormal_series_kernel,
    orthonormalize,
    alternating_ordering,
    project,
    project_coeffs,
    reproducing_kernel,
    state_norm,
)
from .cylinder import (
    DEFAULT_N,
    HeatKernelParams,
    calibrate_heat_kernel,
    cylinder_basis,
    gram_closed,
    heat_kernel_formula,
    heat_rho,
    heat_rho_winding,
)
from .operators import (
    adjointness_residual,
    hamiltonian_free,
    ladder_lower,
    ladder_raise,
    to_orthonormal_frame,
)
from .propagator import (
    evolve,
    evolve_exact,
    greens_spectral,
    greens_winding,
    step_matrix,
)
from .validation import CriterionResult, run_criteria

__all__ = [
    "__version__",
    "ValidationError",
    "QuadratureError",
    "FactorizationError",
    "DEFAULT_ORDER",
    "hermite_rule",
    "tangent_nodes",
    "BasisSpec",
    "GramData",
    "KernelRep",
    "HoloState",
    "bargmann_monomial_basis",
    "inner_product",
    "gram_matrix",
    "moment_matrix",
    "orthonormalize",
    "alternating_ordering",
    "reproducing_kernel",
    "orthonormal_series_kernel",
    "project",
    "project_coeffs",
    "state_norm",
    "DEFAULT_N",
    "HeatKernelParams",
    "cylinder_basis",
    "gram_closed",
    "heat_rho",
    "heat_rho_winding",
    "heat_kernel_formula",
    "calibrate_heat_kernel",
    "ladder_lower",
    "ladder_raise",
    "hamiltonian_free",
    "to_orthonormal_frame",
    "adjointness_residual",
    "step_matrix",
    "evolve",
    "evolve_exact",
    "greens_winding",
    "greens_spectral",
    "CriterionResult",
    "run_criteria",
]
