"""Path-integral time evolution and free-particle Green functions.

One short-time step multiplies the reproducing kernel by a bounded rational
approximation of the phase ``e^{-i Delta K_H / K}`` and projects back onto
the truncated span; finite-time evolution iterates the precomputed step
matrix.  The circle Green function comes in two independently convergent
forms (mode sum and winding sum) whose agreement under complexified time is
the end-to-end validation of the scheme.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, ValidationError
from .geometry import FlatChart
from .hilbert import HoloState, KernelRep
from .operators import OperatorMatrix
from .quadrature import QuadratureRule, tangent_nodes

__all__ = [
    "PropagatorConfig",
    "step_matrix",
    "infinitesimal_step",
    "evolve",
    "evolve_exact",
    "greens_winding",
    "greens_spectral",
]

DEFAULT_DIVISION_GUARD = 1e-12
DEFAULT_EPSILON = 0.05
_CHUNK = 256


@dataclass(frozen=True)
class PropagatorConfig:
    """Evolution parameters: Hamiltonian matrix, total time, step count,
    kernel-ratio division guard, and oscillatory-sum regularization."""

    H: OperatorMatrix
    t: float
    n_steps: int
    division_guard: float = DEFAULT_DIVISION_GUARD
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.division_guard > 0:
            raise ValidationError("division_guard must be positive")
        if self.epsilon < 0:
            raise ValidationError("epsilon must be nonnegative")


def _cayley(x: np.ndarray) -> np.ndarray:
    # Pade (1,1) approximant of e^{-ix}: unimodular for real x, agrees with
    # the exponential to O(x^3), and stays bounded where the kernel ratio
    # x = Delta K_H / K blows up near kernel zeros (the continuum phase
    # integral diverges there; the exponential form overflows numerically).
    return (1.0 - 0.5j * x) / (1.0 + 0.5j * x)


def _phase_weighted_kernel_rows(A_rows, B_rows, PhiT_conj, delta, guard):
    """Rows of K * cayley(delta K_H / K) for a chunk of outer grid points."""
    K = A_rows @ PhiT_conj
    KH = B_rows @ PhiT_conj
    bad = np.abs(K) < guard * np.abs(KH)
    if np.any(bad):
        i, j = np.unravel_index(int(np.flatnonzero(bad.ravel())[0]), bad.shape)
        raise QuadratureError(
            f"kernel magnitude |K|={abs(K[i, j]):.3e} below guard "
            f"{guard:.1e}*|K_H|={guard * abs(KH[i, j]):.3e} at a node pair"
        )
    return K * _cayley(delta * KH / K)


def step_matrix(
    kernel: KernelRep,
    H: OperatorMatrix,
    delta: float,
    chart: FlatChart,
    rule: QuadratureRule,
    division_guard: float = DEFAULT_DIVISION_GUARD,
) -> np.ndarray:
    """Coefficient-space matrix of one short-time step of length ``delta``.

    Column ``k`` is the projection of the step applied to basis element
    ``k``; at ``delta = 0`` the matrix is the identity on the span (pure
    reproduction).
    """
    basis = kernel.basis
    if len(basis.labels) != 2 * H.N + 1:
        raise ValidationError("Hamiltonian truncation does not match the kernel basis")
    z, w = tangent_nodes(chart, rule)
    Phi = basis.design_matrix(z)
    A = Phi @ kernel.mid
    B = Phi @ (H.entries @ kernel.mid)
    PhiT_conj = np.conj(Phi).T
    nb = basis.size
    b = np.zeros((nb, nb), dtype=complex)
    for i0 in range(0, len(z), _CHUNK):
        sl = slice(i0, i0 + _CHUNK)
        E = _phase_weighted_kernel_rows(A[sl], B[sl], PhiT_conj, delta, division_guard)
        U = (E * w[None, :]) @ Phi  # step applied to each basis element, on the outer grid
        b += PhiT_conj[:, sl] @ (w[sl, None] * U)
    return kernel.gram.solve(b)


def infinitesimal_step(
    state: HoloState,
    kernel: KernelRep,
    H: OperatorMatrix,
    delta: float,
    chart: FlatChart,
    rule: QuadratureRule,
    division_guard: float = DEFAULT_DIVISION_GUARD,
) -> HoloState:
    """One short-time step applied to a single state: ``step_matrix`` times
    its coefficients."""
    if state.N != H.N:
        raise ValidationError("state and Hamiltonian truncations differ")
    S = step_matrix(kernel, H, delta, chart, rule, division_guard)
    return HoloState(N=state.N, coeffs=S @ state.coeffs)


def evolve(
    state: HoloState,
    config: PropagatorConfig,
    kernel: KernelRep,
    chart: FlatChart,
    rule: QuadratureRule,
    return_history: bool = False,
):
    """Iterate the short-time step ``n_steps`` times over total time ``t``.

    The step matrix is built once and applied repeatedly; the error against
    the exact spectral evolution decreases like ``1/n_steps``.
    """
    if state.N != config.H.N:
        raise ValidationError("state and Hamiltonian truncations differ")
    delta = config.t / config.n_steps
    S = step_matrix(kernel, config.H, delta, chart, rule, config.division_guard)
    c = state.coeffs
    history = [HoloState(N=state.N, coeffs=c)]
    for step in range(config.n_steps):
        c = S @ c
        if not np.all(np.isfinite(c)):
            raise QuadratureError(f"evolution diverged at step {step + 1}")
        if return_history:
            history.append(HoloState(N=state.N, coeffs=c))
    final = HoloState(N=state.N, coeffs=c)
    return (final, history) if return_history else final


def evolve_exact(state: HoloState, h, t: float) -> HoloState:
    """Spectral evolution ``c_k -> e^{-i h(k) t} c_k`` for a diagonal
    Hamiltonian.

    Each mode coefficient keeps its modulus exactly, so the evolution is
    unitary in the mode-coefficient norm (the pullback of the physical
    circle norm).  ``h`` is a spectral function of the mode index or a
    diagonal OperatorMatrix.
    """
    if isinstance(h, OperatorMatrix):
        if not h.is_diagonal():
            raise ValidationError("Hamiltonian is not diagonal; use evolve instead")
        diag = np.diag(h.entries)
        phases = np.exp(-1j * diag * t)
    else:
        k = state.labels
        phases = np.exp(-1j * np.array([h(int(ki)) for ki in k]) * t)
    return HoloState(N=state.N, coeffs=phases * state.coeffs)


def _check_time_converges(T: complex, what: str) -> complex:
    T = complex(T)
    if T == 0:
        raise ValidationError("time parameter must be nonzero")
    if T.imag >= 0:
        raise ValidationError(
            f"{what} diverges for Im(T) >= 0 (got T={T}); regularize with "
            "T -> T*(1 - i*epsilon), epsilon > 0"
        )
    return T


def greens_winding(theta: float, theta0: float, T: complex, n_max: int) -> complex:
    """Free-particle Green function on the circle as a winding sum:
    ``sum_{|n|<=n_max} (2 pi i T)^{-1/2} exp(i (theta - theta0 + 2 pi n)^2 / (2T))``.

    Uses the principal square root.  Requires ``Im(T) < 0`` so the terms
    decay; evaluate at complexified time ``T*(1 - i*epsilon)`` for real T.
    """
    T = _check_time_converges(T, "winding sum")
    if n_max < 0:
        raise ValidationError(f"n_max must be nonnegative, got {n_max}")
    d = theta - theta0
    n = np.arange(-n_max, n_max + 1)
    pref = 1.0 / cmath.sqrt(2 * math.pi * 1j * T)
    return complex(pref * np.sum(np.exp(1j * (d + 2 * math.pi * n) ** 2 / (2 * T))))


def greens_spectral(
    theta: float, theta0: float, T: complex, M: int, tail_tol: float = 1e-8
) -> complex:
    """Free-particle Green function on the circle as a mode sum:
    ``(1/2pi) sum_{|k|<=M} e^{ik(theta-theta0)} e^{-i k^2 T / 2}``.

    Equal to the winding sum by Poisson summation whenever both converge.
    """
    T = _check_time_converges(T, "mode sum")
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    tail = 2.0 * math.exp((M + 1) ** 2 * T.imag / 2.0) / (2 * math.pi)
    if tail > tail_tol:
        raise ValidationError(
            f"mode-sum tail {tail:.3e} above tolerance {tail_tol:.1e}; "
            "increase M or the regularization epsilon"
        )
    k = np.arange(-M, M + 1)
    return complex(
        np.sum(np.exp(1j * k * (theta - theta0) - 1j * k**2 * T / 2.0)) / (2 * math.pi)
    )
