"""Periodic reference model on the circle.

The phase space is a cylinder: one periodic coordinate of period 2*pi with
unit metric.  It is the only configuration space the package integrates on,
so its tangent grid is fixed by the quadrature order alone.  The holomorphic
basis e^{ikz} (and its normalized variant e^{ikz - k^2/2}) has closed-form
Gram entries, and the reproducing kernel admits an independent heat-kernel
integral representation that cross-validates the Gram-inverse construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, ValidationError
from .hilbert import BasisSpec, KernelRep

__all__ = [
    "DEFAULT_N",
    "HeatKernelParams",
    "cylinder_basis",
    "gram_closed",
    "heat_rho",
    "heat_rho_winding",
    "heat_kernel_formula",
    "calibrate_heat_kernel",
]

DEFAULT_N = 8

_RAW_MAX_N = 6  # e^{pq} reaches e^36 here; beyond that conditioning is hopeless
_DIVISION_GUARD = 1e-12
_TAIL_TOL = 1e-8  # largest accepted mode-sum tail of heat_rho
_WINDINGS = 20  # heat_rho_winding sums the windings |n| <= _WINDINGS
_CHUNK_ELEMENTS = 1 << 19  # complex mode-sum terms per w block: 8 MB


def gram_closed(p: int, q: int, normalized: bool) -> float:
    """Closed-form Gram entry: ``e^{pq}`` raw or ``e^{-(p-q)^2/2}`` normalized."""
    if normalized:
        return math.exp(-((p - q) ** 2) / 2.0)
    if abs(p * q) > 700:
        raise ValidationError(
            f"raw Gram entry e^{{{p * q}}} overflows double precision (|p*q| > 700)"
        )
    return math.exp(p * q)


def cylinder_basis(N: int, normalized: bool = True) -> BasisSpec:
    """Periodic basis with labels ``k = -N..N``.

    Normalized functions are ``e^{ikz - k^2/2}`` (unit norm); the raw
    ``e^{ikz}`` variant is restricted to ``N <= 6`` because its Gram entries
    ``e^{pq}`` grow past any usable conditioning well before overflowing.
    """
    if N < 0:
        raise ValidationError(f"truncation must be nonnegative, got {N}")
    if not normalized and N > _RAW_MAX_N:
        raise ValidationError(
            f"raw basis supported only up to N = {_RAW_MAX_N} (Gram e^{{pq}} overflow)"
        )
    labels = tuple(range(-N, N + 1))
    if normalized:
        return BasisSpec(labels, _normalized_mode, _normalized_inner)
    return BasisSpec(labels, _raw_mode, _raw_inner)


# Module-level, not per-call closures, so equal arguments give equal (and
# equally hashed) bases.
def _normalized_mode(k, z):
    return np.exp(1j * k * z - k**2 / 2.0)


def _normalized_inner(p, q):
    return complex(gram_closed(p, q, True))


def _raw_mode(k, z):
    return np.exp(1j * k * z)


def _raw_inner(p, q):
    return complex(gram_closed(p, q, False))


@dataclass(frozen=True)
class HeatKernelParams:
    """Parameters of the periodic heat kernel and its integral formula.

    ``t`` is the diffusion time, ``M`` the mode cutoff of the k-sum and
    ``x_quad`` the number of uniform quadrature nodes on [-pi, pi).
    """

    t: float = 1.0
    M: int = 12
    x_quad: int = 256

    def __post_init__(self):
        if not 0 < self.t < math.inf:
            raise ValidationError(f"diffusion time must be finite and positive, got {self.t}")
        if self.M < 1:
            raise ValidationError(f"mode cutoff must be >= 1, got {self.M}")
        if self.x_quad < 2:
            raise ValidationError(f"need at least 2 quadrature nodes, got {self.x_quad}")


def _tail_bound(params: HeatKernelParams, im_z: float) -> float:
    M, t = params.M, params.t
    return 2.0 * math.exp(M * abs(im_z) - M * M * t / 2.0) / (2 * math.pi)


def heat_rho(params: HeatKernelParams, z, x) -> np.ndarray | complex:
    """Periodic heat kernel ``(1/2pi) sum_{|k|<=M} e^{ik(x-z) - k^2 t/2}``.

    ``x`` may be a real scalar or array and ``z`` a complex scalar or array;
    the result has shape ``z.shape + x.shape``.  For complex ``z`` the mode
    cutoff must keep the ``e^{k |Im z|}`` growth below ``_TAIL_TOL`` at every
    point.
    """
    z = np.asarray(z, dtype=complex)
    im = float(np.abs(z.imag).max(initial=0.0))
    if _tail_bound(params, im) > _TAIL_TOL:
        raise QuadratureError(
            f"mode-sum tail {_tail_bound(params, im):.3e} above tolerance "
            f"{_TAIL_TOL:.1e}; increase M beyond {params.M}"
        )
    x = np.asarray(x, dtype=float)
    k = np.arange(-params.M, params.M + 1)
    zk = z.reshape(z.shape + (1,) * (x.ndim + 1))
    terms = np.exp(1j * np.multiply.outer(x, k) + (-1j * zk * k - k**2 * params.t / 2.0))
    vals = terms.sum(axis=-1) / (2 * math.pi)
    return complex(vals) if vals.ndim == 0 else vals


def heat_rho_winding(t: float, x) -> np.ndarray | float:
    """Gaussian winding form ``sum_n (2 pi t)^{-1/2} e^{-(x+2 pi n)^2/(2t)}``
    over ``|n| <= 20``.

    Independent of the mode sum; the two agree by Poisson summation.
    """
    if not 0 < t < math.inf:
        raise ValidationError(f"diffusion time must be finite and positive, got {t}")
    x = np.asarray(x, dtype=float)
    n = np.arange(-_WINDINGS, _WINDINGS + 1)
    shifts = np.add.outer(x, 2 * math.pi * n)
    vals = np.exp(-(shifts**2) / (2 * t)).sum(axis=-1) / math.sqrt(2 * math.pi * t)
    return float(vals) if vals.ndim == 0 else vals


def _x_grid(params: HeatKernelParams) -> tuple[np.ndarray, float]:
    # Uniform periodic grid: the trapezoid rule is spectrally accurate for
    # smooth periodic integrands.
    nx = params.x_quad
    return -math.pi + 2 * math.pi * np.arange(nx) / nx, 2 * math.pi / nx


def _densities(params: HeatKernelParams, v: np.ndarray, x: np.ndarray, step: int) -> np.ndarray:
    """``heat_rho`` of every point of ``v`` on ``x``, one row each, built
    ``step`` points at a time."""
    flat = v.ravel()
    out = np.empty((flat.size, x.size), dtype=complex)
    for i in range(0, flat.size, step):
        out[i : i + step] = heat_rho(params, flat[i : i + step], x)
    return out


def heat_kernel_formula(params: HeatKernelParams, z, w) -> np.ndarray | complex:
    """Heat-kernel integral form of the reproducing kernel:
    ``(1/2pi) int rho_t^z(x) rho_t^{conj(w)}(x) / rho_t^0(x) dx``.

    ``z`` and ``w`` may be complex scalars or arrays; the result has shape
    ``z.shape + w.shape``, element for element equal to the scalar calls.
    The densities of the base point 0, of each ``z`` and of each ``conj(w)``
    are built once.  Returned uncalibrated; see :func:`calibrate_heat_kernel` for
    the single scalar relating it to the Gram-inverse kernel.
    """
    x, dx = _x_grid(params)
    denom = heat_rho(params, 0.0, x)
    if np.min(np.abs(denom)) < _DIVISION_GUARD:
        i = int(np.argmin(np.abs(denom)))
        raise QuadratureError(
            f"denominator density below guard at x={x[i]:.6f} (|rho|={abs(denom[i]):.3e})"
        )
    z = np.asarray(z, dtype=complex)
    w_bar = np.conj(np.asarray(w, dtype=complex))
    step = max(1, _CHUNK_ELEMENTS // (x.size * (2 * params.M + 1)))  # bounds the mode-sum terms
    rho_z, rho_w = _densities(params, z, x, step), _densities(params, w_bar, x, step)
    vals = np.empty((len(rho_z), len(rho_w)), dtype=complex)
    for a, rz in enumerate(rho_z):
        for i in range(0, len(rho_w), step):
            num = rz * rho_w[i : i + step]
            vals[a, i : i + step] = np.sum(num / denom, axis=-1) * dx / (2 * math.pi)
    vals = vals.reshape(z.shape + w_bar.shape)
    return complex(vals) if vals.ndim == 0 else vals


def calibrate_heat_kernel(params: HeatKernelParams, kernel: KernelRep) -> complex:
    """Scalar ``c`` such that ``c * heat_kernel_formula`` matches the
    Gram-inverse kernel, fixed by comparison at the base point (0, 0)."""
    ref = kernel.eval(0.0, 0.0)
    raw = heat_kernel_formula(params, 0.0, 0.0)
    return complex(ref) / complex(raw)
