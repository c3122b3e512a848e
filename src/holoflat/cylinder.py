"""Periodic reference model on the circle.

The phase space is a cylinder: one periodic coordinate of period 2*pi with
unit metric.  It is the only configuration space the package integrates on,
so its tangent grid is fixed by the quadrature order alone.  The holomorphic
basis e^{ikz} (and its normalized variant e^{ikz - k^2/2}) has closed-form
Gram entries, and the reproducing kernel admits an independent heat-kernel
integral representation that cross-validates the Gram-inverse construction;
one scalar, fixed at the base point (0, 0), calibrates the first against the second.

The circle's Green function and its heat kernel, the Green function at ``T = -i t``,
share one theta-function pair: a mode sum and a winding sum, equal by Poisson summation.
``greens_spectral`` and ``greens_winding`` evaluate the Green function in the two forms,
whose agreement under complexified time is the end-to-end validation of the scheme.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, ValidationError
from .hilbert import BasisSpec, KernelRep

__all__ = [
    "DEFAULT_N",
    "HeatKernelParams",
    "cylinder_basis",
    "heat_kernel_formula",
    "greens_winding",
    "greens_spectral",
]

DEFAULT_N = 8
DEFAULT_EPSILON = 0.05  # Green-function regularization T -> T * (1 - i epsilon)

_RAW_MAX_N = 6  # e^{pq} reaches e^36 here; beyond that conditioning is hopeless
_DIVISION_GUARD = 1e-12
_TAIL_TOL = 1e-8  # largest accepted bound on the omitted terms of a theta sum
_BLOCK = 2**16  # terms per block of a theta sum; 1 MB complex


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
        return BasisSpec(labels, _normalized_mode, _normalized_inner, plane_wave=True)
    return BasisSpec(labels, _raw_mode, _raw_inner, plane_wave=True)


# Module-level, not per-call closures, so equal arguments give equal (and
# equally hashed) bases.
def _normalized_mode(k, z):
    return np.exp(1j * k * z - k**2 / 2.0)


def _normalized_inner(p, q):
    return complex(math.exp(-((p - q) ** 2) / 2.0))


def _raw_mode(k, z):
    return np.exp(1j * k * z)


def _raw_inner(p, q):
    return complex(math.exp(p * q))


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


# The theta-function pair takes angle differences d, real or complex, and T with Im T < 0
# (else ValidationError).  A sum that is not finite, or whose bound on the omitted terms
# exceeds _TAIL_TOL, raises QuadratureError (naming the cutoff that passes) ending in where.


def _mode_sum(d: np.ndarray, T: complex, M: int, where: str = "") -> np.ndarray:
    """``(1/2pi) sum_{|k|<=M} e^{ikd - ik^2 T/2}`` at each ``d``.

    Mode k has modulus at most ``e^{|k| b - a k^2} / 2pi``, ``b = max |Im d|`` and
    ``a = -Im T / 2``; from ``|k| = M + 1`` on each bound is at most ``e^{b - a(2M + 3)}``
    times the one before, and the omitted modes of both signs add twice that series.
    """
    T = _check_time_converges(T, "mode sum")
    k = np.arange(-M, M + 1)
    b, a = float(np.abs(d.imag).max(initial=0.0)), -T.imag / 2

    def tail(m: int) -> float:
        return _geometric((m + 1) * b - a * (m + 1) ** 2, b - a * (2 * m + 3)) / math.pi

    with np.errstate(over="ignore", invalid="ignore"):
        ik, phase = 1j * k, 1j * k**2 * T / 2.0
        g = _row_sums(d, len(k), lambda col: np.exp(ik * col - phase)) / (2 * math.pi)
    return _checked("mode", g, T, where, tail, M, "M")


def _winding_sum(d: np.ndarray, T: complex, n_max: int, where: str = "") -> np.ndarray:
    """``pref sum_{|n|<=n_max} e^{i(d + 2 pi n)^2 / (2T)}`` at each ``d``, with
    ``pref = (2 pi i T)^{-1/2}`` the principal root.

    Winding n has modulus at most ``|pref| e^{g(|u|)}``, ``u = Re d + 2 pi n``,
    ``g(x) = c x^2 + e x - c v^2``, ``c = Im T / 2|T|^2``, ``v = max |Im d|`` and
    ``e = v |Re T| / |T|^2``.  The omitted windings of each sign have ``|u| >= s + 2 pi j``,
    ``j >= 0``, ``s = 2 pi (n_max + 1) - max |Re d|``; where g falls from s on, each
    bound is at most ``e^{g(s + 2 pi) - g(s)}`` times the one before.
    """
    T = _check_time_converges(T, "winding sum")
    n = np.arange(-n_max, n_max + 1)
    shift, two_T, pref = 2 * math.pi * n, 2 * T, 1.0 / cmath.sqrt(2 * math.pi * 1j * T)
    u, v = (float(np.abs(part).max(initial=0.0)) for part in (d.real, d.imag))
    r = abs(T)  # |T|^2 underflows to 0 below |T| ~ 1.5e-162
    c, e = T.imag / r / r / 2, v * abs(T.real) / r / r

    def tail(m: int) -> float:
        s = 2 * math.pi * (m + 1) - u
        if s <= 0 or 2 * c * s + e > 0:  # no margin to the omitted windings, or g rises at s
            return math.inf
        ratio = 2 * math.pi * (2 * c * s + e) + 4 * math.pi**2 * c
        return 2 * abs(pref) * _geometric(c * s * s + e * s - c * v * v, ratio)

    with np.errstate(over="ignore", invalid="ignore"):
        s = _row_sums(d, len(n), lambda col: np.exp(1j * (col + shift) ** 2 / two_T))
        # the steps of the scalar product pref * s: numpy's array product rounds differently
        g = np.empty_like(s)
        g.real = pref.real * s.real - pref.imag * s.imag
        g.imag = pref.real * s.imag + pref.imag * s.real
    return _checked("winding", g, T, where, tail, n_max, "n_max")


def _check_time_converges(T: complex, what: str) -> complex:
    T = complex(T)
    if not cmath.isfinite(T):
        raise ValidationError(f"time parameter must be finite, got T={T}")
    if T.imag >= 0:
        raise ValidationError(
            f"{what} diverges for Im(T) >= 0 (got T={T}); regularize with "
            "T -> T*(1 - i*epsilon), epsilon > 0"
        )
    return T


def _row_sums(d: np.ndarray, width: int, terms) -> np.ndarray:
    """``terms`` of each entry of ``d``, a row of ``width``, summed in blocks of at most
    ``_BLOCK`` terms; ``sum(axis=-1)`` gives each row the bits of its own ``row.sum()``."""
    flat, out = d.reshape(-1, 1), np.empty(d.size, dtype=complex)
    step = max(1, _BLOCK // width)
    for i in range(0, len(flat), step):
        out[i : i + step] = terms(flat[i : i + step]).sum(axis=-1)
    return out.reshape(d.shape)


def _geometric(first: float, ratio: float) -> float:
    """Bound on a series of terms at most ``e^first``, then each at most ``e^ratio`` times
    the one before: ``e^first / (1 - e^ratio)``, inf unless ``ratio < 0``."""
    return math.exp(first) / -math.expm1(ratio) if ratio < 0 and first < 700 else math.inf


def _checked(what: str, g: np.ndarray, T: complex, where: str, tail, n: int, name: str):
    if not np.isfinite(g).all():
        raise QuadratureError(f"{what} sum not finite at T={T}{where}: its terms overflow")
    bound = tail(n)
    if bound <= _TAIL_TOL:
        return g
    lo, hi = n, 2 * n + 1  # the smallest passing cutoff, by doubling and bisection
    while tail(hi) > _TAIL_TOL and hi < 2**62:
        lo, hi = hi, 2 * hi + 1
    advice = f"no {name} below 2^62 bounds it"
    if tail(hi) <= _TAIL_TOL:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if tail(mid) > _TAIL_TOL else (lo, mid)
        advice = f"increase {name} to {hi}"
    raise QuadratureError(
        f"{what}-sum tail {bound:.3e} above tolerance {_TAIL_TOL:.1e} at T={T}{where}; {advice}"
    )


def greens_winding(
    theta: float | np.ndarray, theta0: float, T: complex, n_max: int
) -> complex | np.ndarray:
    """Free-particle Green function on the circle as a winding sum:
    ``sum_{|n|<=n_max} (2 pi i T)^{-1/2} exp(i (theta - theta0 + 2 pi n)^2 / (2T))``.

    Uses the principal square root.  Requires ``Im(T) < 0`` so the terms
    decay; evaluate at complexified time ``T*(1 - i*epsilon)`` for real T.
    A float ``theta`` gives a complex, an array one value per entry.  A non-finite
    angle raises ValidationError; a value that is not finite, or omitted windings
    whose bound exceeds the tail tolerance, QuadratureError.
    """
    if n_max < 0:
        raise ValidationError(f"n_max must be nonnegative, got {n_max}")
    return _per_theta(_winding_sum, theta, theta0, T, n_max)


def greens_spectral(
    theta: float | np.ndarray, theta0: float, T: complex, M: int
) -> complex | np.ndarray:
    """Free-particle Green function on the circle as a mode sum:
    ``(1/2pi) sum_{|k|<=M} e^{ik(theta-theta0)} e^{-i k^2 T / 2}``.

    Equal to the winding sum by Poisson summation whenever both converge; values and
    refusals as in ``greens_winding``.
    """
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    return _per_theta(_mode_sum, theta, theta0, T, M)


def _per_theta(theta_sum, theta, theta0: float, T: complex, n: int) -> complex | np.ndarray:
    """``theta_sum`` cut at ``n`` at the differences ``theta - theta0``, each value with
    the bits of a scalar call; a float ``theta`` gives a complex.  A non-finite angle
    raises ValidationError."""
    theta = np.asarray(theta, dtype=float)
    if not (math.isfinite(theta0) and np.isfinite(theta).all()):
        raise ValidationError(f"theta and theta0 must be finite, got theta0={theta0}")
    g = theta_sum(theta - theta0, T, n, f", theta0={theta0}")
    return complex(g) if theta.ndim == 0 else g


def heat_kernel_formula(params: HeatKernelParams, kernel: KernelRep, z, w) -> np.ndarray | complex:
    """Heat-kernel integral form of the reproducing kernel,
    ``c (1/2pi) int rho_t^z(x) rho_t^{conj(w)}(x) / rho_t^0(x) dx``, with the scalar ``c``
    that makes it equal ``kernel`` at the base point (0, 0).

    ``z`` and ``w`` may be complex scalars or arrays; the result has shape
    ``z.shape + w.shape``, element for element equal to the scalar calls.
    The base point's densities are the denominator ``rho_t^0`` itself, so the
    denominator and the densities of each ``z`` and each ``conj(w)`` are built once.
    """
    nx = params.x_quad  # a uniform grid: the trapezoid rule is spectral for periodic integrands
    x, dx = -math.pi + 2 * math.pi * np.arange(nx) / nx, 2 * math.pi / nx
    T = complex(0.0, -params.t)  # the heat kernel is the Green function at T = -i t
    denom = _mode_sum(x, T, params.M)
    if np.min(np.abs(denom)) < _DIVISION_GUARD:
        i = int(np.argmin(np.abs(denom)))
        raise QuadratureError(
            f"denominator density below guard at x={x[i]:.6f} (|rho|={abs(denom[i]):.3e})"
        )
    base = complex(np.sum(denom * denom / denom) * dx / (2 * math.pi))  # at (0, 0) both are rho_t^0
    c = kernel.eval(0.0, 0.0) / base
    z, w_bar = np.asarray(z, dtype=complex), np.conj(np.asarray(w, dtype=complex))
    rho_z, rho_w = (_mode_sum(x - v.reshape(-1, 1), T, params.M) for v in (z, w_bar))
    step = max(1, _BLOCK // x.size)  # w points per block of products
    vals = np.empty((len(rho_z), len(rho_w)), dtype=complex)
    for a, rz in enumerate(rho_z):
        for i in range(0, len(rho_w), step):
            num = rz * rho_w[i : i + step]
            vals[a, i : i + step] = np.sum(num / denom, axis=-1) * dx / (2 * math.pi)
    vals = c * vals.reshape(z.shape + w_bar.shape)
    return complex(vals) if vals.ndim == 0 else vals
