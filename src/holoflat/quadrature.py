"""Tensor Gauss-Hermite quadrature for the normalized Gaussian tangent measure.

The measure is ``e^{-|z|^2} dz`` on the tangent plane of the circle (period
2*pi, unit metric), scaled so the constant function integrates to exactly 1.
One Gauss-Hermite rule of the same order on each real axis; the grid is one
flat array of nodes, fixed by the order alone.  This module alone knows its
layout: the grid value declares its reflections z -> -z and z -> -conj(z)
as node permutations, under which its exactly even rule leaves the weights
unchanged.  ``plane_wave_moments`` integrates plane waves on it as two 1-D sums.

The paper integrates each path-integral step in the tangent space and maps
it to the manifold by the exponential map.  Here that map stays implicit:
the nodes are tangent coordinates, and every basis function is 2*pi-periodic
in ``Re z``, so composing it with the exponential map changes nothing
(``f o exp = f``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError, ValidationError

__all__ = ["DEFAULT_ORDER", "plane_wave_moments", "tangent_grid"]

DEFAULT_ORDER = 64
_MAX_ORDER = 740  # hermgauss overflows float64 at its outer nodes from order 741 on


@lru_cache(maxsize=None)
def _hermite_rule_cached(order: int) -> tuple[np.ndarray, np.ndarray]:
    # Eigenvalue nodes from numpy are only ~1e-14 accurate, which caps Gram
    # entries with strong cancellation (e.g. <phi_{-4}, phi_4> = e^{-16}) at
    # ~3e-9 relative error.  Newton steps in long double on the orthonormal
    # Hermite recurrence (Golub & Welsch 1969; Townsend, Trogdon & Olver 2016)
    # give correctly rounded float64 nodes, which a long double no wider than
    # double cannot.
    if order < 1:
        raise ValidationError(f"quadrature order must be >= 1, got {order}")
    ld = np.longdouble
    nmant = np.finfo(ld).nmant
    if nmant < 63:
        raise QuadratureError(
            f"Gauss-Hermite rules need a long double of >= 63 mantissa bits, not {nmant}"
        )
    not_finite = QuadratureError(
        f"Gauss-Hermite nodes of order {order} are not finite; lower the quadrature order"
    )
    if order > _MAX_ORDER:  # before hermgauss, whose companion matrix takes order^2 memory
        raise not_finite
    with np.errstate(all="ignore"):
        x = np.polynomial.hermite.hermgauss(order)[0].astype(ld)
    if not np.all(np.isfinite(x)):
        raise not_finite
    k = np.arange(1, order + 1, dtype=ld)
    a, b = np.sqrt(2 / k), np.sqrt((k - 1) / k)

    def top_pair(x):
        # p_k = sqrt(2/k) x p_{k-1} - sqrt((k-1)/k) p_{k-2} from p_0 = pi^{-1/4}, with
        # pi in long double (np.pi would put 2e-17 on every weight); returns
        # (p_n, p_{n-1}), and p_n' = sqrt(2n) p_{n-1}.
        prev, p = np.zeros_like(x), np.full_like(x, np.arccos(ld(-1)) ** ld(-0.25))
        for j in range(order):
            prev, p = p, a[j] * x * p - b[j] * prev
        return p, prev

    for _ in range(6):
        p, prev = top_pair(x)
        x -= p / (np.sqrt(ld(2 * order)) * prev)
    w = 1 / (order * top_pair(x)[1] ** 2)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class TangentGrid:
    """A tensor grid on the tangent plane: holomorphic coordinates ``z = x - i y``,
    normalized weights ``w`` (summing to 1) and its two reflections as node permutations,
    ``mirror[i]`` the node at ``-z[i]`` and ``conj[i]`` the node at ``-conj(z[i])``."""

    z: np.ndarray
    w: np.ndarray
    mirror: np.ndarray
    conj: np.ndarray


def tangent_grid(order: int) -> TangentGrid:
    """The tangent plane's order-``order`` grid, in double precision.

    Node ``i * order + j`` sits at Hermite nodes ``(u_i, u_j)``.  The rule is exactly
    even, so the node array read backwards is its own negative, and ``(u_i, u_j)`` maps
    to ``(-u_i, u_j)`` under ``conj``.  Every call builds fresh arrays; the costly part,
    the Hermite rule, is cached.
    """
    u, wu = _hermite_rule_cached(int(order))
    u, wu = u.astype(np.float64), wu.astype(np.float64)
    U1, U2 = np.meshgrid(u, u, indexing="ij")
    n = len(u)
    node = np.arange(n * n, dtype=np.int32)  # orders stop at 740: half the bytes of int64
    return TangentGrid(
        U1.ravel() - 1j * U2.ravel(),
        math.pi**-1.0 * np.outer(wu, wu).ravel(),  # the plane Gaussian e^{-|z|^2} has mass pi
        node[::-1],
        (n - 1 - node // n) * n + node % n,
    )


def plane_wave_moments(order: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """``X[m + 2K] = sum_a v_a e^{i m u_a}`` and ``Y[s + 2K] = sum_b v_b e^{s u_b}`` for
    ``|m|, |s| <= 2K``, ``u, v`` the Hermite rule with weights over sqrt(pi): the grid
    integrates ``conj(e^{ipz}) e^{iqz}`` to ``X(q - p) Y(p + q)``.  In long double (pi too;
    overflow gives inf), as ``<e^{-4iz}, e^{4iz}> = e^{-16}`` is 1e-9 of its summands."""
    u, wu = _hermite_rule_cached(int(order))
    v = wu / np.sqrt(np.arccos(np.longdouble(-1)))
    j = np.arange(-2 * K, 2 * K + 1)[:, None]
    with np.errstate(over="ignore"):
        return np.exp(1j * j * u) @ v, np.exp(j * u) @ v
