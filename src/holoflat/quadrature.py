"""Tensor Gauss-Hermite quadrature for the normalized Gaussian tangent measure.

The measure is ``e^{-|z|^2} dz`` on the tangent plane of the circle (period
2*pi, unit metric), scaled so the constant function integrates to exactly 1.
One Gauss-Hermite rule of the same order on each real axis; the grid is one
flat array of nodes, fixed by the order alone.

The paper integrates each path-integral step in the tangent space and maps
it to the manifold by the exponential map.  Here that map stays implicit:
the nodes are tangent coordinates, and every basis function is 2*pi-periodic
in ``Re z``, so composing it with the exponential map changes nothing
(``f o exp = f``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureError, ValidationError

__all__ = ["DEFAULT_ORDER", "hermite_rule", "tangent_nodes"]

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


def hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the weight ``e^{-x^2}`` on the real line.

    Exact for polynomials up to degree ``2*order - 1``.
    """
    nodes, weights = _hermite_rule_cached(int(order))
    return nodes.astype(np.float64), weights.astype(np.float64)


def tangent_nodes(order: int, extended: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Holomorphic coordinates ``z = x - i y`` and normalized weights ``w``
    (summing to 1) of the order-``order`` tensor grid on the tangent plane.

    Node ``i * order + j`` sits at Hermite nodes ``(u_i, u_j)``, so the node
    array read backwards is its own negative.  With ``extended=True`` the grid
    is built in long double for cancellation-sensitive consumers.  Each grid
    is built once per (order, precision) and the same arrays are returned to
    every caller, so they are read-only: copy before writing.
    """
    return _tangent_grid(int(order), bool(extended))


@lru_cache(maxsize=8)
def _tangent_grid(order: int, extended: bool) -> tuple[np.ndarray, np.ndarray]:
    # normalization 1/pi: the plane Gaussian e^{-|z|^2} has total mass pi
    if extended:
        # a float64 rule costs ~1e-10 relative error on strongly cancelling
        # integrands; long double gives 5e-13 on criterion 1's Gram entries
        u, wu = _hermite_rule_cached(order)
        normalization = np.pi ** -np.longdouble(1)
    else:
        u, wu = hermite_rule(order)
        normalization = math.pi**-1.0
    U1, U2 = np.meshgrid(u, u, indexing="ij")
    z, w = U1.ravel() - 1j * U2.ravel(), normalization * np.outer(wu, wu).ravel()
    z.flags.writeable = w.flags.writeable = False
    return z, w
