"""Tensor Gauss-Hermite quadrature for the normalized Gaussian tangent measure.

The measure is ``e^{-|z|^2} dz`` on the tangent space (``|z|^2`` taken in the
chart metric), scaled so the constant function integrates to exactly 1.  One
Gauss-Hermite rule per real dimension; grids are enumerated in chunks so no
full 2n-dimensional array is ever materialized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .errors import QuadratureError, ValidationError
from .geometry import FlatChart, TangentComplex

__all__ = [
    "QuadratureRule",
    "hermite_rule",
    "hermite_rule_extended",
    "gaussian_rule",
    "integrate_tangent",
    "tangent_blocks",
    "tangent_nodes",
]

DEFAULT_ORDER = 64


@lru_cache(maxsize=None)
def _hermite_rule_cached(order: int) -> tuple[np.ndarray, np.ndarray]:
    # Eigenvalue nodes from numpy are only ~1e-14 accurate, which caps Gram
    # entries with strong cancellation (e.g. <phi_{-4}, phi_4> = e^{-16}) at
    # ~3e-9 relative error.  Newton steps in long double on the orthonormal
    # Hermite recurrence (Golub & Welsch 1969; Townsend, Trogdon & Olver 2016)
    # give correctly rounded float64 nodes, which a long double no wider than
    # double cannot.
    ld = np.longdouble
    nmant = np.finfo(ld).nmant
    if nmant < 63:
        raise QuadratureError(
            f"Gauss-Hermite rules need a long double of >= 63 mantissa bits, not {nmant}"
        )
    with np.errstate(all="ignore"):
        x = np.polynomial.hermite.hermgauss(order)[0].astype(ld)
    if not np.all(np.isfinite(x)):
        # hermgauss overflows float64 at its outer nodes from order 741 on
        raise QuadratureError(
            f"Gauss-Hermite nodes of order {order} are not finite; lower the quadrature order"
        )
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
    if order < 1:
        raise ValidationError(f"quadrature order must be >= 1, got {order}")
    nodes, weights = _hermite_rule_cached(int(order))
    return nodes.astype(np.float64), weights.astype(np.float64)


def hermite_rule_extended(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Long-double nodes and weights of the same rule.

    Float64 rounding of the rule alone costs ~1e-10 relative error on strongly
    cancelling integrands (e.g. pure oscillations integrating to e^{-16});
    the extended rule pushes that to 5e-13 on the Gram entries of acceptance
    criterion 1 (order 64), set by the long-double rounding of the weights.
    """
    if order < 1:
        raise ValidationError(f"quadrature order must be >= 1, got {order}")
    nodes, weights = _hermite_rule_cached(int(order))
    return nodes.copy(), weights.copy()


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss-Hermite rule over ``dims`` real dimensions."""

    order: int
    dims: int
    nodes: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    normalization: float


def gaussian_rule(dims: int, order: int = DEFAULT_ORDER) -> QuadratureRule:
    """Rule normalized so that the constant 1 integrates to exactly 1."""
    if dims < 2 or dims % 2 != 0:
        raise ValidationError(f"dims must be a positive even number, got {dims}")
    x, w = hermite_rule(order)
    return QuadratureRule(
        order=order,
        dims=dims,
        nodes=tuple(x for _ in range(dims)),
        weights=tuple(w for _ in range(dims)),
        normalization=math.pi ** (-dims / 2),
    )


def tangent_blocks(
    chart: FlatChart, rule: QuadratureRule, extended: bool = False
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield chunks ``(Z, w)`` of the tensor grid.

    ``Z`` has shape ``(m, n)`` with holomorphic coordinates ``z = x - i y``
    of the grid points and ``w`` the matching normalized weights (summing to
    1 over all chunks).  The last two tensor axes are vectorized; any
    remaining axes are looped, keeping memory flat at dims >= 4.  With
    ``extended=True`` the grid is produced in long-double precision for
    cancellation-sensitive consumers.
    """
    n = chart.n
    if rule.dims != 2 * n:
        raise ValidationError(f"rule has {rule.dims} dims, chart needs {2 * n}")
    real_t = np.longdouble if extended else np.float64
    if extended:
        xnode, wnode = hermite_rule_extended(rule.order)
        nodes = tuple(xnode for _ in range(rule.dims))
        weights = tuple(wnode for _ in range(rule.dims))
        normalization = np.pi ** (-real_t(rule.dims) / 2)
    else:
        nodes, weights, normalization = rule.nodes, rule.weights, rule.normalization
    T = chart.tangent_transform.astype(real_t)
    U1, U2 = np.meshgrid(nodes[-2], nodes[-1], indexing="ij")
    plane = np.column_stack([U1.ravel(), U2.ravel()])
    wplane = np.outer(weights[-2], weights[-1]).ravel()
    m = plane.shape[0]
    outer_axes = rule.dims - 2
    for idx in itertools.product(*(range(len(nodes[a])) for a in range(outer_axes))):
        u = np.empty((m, rule.dims), dtype=real_t)
        wout = real_t(1.0)
        for a, i in enumerate(idx):
            u[:, a] = nodes[a][i]
            wout *= weights[a][i]
        u[:, -2:] = plane
        x = u[:, :n] @ T.T
        y = u[:, n:] @ T.T
        yield x - 1j * y, normalization * wout * wplane


def tangent_nodes(
    chart: FlatChart, rule: QuadratureRule, extended: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Holomorphic coordinates ``z`` and weights ``w`` of the grid of a
    one-dimensional chart; other charts are rejected before any grid is built."""
    if chart.n != 1:
        raise ValidationError(
            f"the Hilbert layer supports one-dimensional charts only, got n = {chart.n}"
        )
    # With dims = 2 there are no outer axes, so the grid is a single block.
    [(Z, w)] = tangent_blocks(chart, rule, extended)
    return np.ascontiguousarray(Z[:, 0]), w


def integrate_tangent(
    chart: FlatChart,
    rule: QuadratureRule,
    f: Callable,
    *,
    vectorized: bool = False,
) -> complex:
    """Integrate ``f`` against the normalized Gaussian measure.

    ``f`` maps a :class:`TangentComplex` to a complex number; with
    ``vectorized=True`` it instead receives an ``(m, n)`` array of grid
    coordinates and must return ``m`` values.
    """
    total = 0.0 + 0.0j
    for Z, w in tangent_blocks(chart, rule):
        if vectorized:
            vals = np.asarray(f(Z), dtype=complex).reshape(-1)
        else:
            vals = np.array([f(TangentComplex(z=Z[i])) for i in range(Z.shape[0])], dtype=complex)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise QuadratureError(f"integrand is not finite at node z={Z[i]} (value {vals[i]})")
        total += np.sum(w * vals)
    return complex(total)
