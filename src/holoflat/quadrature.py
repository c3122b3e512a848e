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
    # ~3e-9 relative error.  A few Newton steps in 40-digit arithmetic give
    # correctly rounded float64 nodes and weights.
    from mpmath import mp

    x0, _ = np.polynomial.hermite.hermgauss(order)

    def hermite_pair(x):
        h0, h1 = mp.mpf(1), 2 * x
        if order == 1:
            return h1, 2 * h0
        for k in range(2, order + 1):
            h0, h1 = h1, 2 * x * h1 - 2 * (k - 1) * h0
        return h1, 2 * order * h0

    def to_longdouble(x):
        hi = float(x)
        return np.longdouble(hi) + np.longdouble(float(x - hi))

    with mp.workdps(40):
        scale = 2 ** (order + 1) * mp.factorial(order) * mp.sqrt(mp.pi)
        nodes = np.empty(order)
        weights = np.empty(order)
        nodes_ld = np.empty(order, dtype=np.longdouble)
        weights_ld = np.empty(order, dtype=np.longdouble)
        for i, xi in enumerate(x0):
            x = mp.mpf(float(xi))
            for _ in range(6):
                h, dh = hermite_pair(x)
                x = x - h / dh
            _, dh = hermite_pair(x)
            w = scale / (dh * dh)
            nodes[i] = float(x)
            weights[i] = float(w)
            nodes_ld[i] = to_longdouble(x)
            weights_ld[i] = to_longdouble(w)
    for arr in (nodes, weights, nodes_ld, weights_ld):
        arr.flags.writeable = False
    return nodes, weights, nodes_ld, weights_ld


def hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the weight ``e^{-x^2}`` on the real line.

    Exact for polynomials up to degree ``2*order - 1``.
    """
    if order < 1:
        raise ValidationError(f"quadrature order must be >= 1, got {order}")
    nodes, weights, _, _ = _hermite_rule_cached(int(order))
    return nodes.copy(), weights.copy()


def hermite_rule_extended(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Long-double nodes and weights of the same rule.

    Float64 node rounding alone costs ~1e-10 relative error on strongly
    cancelling integrands (e.g. pure oscillations integrating to e^{-16});
    the extended rule pushes that below 1e-12.
    """
    if order < 1:
        raise ValidationError(f"quadrature order must be >= 1, got {order}")
    _, _, nodes_ld, weights_ld = _hermite_rule_cached(int(order))
    return nodes_ld.copy(), weights_ld.copy()


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
