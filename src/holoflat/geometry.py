"""Flat configuration-space charts.

A chart models a flat manifold (products of circles and lines) by a constant
symmetric positive-definite metric ``sigma`` together with per-coordinate
periods.  Tangent vectors at the base point carry holomorphic coordinates;
the convention used throughout the numerical machinery is ``z = x - i y``
for a tangent vector ``x d/dq + y d/dp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["FlatChart", "make_chart"]

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class FlatChart:
    """Validated flat chart: dimension, constant metric and periods.

    ``periods[i]`` is the period ``L_i`` of coordinate ``i`` or ``None`` for
    an aperiodic (line) coordinate.  The factor ``tangent_transform``
    (mapping Gauss-Hermite variables to chart coordinates, ``x = T u``) is
    precomputed at construction.
    """

    n: int
    sigma: np.ndarray
    periods: tuple[float | None, ...]
    tangent_transform: np.ndarray


def make_chart(n: int, sigma, periods) -> FlatChart:
    """Validate and build a flat chart.

    Parameters
    ----------
    n : int
        Configuration dimension (positive).
    sigma : array-like, shape (n, n)
        Symmetric positive-definite base metric.
    periods : sequence of length n
        Period ``L_i > 0`` per coordinate, or ``None`` for aperiodic.
    """
    if n < 1:
        raise ValidationError(f"dimension must be positive, got {n}")
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape != (n, n):
        raise ValidationError(f"sigma must be {n}x{n}, got shape {sigma.shape}")
    scale = max(np.abs(sigma).max(), 1.0)
    if np.abs(sigma - sigma.T).max() > _SYMMETRY_TOL * scale:
        raise ValidationError("sigma must be symmetric")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("sigma must be positive-definite") from exc
    if len(periods) != n:
        raise ValidationError(f"periods must have length {n}, got {len(periods)}")
    clean: list[float | None] = []
    for i, L in enumerate(periods):
        if L is None:
            clean.append(None)
            continue
        L = float(L)
        if not L > 0:
            raise ValidationError(f"period of coordinate {i} must be positive, got {L}")
        clean.append(L)
    transform = np.linalg.inv(chol.T)  # x = transform @ u gives x^T sigma x = |u|^2
    return FlatChart(
        n=n,
        sigma=sigma,
        periods=tuple(clean),
        tangent_transform=transform,
    )
