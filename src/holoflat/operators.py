"""Ladder operators and Hamiltonians as complex matrices on ``cylinder_basis(N)``.

The lowering operator is holomorphic differentiation (diagonal on the
periodic basis); the raising operator is the projection of multiplication
by the holomorphic coordinate, built from closed-form moments.  Adjointness
holds on the interior of the truncation: the edge modes are corrupted
because multiplication maps them outside the span.
"""

from __future__ import annotations

import numpy as np

from .cylinder import cylinder_basis
from .errors import ValidationError
from .hilbert import gram_matrix, orthonormalize

__all__ = [
    "ladder_lower",
    "ladder_raise",
    "hamiltonian_free",
    "adjointness_residual",
]

ADJOINT_BUFFER = 2  # edge modes dropped on each side of the adjointness block


def ladder_lower(N: int) -> np.ndarray:
    """Holomorphic differentiation d/dz: diagonal ``ik`` on mode ``k``."""
    k = np.arange(-N, N + 1)
    return np.diag(1j * k.astype(complex))


def ladder_raise(N: int) -> np.ndarray:
    """Projection of multiplication by z: ``M = G^{-1} T`` on ``cylinder_basis(N)``.

    The moments ``T[l, k] = <phi~_l, z phi~_k> = -i l e^{-(l-k)^2/2} = -i l G[l, k]``
    come from differentiating the closed form ``<e^{alpha z}, e^{beta z}> =
    e^{conj(alpha) beta}`` in ``beta`` at ``alpha = il``, ``beta = ik``.
    """
    gram = gram_matrix(cylinder_basis(N))
    l = np.array(gram.basis.labels)[:, None]
    return gram.solve(-1j * l * gram.matrix)


def hamiltonian_free(N: int) -> np.ndarray:
    """Free-particle Hamiltonian ``-a^2/2``: diagonal ``k^2/2`` on mode ``k``."""
    k = np.arange(-N, N + 1)
    return np.diag((k**2 / 2.0).astype(complex))


def adjointness_residual(N: int) -> float:
    """Max deviation of the raising matrix from the conjugate transpose of the
    lowering matrix, in the orthonormal frame of ``cylinder_basis(N)``, after
    discarding the ``2 * ADJOINT_BUFFER`` trailing (edge-mode) rows and columns.

    Multiplication by z maps the outermost modes outside the truncated span,
    so exact adjointness only holds on this interior block, which needs a
    truncation ``N >= ADJOINT_BUFFER``.
    """
    if N < ADJOINT_BUFFER:
        raise ValidationError(f"adjointness needs truncation N >= {ADJOINT_BUFFER}, got N={N}")
    C = orthonormalize(gram_matrix(cylinder_basis(N)))
    # each operator in the orthonormal frame beta_j = sum_k C[k,j] phi~_k
    R, L = (np.linalg.solve(C, op @ C) for op in (ladder_raise(N), ladder_lower(N)))
    m = 2 * N + 1 - 2 * ADJOINT_BUFFER
    D = R[:m, :m] - np.conj(L[:m, :m]).T
    return float(np.abs(D).max())
