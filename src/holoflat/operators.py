"""Ladder operators and Hamiltonians as matrices on truncated coefficients.

The lowering operator is holomorphic differentiation (diagonal on the
periodic basis); the raising operator is the projection of multiplication
by the holomorphic coordinate, built from closed-form moments.  Adjointness
holds on the interior of the truncation: the edge modes are corrupted
because multiplication maps them outside the span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hilbert import GramData, HoloState, orthonormalize

__all__ = [
    "OperatorMatrix",
    "ladder_lower",
    "ladder_raise",
    "hamiltonian_free",
    "to_orthonormal_frame",
    "adjointness_residual",
]

ADJOINT_BUFFER = 2  # edge modes dropped on each side of the adjointness block


@dataclass(frozen=True)
class OperatorMatrix:
    """Square matrix acting on basis coefficients."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValidationError(f"operator must be a nonempty square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("operator entries must be finite")
        object.__setattr__(self, "entries", m)

    def apply(self, state: HoloState) -> HoloState:
        if state.basis.size != len(self.entries):
            raise ValidationError(
                f"state has {state.basis.size} coefficients, operator acts on {len(self.entries)}"
            )
        return HoloState(state.basis, self.entries @ state.coeffs)

    def is_diagonal(self) -> bool:
        return not np.any(self.entries - np.diag(np.diag(self.entries)))


def ladder_lower(N: int) -> OperatorMatrix:
    """Holomorphic differentiation d/dz: diagonal ``ik`` on mode ``k``."""
    k = np.arange(-N, N + 1)
    return OperatorMatrix(np.diag(1j * k.astype(complex)))


def _multiplication_moments_closed(labels) -> np.ndarray:
    """T[l, k] = <phi~_l, z phi~_k> = -i l e^{-(l-k)^2/2}.

    Obtained by differentiating the exponential closed form
    <e^{alpha z}, e^{beta z}> = e^{conj(alpha) beta} with respect to beta at
    alpha = il, beta = ik (the extra z down-shifts the exponent).
    """
    l = np.array(labels)[:, None]
    return -1j * l * np.exp(-((l - l.T) ** 2) / 2.0)


def ladder_raise(gram: GramData) -> OperatorMatrix:
    """Projection of multiplication by z: ``M = G^{-1} T`` with the
    closed-form moments ``T[l, k] = <phi~_l, z phi~_k>`` over the labels of
    ``gram.basis``."""
    return OperatorMatrix(gram.solve(_multiplication_moments_closed(gram.basis.labels)))


def hamiltonian_free(N: int) -> OperatorMatrix:
    """Free-particle Hamiltonian ``-a^2/2``: diagonal ``k^2/2`` on mode ``k``."""
    k = np.arange(-N, N + 1)
    return OperatorMatrix(np.diag((k**2 / 2.0).astype(complex)))


def to_orthonormal_frame(op: OperatorMatrix, C: np.ndarray) -> np.ndarray:
    """Matrix of the operator in the orthonormal frame ``beta_j = sum_k C[k,j] phi~_k``."""
    return np.linalg.solve(C, op.entries @ C)


def adjointness_residual(gram: GramData) -> float:
    """Max deviation of the raising matrix from the conjugate transpose of
    the lowering matrix, in the orthonormal frame, after discarding the
    ``2 * ADJOINT_BUFFER`` trailing (edge-mode) rows and columns.

    Multiplication by z maps the outermost modes outside the truncated span,
    so exact adjointness only holds on this interior block, which needs a
    truncation ``N >= ADJOINT_BUFFER``.
    """
    N = gram.basis.size // 2
    if N < ADJOINT_BUFFER:
        raise ValidationError(f"adjointness needs truncation N >= {ADJOINT_BUFFER}, got N={N}")
    C = orthonormalize(gram)
    R = to_orthonormal_frame(ladder_raise(gram), C)
    L = to_orthonormal_frame(ladder_lower(N), C)
    m = gram.basis.size - 2 * ADJOINT_BUFFER
    D = R[:m, :m] - np.conj(L[:m, :m]).T
    return float(np.abs(D).max())
