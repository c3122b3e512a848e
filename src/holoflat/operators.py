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

ADJOINT_BUFFER = 2


@dataclass(frozen=True)
class OperatorMatrix:
    """Matrix acting on normalized-basis coefficients ``k = -N..N``."""

    N: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        dim = 2 * self.N + 1
        if m.shape != (dim, dim):
            raise ValidationError(f"operator must be {dim}x{dim}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("operator entries must be finite")
        object.__setattr__(self, "entries", m)

    def apply(self, state: HoloState) -> HoloState:
        if state.basis.size != 2 * self.N + 1:
            raise ValidationError(
                f"state has {state.basis.size} coefficients, operator acts on {2 * self.N + 1}"
            )
        return HoloState(state.basis, self.entries @ state.coeffs)

    def is_diagonal(self, tol: float = 0.0) -> bool:
        off = self.entries - np.diag(np.diag(self.entries))
        return bool(np.abs(off).max() <= tol)


def ladder_lower(N: int) -> OperatorMatrix:
    """Holomorphic differentiation d/dz: diagonal ``ik`` on mode ``k``."""
    k = np.arange(-N, N + 1)
    return OperatorMatrix(N=N, entries=np.diag(1j * k.astype(complex)))


def _multiplication_moments_closed(N: int) -> np.ndarray:
    """T[l, k] = <phi~_l, z phi~_k> = -i l e^{-(l-k)^2/2}.

    Obtained by differentiating the exponential closed form
    <e^{alpha z}, e^{beta z}> = e^{conj(alpha) beta} with respect to beta at
    alpha = il, beta = ik (the extra z down-shifts the exponent).
    """
    l = np.arange(-N, N + 1)[:, None]
    k = np.arange(-N, N + 1)[None, :]
    return -1j * l * np.exp(-((l - k) ** 2) / 2.0)


def ladder_raise(gram: GramData, N: int) -> OperatorMatrix:
    """Projection of multiplication by z: ``M = G^{-1} T`` with the
    closed-form moments ``T[l, k] = <phi~_l, z phi~_k>``."""
    if len(gram.labels) != 2 * N + 1:
        raise ValidationError(f"gram truncation {len(gram.labels)} != {2 * N + 1}")
    return OperatorMatrix(N=N, entries=gram.solve(_multiplication_moments_closed(N)))


def hamiltonian_free(N: int) -> OperatorMatrix:
    """Free-particle Hamiltonian ``-a^2/2``: diagonal ``k^2/2`` on mode ``k``."""
    k = np.arange(-N, N + 1)
    return OperatorMatrix(N=N, entries=np.diag((k**2 / 2.0).astype(complex)))


def to_orthonormal_frame(op: OperatorMatrix, C: np.ndarray) -> np.ndarray:
    """Matrix of the operator in the orthonormal frame ``beta_j = sum_k C[k,j] phi~_k``."""
    return np.linalg.solve(C, op.entries @ C)


def adjointness_residual(gram: GramData, N: int, buffer: int = ADJOINT_BUFFER) -> float:
    """Max deviation of the raising matrix from the conjugate transpose of
    the lowering matrix, in the orthonormal frame, after discarding the
    ``2 * buffer`` trailing (edge-mode) rows and columns.

    Multiplication by z maps the outermost modes outside the truncated span,
    so exact adjointness only holds on this interior block.
    """
    C = orthonormalize(gram)
    R = to_orthonormal_frame(ladder_raise(gram, N), C)
    L = to_orthonormal_frame(ladder_lower(N), C)
    m = 2 * N + 1 - 2 * buffer
    if m < 1:
        raise ValidationError(f"buffer {buffer} leaves no interior block at N={N}")
    D = R[:m, :m] - np.conj(L[:m, :m]).T
    return float(np.abs(D).max())
