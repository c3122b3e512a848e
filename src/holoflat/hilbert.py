"""Hilbert-space machinery over a registered holomorphic basis.

Closed-form Gram matrices and their Cholesky factorization, Gram-Schmidt
orthonormalization in the alternating index order, and reproducing kernels
(Gram-inverse and orthonormal series forms).

Every Gaussian integral over the tangent space is one matrix, ``grid_gram(basis, order)``:
G_q, the Gram matrix on the order-``order`` tangent grid, read from the grid's two 1-D
sums, G_q[p, q] = conj(c_p) c_q X(q - p) Y(p + q), no grid node evaluated.  Callers write
the algebra on it: the scalar product of states f, g is ``f^H G_q g`` and the
kernel-weighted projection of f is ``mid G_q f``.  It takes only plane waves
``phi_k(z) = c_k e^{ikz}`` (``BasisSpec.plane_wave``), as both circle bases are, and refuses
other bases: no program integrates one (monomials have a closed form).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Sequence

import numpy as np

from .errors import FactorizationError, QuadratureError, ValidationError
from .quadrature import plane_wave_moments

__all__ = [
    "BasisSpec",
    "GramData",
    "KernelRep",
    "HoloState",
    "bargmann_monomial_basis",
    "gram_matrix",
    "grid_gram",
    "orthonormalize",
    "reproducing_kernel",
    "orthonormal_series_kernel",
    "state_norm",
]

_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class BasisSpec:
    """Ordered holomorphic basis: integer labels and an evaluation map.

    ``eval_fn(k, z)`` must be vectorized over a complex array ``z``.
    ``closed_form_inner(p, q)`` gives the analytic Gram entry of labels ``p``, ``q``.
    ``plane_wave`` declares ``eval_fn(k, z) = eval_fn(k, 0) e^{ikz}``, with ``eval_fn``
    taking long double at ``z = 0``: only such a basis has Gaussian integrals.
    """

    labels: tuple[int, ...]
    eval_fn: Callable[[int, np.ndarray], np.ndarray]
    closed_form_inner: Callable[[int, int], complex]
    plane_wave: bool = False

    def __post_init__(self):
        labels = tuple(int(k) for k in self.labels)
        if len(set(labels)) != len(labels):
            raise ValidationError("basis labels must be distinct")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    def design_matrix(self, z) -> np.ndarray:
        """Evaluate every basis function at ``z``; shape ``(len(z), size)``."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        return np.column_stack([self.eval_fn(k, z) for k in self.labels])


@dataclass(frozen=True)
class GramData:
    """Gram matrix of a basis, stored symmetrised, and its Cholesky factor.  A matrix not
    finite and Hermitian to 1e-12, or not positive definite, raises FactorizationError."""

    basis: BasisSpec
    matrix: np.ndarray
    factor: np.ndarray = field(init=False)  # lower-triangular, matrix = factor @ factor^H

    def __post_init__(self):
        G = np.asarray(self.matrix, dtype=complex)
        if G.shape != (self.basis.size,) * 2:
            raise ValidationError(f"Gram matrix must be square of the basis size {self.basis.size}")
        scale = max(np.abs(G).max(), 1.0)
        if not np.isfinite(G).all() or np.abs(G - np.conj(G).T).max() > _HERMITICITY_TOL * scale:
            raise FactorizationError("Gram matrix is not finite and Hermitian to tolerance")
        G = 0.5 * (G + np.conj(G).T)
        try:
            factor = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                "basis numerically dependent at this truncation/precision"
            ) from exc
        object.__setattr__(self, "matrix", G)
        object.__setattr__(self, "factor", factor)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``matrix @ x = rhs`` through the Cholesky factor: ``factor @ y = rhs``,
        then ``factor^H @ x = y``."""
        y = np.linalg.solve(self.factor, rhs)
        return np.linalg.solve(np.conj(self.factor).T, y)

    def inverse(self) -> np.ndarray:
        return self.solve(np.eye(self.basis.size))


@dataclass(frozen=True)
class HoloState:
    """Element of a basis span: ``coeffs[i]`` multiplies the basis function
    with label ``basis.labels[i]``."""

    basis: BasisSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.basis.size,):
            raise ValidationError(f"coeffs must have length {self.basis.size}")
        if not np.all(np.isfinite(c)):
            raise ValidationError("state coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    def evaluate(self, z) -> np.ndarray | complex:
        z = np.asarray(z)
        vals = self.basis.design_matrix(z.ravel()) @ self.coeffs
        return complex(vals[0]) if z.ndim == 0 else vals.reshape(z.shape)


def bargmann_monomial_basis(max_degree: int) -> BasisSpec:
    """Orthonormal monomials ``z^m / sqrt(m!)`` of the full Bargmann space."""
    return BasisSpec(tuple(range(max_degree + 1)), _monomial, _orthonormal_inner)


def _monomial(m, z):
    return z**m / np.sqrt(float(factorial(m)))


def _orthonormal_inner(p, q):
    return 1.0 + 0.0j if p == q else 0.0j


def grid_gram(basis: BasisSpec, order: int) -> np.ndarray:
    """G_q of a plane-wave ``basis`` on the order-``order`` grid, formed in long double
    from ``c_k = phi_k(0)`` and the grid's 1-D sums.  Exactly Hermitian for real ``c_k``."""
    if not basis.plane_wave:
        raise ValidationError("Gaussian integrals need a basis of plane waves phi_k(0) e^{ikz}")
    k = np.array(basis.labels)
    K = int(np.abs(k).max(initial=0))
    X, Y = plane_wave_moments(order, K)
    c = np.array([basis.eval_fn(int(j), np.zeros(1, np.clongdouble))[0] for j in k])
    with np.errstate(over="ignore", invalid="ignore"):  # past the long-double range
        G = (np.conj(c)[:, None] * c) * X[k - k[:, None] + 2 * K] * Y[k[:, None] + k + 2 * K]
    G = G.astype(complex)
    if not np.isfinite(G).all():
        raise QuadratureError(f"Gaussian integrals of the basis overflow at order {order}")
    return G


def _alternating_ordering(labels: Sequence[int]) -> tuple[int, ...]:
    """Orthonormalization order 0, 1, -1, 2, -2, ... for a symmetric label
    range; identity order otherwise."""
    labels = list(labels)
    nb = len(labels)
    if nb % 2 == 1:
        N = (nb - 1) // 2
        if sorted(labels) == list(range(-N, N + 1)):
            seq = [(-1) ** (j + 1) * ((j + 1) // 2) for j in range(nb)]
            return tuple(labels.index(s) for s in seq)
    return tuple(range(nb))


def gram_matrix(basis: BasisSpec) -> GramData:
    """Gram data of the basis from ``closed_form_inner`` (``GramData`` checks and factors
    the matrix); ``GramData(basis, grid_gram(basis, order))`` is its check on a grid."""
    closed = [[complex(basis.closed_form_inner(p, q)) for q in basis.labels] for p in basis.labels]
    return GramData(basis, np.array(closed))


def orthonormalize(gram: GramData, ordering: Sequence[int] | None = None) -> np.ndarray:
    """Gram-Schmidt coefficients ``C`` with ``beta_j = sum_k C[k, j] phi_k``.

    Processing follows ``ordering``, by default the alternating order of the
    basis labels (columns come out in that order), equivalent to classical
    Gram-Schmidt and realized as a permuted Cholesky solve.  Satisfies
    ``C^H @ gram.matrix @ C = I``.
    """
    if ordering is None:
        ordering = _alternating_ordering(gram.basis.labels)
    perm = np.asarray(ordering, dtype=int)
    nb = gram.basis.size
    if sorted(perm.tolist()) != list(range(nb)):
        raise ValidationError("ordering must be a permutation of basis positions")
    Gp = gram.matrix[np.ix_(perm, perm)]
    try:
        L = np.linalg.cholesky(Gp)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            "loss of positivity during elimination; lower the truncation"
        ) from exc
    Cperm = np.linalg.solve(np.conj(L).T, np.eye(nb))
    C = np.zeros_like(Cperm)
    C[perm, :] = Cperm
    return C


@dataclass(frozen=True)
class KernelRep:
    """Evaluable kernel ``K_O(z, w) = Phi(z)^T mid conj(Phi(w))``.

    ``mid = G^{-1}`` (obtained by Cholesky solves, not explicit inversion)
    gives the reproducing kernel; ``mid = O @ G^{-1}`` the integral kernel
    of the operator ``O``; ``mid = C @ C^H`` the orthonormal series form.
    """

    basis: BasisSpec
    mid: np.ndarray

    def __post_init__(self):
        if np.shape(self.mid) != (self.basis.size,) * 2:
            raise ValidationError(f"kernel matrix must be square of the basis size {self.basis.size}")

    def eval(self, z, w) -> np.ndarray | complex:
        """Kernel at ``(z, w)`` by ``einsum``; broadcasts over arrays of equal shape.
        Kept apart from the matmul of :meth:`eval_grid`, as merging moves printed figures: a
        matmul ``eval`` takes criterion 5's coherent equality 1.198e-15 -> 6.024e-16 and every
        ``heatkernel`` row, an einsum ``eval_grid`` its hermitian figure 8.882e-15 -> 1.432e-14."""
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        Pz = self.basis.design_matrix(z.ravel())
        Pw = self.basis.design_matrix(w.ravel())
        vals = np.einsum("ip,pq,iq->i", Pz, self.mid, np.conj(Pw))
        return complex(vals[0]) if z.ndim == 0 and w.ndim == 0 else vals.reshape(np.broadcast(z, w).shape)

    def eval_grid(self, z, w) -> np.ndarray:
        """Kernel on the outer grid of z-points by w-points, by ``matmul``
        (see :meth:`eval` for why the two routes stay apart)."""
        Pz = self.basis.design_matrix(z)
        Pw = self.basis.design_matrix(w)
        return (Pz @ self.mid) @ np.conj(Pw).T

    def coherent_state(self, w: complex) -> HoloState:
        """Coherent-state section at ``w``: ``K(., conj(w))`` expanded over the basis."""
        Pw = self.basis.design_matrix(np.atleast_1d(w))[0]
        return HoloState(self.basis, self.mid @ np.conj(Pw))


def reproducing_kernel(gram: GramData) -> KernelRep:
    """Gram-inverse form of the reproducing kernel on the truncated span."""
    return KernelRep(gram.basis, gram.inverse())


def orthonormal_series_kernel(gram: GramData, ordering: Sequence[int] | None = None) -> KernelRep:
    """Series form ``sum_j beta_j(z) conj(beta_j(w))`` of the same kernel."""
    C = orthonormalize(gram, ordering)
    return KernelRep(gram.basis, C @ np.conj(C).T)


def state_norm(state: HoloState, gram: GramData) -> float:
    """Gram norm ``sqrt(c^H G c)`` of a state on the basis of ``gram``."""
    if state.basis != gram.basis:
        raise ValidationError("state basis differs from the basis of the Gram data")
    c = state.coeffs
    return float(np.sqrt(np.real(np.conj(c) @ gram.matrix @ c)))
