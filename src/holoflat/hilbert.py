"""Hilbert-space machinery over a registered holomorphic basis.

Inner products by Gaussian quadrature or closed form, Gram matrices and
their Cholesky factorization, Gram-Schmidt orthonormalization in the
alternating index order, reproducing kernels (Gram-inverse and orthonormal
series forms), and projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import FactorizationError, ValidationError
from .quadrature import tangent_nodes

__all__ = [
    "BasisSpec",
    "GramData",
    "KernelRep",
    "HoloState",
    "bargmann_monomial_basis",
    "inner_product",
    "gram_matrix",
    "orthonormalize",
    "alternating_ordering",
    "reproducing_kernel",
    "orthonormal_series_kernel",
    "project",
    "state_norm",
]

_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class BasisSpec:
    """Ordered holomorphic basis: integer labels and an evaluation map.

    ``eval_fn(k, z)`` must be vectorized over a complex array ``z``, in
    double or long double precision (quadrature Gram matrices evaluate the
    basis on long-double nodes).
    ``closed_form_inner(p, q)``, when given, supplies analytic Gram entries.
    """

    labels: tuple[int, ...]
    eval_fn: Callable[[int, np.ndarray], np.ndarray]
    closed_form_inner: Optional[Callable[[int, int], complex]] = None

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
        z = np.atleast_1d(np.asarray(z))
        z = z if z.dtype == np.clongdouble else z.astype(complex, copy=False)
        return np.column_stack([self.eval_fn(k, z) for k in self.labels])


@dataclass(frozen=True)
class GramData:
    """Gram matrix of a basis with its Cholesky factor."""

    basis: BasisSpec
    matrix: np.ndarray
    factor: np.ndarray  # lower-triangular, matrix = factor @ factor^H

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


@lru_cache(maxsize=1)
def _grid_values(basis: BasisSpec, order: int):
    """Nodes, weights and the read-only design matrix of ``basis`` on the
    order-``order`` tangent grid.  The last (basis, order) pair is kept, so a
    run of Gaussian integrals over one basis evaluates it once."""
    z, w = tangent_nodes(order)
    Phi = basis.design_matrix(z)
    Phi.flags.writeable = False
    return z, w, Phi


def _on_grid(f, order: int) -> np.ndarray:
    """Values of ``f`` on the order-``order`` tangent grid: a state as
    ``Phi @ coeffs`` from the cached design matrix of its basis (what
    ``HoloState.evaluate`` computes), a callable called on the nodes."""
    if isinstance(f, HoloState):
        return _grid_values(f.basis, order)[2] @ f.coeffs
    if callable(f):
        return f(tangent_nodes(order)[0])
    raise ValidationError(f"expected HoloState or callable, got {type(f)}")


def inner_product(f, g, order: int) -> complex:
    """Normalized Gaussian scalar product, conjugate-linear in ``f``, by the
    quadrature of order ``order``.

    Arguments may be states or plain callables of the holomorphic coordinate.
    """
    fz, gz = _on_grid(f, order), _on_grid(g, order)
    _, w = tangent_nodes(order)
    return complex(np.sum(w * np.conj(fz) * gz))


def alternating_ordering(labels: Sequence[int]) -> tuple[int, ...]:
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


def gram_matrix(basis: BasisSpec, order: int | None = None) -> GramData:
    """Gram matrix of the basis with its Cholesky factor.

    With an ``order``, integrates every pair on the tensor grid of that
    order; otherwise uses ``closed_form_inner``.
    """
    if order is not None:
        # Entries like <phi_{-4}, phi_4> = e^{-16} sit 9 orders below the
        # summand magnitudes; extended-precision accumulation keeps the
        # cancellation error below the closed forms' 1e-10 target.
        z, w = tangent_nodes(order, extended=True)
        Phi = basis.design_matrix(z)
        G = (np.conj(Phi).T @ (w[:, None] * Phi)).astype(complex)
    elif basis.closed_form_inner is not None:
        G = np.array(
            [[complex(basis.closed_form_inner(p, q)) for q in basis.labels] for p in basis.labels]
        )
    else:
        raise ValidationError("basis has no closed-form Gram entries; give a quadrature order")
    scale = max(np.abs(G).max(), 1.0)
    if np.abs(G - np.conj(G).T).max() > _HERMITICITY_TOL * scale:
        raise FactorizationError("Gram matrix is not Hermitian to tolerance")
    G = 0.5 * (G + np.conj(G).T)
    try:
        factor = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            "basis numerically dependent at this truncation/precision"
        ) from exc
    return GramData(basis=basis, matrix=G, factor=factor)


def orthonormalize(gram: GramData, ordering: Sequence[int] | None = None) -> np.ndarray:
    """Gram-Schmidt coefficients ``C`` with ``beta_j = sum_k C[k, j] phi_k``.

    Processing follows ``ordering``, by default the alternating order of the
    basis labels (columns come out in that order), equivalent to classical
    Gram-Schmidt and realized as a permuted Cholesky solve.  Satisfies
    ``C^H @ gram.matrix @ C = I``.
    """
    if ordering is None:
        ordering = alternating_ordering(gram.basis.labels)
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
    The basis is the one of ``gram``.
    """

    gram: GramData
    mid: np.ndarray

    def __post_init__(self):
        if np.shape(self.mid) != (self.basis.size,) * 2:
            raise ValidationError(f"kernel matrix must be square of the basis size {self.basis.size}")

    def eval(self, z, w) -> np.ndarray | complex:
        """Kernel at ``(z, w)`` by ``einsum``; broadcasts over arrays of equal shape.
        Kept apart from the matmul of :meth:`eval_grid`, as merging moves printed figures:
        a matmul ``eval`` takes criterion 5's composition 2.161e-14 -> 2.892e-14, its
        coherent equality 1.198e-15 -> 6.024e-16 and every ``heatkernel`` row; an einsum
        ``eval_grid`` its hermitian figure 8.882e-15 -> 1.432e-14."""
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

    @property
    def basis(self) -> BasisSpec:
        return self.gram.basis


def reproducing_kernel(gram: GramData) -> KernelRep:
    """Gram-inverse form of the reproducing kernel on the truncated span."""
    return KernelRep(gram=gram, mid=gram.inverse())


def orthonormal_series_kernel(gram: GramData, ordering: Sequence[int] | None = None) -> KernelRep:
    """Series form ``sum_j beta_j(z) conj(beta_j(w))`` of the same kernel."""
    C = orthonormalize(gram, ordering)
    return KernelRep(gram=gram, mid=C @ np.conj(C).T)


def project(f, kernel: KernelRep, order: int) -> HoloState:
    """Kernel-weighted projection of ``f`` onto the span of ``kernel.basis``.

    For the reproducing kernel this is the orthogonal projection onto the
    truncated span; for an operator kernel it is the operator applied to
    that projection.  The integral runs on the order-``order`` grid.
    """
    fz = _on_grid(f, order)
    _, w, Phi = _grid_values(kernel.basis, order)
    return HoloState(kernel.basis, kernel.mid @ (np.conj(Phi).T @ (w * fz)))


def state_norm(state: HoloState, gram: GramData) -> float:
    """Gram norm ``sqrt(c^H G c)`` of a state."""
    c = state.coeffs
    return float(np.sqrt(np.real(np.conj(c) @ gram.matrix @ c)))
