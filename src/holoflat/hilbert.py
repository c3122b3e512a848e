"""Hilbert-space machinery over a registered holomorphic basis.

Inner products by Gaussian quadrature or closed form, Gram matrices and
their Cholesky factorization, Gram-Schmidt orthonormalization in the
alternating index order, reproducing kernels (Gram-inverse and orthonormal
series forms), projections, and operator kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import FactorizationError, ValidationError
from .geometry import FlatChart
from .quadrature import QuadratureRule, tangent_nodes

__all__ = [
    "BasisSpec",
    "GramData",
    "KernelRep",
    "HoloState",
    "bargmann_monomial_basis",
    "inner_product",
    "inner_product_exponential",
    "gram_matrix",
    "moment_matrix",
    "orthonormalize",
    "alternating_ordering",
    "reproducing_kernel",
    "orthonormal_series_kernel",
    "project",
    "project_coeffs",
    "operator_kernel",
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
    """Gram matrix of a basis with its Cholesky factor and processing order."""

    matrix: np.ndarray
    factor: np.ndarray  # lower-triangular, matrix = factor @ factor^H
    ordering: tuple[int, ...]  # positions into labels, orthonormalization order
    labels: tuple[int, ...]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``matrix @ x = rhs`` through the Cholesky factor."""
        return cho_solve((self.factor, True), rhs)

    def inverse(self) -> np.ndarray:
        return self.solve(np.eye(len(self.labels)))


@dataclass(frozen=True)
class HoloState:
    """Element of the periodic subspace: coefficients over the normalized
    basis functions ``e^{ikz - k^2/2}`` for ``k = -N..N``."""

    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * self.N + 1,):
            raise ValidationError(f"coeffs must have length {2 * self.N + 1}")
        if not np.all(np.isfinite(c)):
            raise ValidationError("state coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def labels(self) -> np.ndarray:
        return np.arange(-self.N, self.N + 1)

    def evaluate(self, z) -> np.ndarray | complex:
        z = np.asarray(z, dtype=complex)
        k = self.labels
        vals = np.exp(1j * np.multiply.outer(z, k) - k**2 / 2.0) @ self.coeffs
        return complex(vals) if vals.ndim == 0 else vals

    def to_dict(self) -> dict:
        return {"N": self.N, "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs]}

    @classmethod
    def from_dict(cls, data: dict) -> "HoloState":
        try:
            N = int(data["N"])
            coeffs = np.array([complex(re, im) for re, im in data["coeffs"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed state description: {exc}") from exc
        return cls(N=N, coeffs=coeffs)


def bargmann_monomial_basis(max_degree: int) -> BasisSpec:
    """Orthonormal monomials ``z^m / sqrt(m!)`` of the full Bargmann space."""
    from math import factorial

    def eval_fn(m, z):
        return z**m / np.sqrt(float(factorial(m)))

    return BasisSpec(
        labels=tuple(range(max_degree + 1)),
        eval_fn=eval_fn,
        closed_form_inner=lambda p, q: 1.0 + 0.0j if p == q else 0.0j,
    )


def _as_function(f):
    if isinstance(f, HoloState):
        return f.evaluate
    if callable(f):
        return f
    raise ValidationError(f"expected HoloState or callable, got {type(f)}")


def inner_product(f, g, chart: FlatChart, rule: QuadratureRule) -> complex:
    """Normalized Gaussian scalar product, conjugate-linear in ``f``.

    Arguments may be states or plain callables of the scalar holomorphic
    coordinate (one-dimensional charts).
    """
    fe, ge = _as_function(f), _as_function(g)
    z, w = tangent_nodes(chart, rule)
    return complex(np.sum(w * np.conj(fe(z)) * ge(z)))


def inner_product_exponential(alpha: complex, beta: complex) -> complex:
    """Closed form ``<e^{alpha z}, e^{beta z}> = exp(conj(alpha) beta)``
    for the normalized measure with sigma = I, n = 1."""
    return complex(np.exp(np.conj(alpha) * beta))


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


def moment_matrix(basis: BasisSpec, z, w, g=None) -> np.ndarray:
    """Moments ``Phi^H diag(w g) Phi`` of the basis on the nodes ``z`` with
    weights ``w``: the Gram matrix for ``g = None``, the moments of
    multiplication by ``g`` otherwise."""
    Phi = basis.design_matrix(z)
    wg = w if g is None else w * g
    return np.conj(Phi).T @ (wg[:, None] * Phi)


def gram_matrix(
    basis: BasisSpec,
    chart: FlatChart | None = None,
    rule: QuadratureRule | None = None,
    *,
    force_quadrature: bool = False,
) -> GramData:
    """Gram matrix of the basis with Cholesky factor and processing order.

    Uses ``closed_form_inner`` when available unless ``force_quadrature``;
    otherwise integrates every pair on the tensor grid.
    """
    if basis.closed_form_inner is not None and not force_quadrature:
        G = np.array(
            [[complex(basis.closed_form_inner(p, q)) for q in basis.labels] for p in basis.labels]
        )
    else:
        if chart is None or rule is None:
            raise ValidationError("quadrature Gram needs a chart and a rule")
        # Entries like <phi_{-4}, phi_4> = e^{-16} sit 9 orders below the
        # summand magnitudes; extended-precision accumulation keeps the
        # cancellation error below the closed forms' 1e-10 target.
        G = moment_matrix(basis, *tangent_nodes(chart, rule, extended=True)).astype(complex)
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
    return GramData(matrix=G, factor=factor, ordering=alternating_ordering(basis.labels), labels=basis.labels)


def orthonormalize(gram: GramData, ordering: Sequence[int] | None = None) -> np.ndarray:
    """Gram-Schmidt coefficients ``C`` with ``beta_j = sum_k C[k, j] phi_k``.

    Processing follows ``gram.ordering`` (columns come out in that order),
    equivalent to classical Gram-Schmidt and realized as a permuted Cholesky
    solve.  Satisfies ``C^H @ gram.matrix @ C = I``.
    """
    order = tuple(ordering) if ordering is not None else gram.ordering
    perm = np.asarray(order, dtype=int)
    nb = len(gram.labels)
    if sorted(perm.tolist()) != list(range(nb)):
        raise ValidationError("ordering must be a permutation of basis positions")
    Gp = gram.matrix[np.ix_(perm, perm)]
    try:
        L = np.linalg.cholesky(Gp)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            "loss of positivity during elimination; lower the truncation"
        ) from exc
    Cperm = solve_triangular(np.conj(L).T, np.eye(nb), lower=False)
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
    gram: GramData
    mid: np.ndarray

    def eval(self, z, w) -> np.ndarray | complex:
        """Kernel at ``(z, w)``; broadcasts over arrays of equal shape."""
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        Pz = self.basis.design_matrix(z.ravel())
        Pw = self.basis.design_matrix(w.ravel())
        vals = np.einsum("ip,pq,iq->i", Pz, self.mid, np.conj(Pw))
        return complex(vals[0]) if z.ndim == 0 and w.ndim == 0 else vals.reshape(np.broadcast(z, w).shape)

    def eval_grid(self, z, w) -> np.ndarray:
        """Kernel on the outer grid of z-points by w-points."""
        Pz = self.basis.design_matrix(z)
        Pw = self.basis.design_matrix(w)
        return (Pz @ self.mid) @ np.conj(Pw).T

    def coherent(self, w: complex) -> np.ndarray:
        """Coefficients of the coherent-state section at ``w``:
        ``K(., conj(w))`` expanded over the basis."""
        Pw = self.basis.design_matrix(np.atleast_1d(w))[0]
        return self.mid @ np.conj(Pw)

    def coherent_state(self, w: complex) -> HoloState:
        return _coeffs_to_state(self.coherent(w), self.basis)


def reproducing_kernel(gram: GramData, basis: BasisSpec) -> KernelRep:
    """Gram-inverse form of the reproducing kernel on the truncated span."""
    if gram.labels != basis.labels:
        raise ValidationError("gram and basis label sets differ")
    return KernelRep(basis=basis, gram=gram, mid=gram.inverse())


def orthonormal_series_kernel(
    gram: GramData, basis: BasisSpec, ordering: Sequence[int] | None = None
) -> KernelRep:
    """Series form ``sum_j beta_j(z) conj(beta_j(w))`` of the same kernel."""
    C = orthonormalize(gram, ordering)
    return KernelRep(basis=basis, gram=gram, mid=C @ np.conj(C).T)


def operator_kernel(O: np.ndarray, gram: GramData, basis: BasisSpec) -> KernelRep:
    """Integral kernel of the operator with matrix ``O`` in coefficient space."""
    O = np.asarray(O, dtype=complex)
    nb = basis.size
    if O.shape != (nb, nb):
        raise ValidationError(f"operator matrix must be {nb}x{nb}, got {O.shape}")
    return KernelRep(basis=basis, gram=gram, mid=O @ gram.inverse())


def project_coeffs(f, kernel: KernelRep, chart: FlatChart, rule: QuadratureRule) -> np.ndarray:
    """Coefficients of the kernel-weighted projection of ``f``.

    For the reproducing kernel this is the orthogonal projection onto the
    truncated span; for an operator kernel it returns the operator applied
    to that projection.
    """
    fe = _as_function(f)
    z, w = tangent_nodes(chart, rule)
    Phi = kernel.basis.design_matrix(z)
    return kernel.mid @ (np.conj(Phi).T @ (w * fe(z)))


def _coeffs_to_state(coeffs: np.ndarray, basis: BasisSpec) -> HoloState:
    nb = basis.size
    if nb % 2 != 1:
        raise ValidationError("state layout requires a symmetric label range")
    N = (nb - 1) // 2
    if sorted(basis.labels) != list(range(-N, N + 1)):
        raise ValidationError("state layout requires labels -N..N")
    ordered = np.empty(nb, dtype=complex)
    for i, k in enumerate(basis.labels):
        ordered[k + N] = coeffs[i]
    return HoloState(N=N, coeffs=ordered)


def project(f, kernel: KernelRep, chart: FlatChart, rule: QuadratureRule) -> HoloState:
    """Orthogonal projection of ``f`` onto the truncated periodic span."""
    return _coeffs_to_state(project_coeffs(f, kernel, chart, rule), kernel.basis)


def state_norm(state: HoloState, gram: GramData) -> float:
    """Gram norm ``sqrt(c^H G c)`` of a state."""
    c = state.coeffs
    return float(np.sqrt(np.real(np.conj(c) @ gram.matrix @ c)))
