"""Path-integral time evolution and free-particle Green functions.

One short-time step multiplies the reproducing kernel by a bounded rational
approximation of the phase ``e^{-i Delta K_H / K}`` and projects back onto
the truncated span; finite-time evolution iterates the precomputed step
matrix.  The circle Green function comes in two independently convergent
forms (mode sum and winding sum) whose agreement under complexified time is
the end-to-end validation of the scheme.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, ValidationError
from .hilbert import HoloState, KernelRep
from .operators import OperatorMatrix
from .quadrature import tangent_nodes

__all__ = [
    "PropagatorConfig",
    "step_matrix",
    "evolve",
    "evolve_exact",
    "greens_winding",
    "greens_spectral",
]

DEFAULT_DIVISION_GUARD = 1e-12
DEFAULT_EPSILON = 0.05  # Green-function regularization T -> T * (1 - i epsilon)
_TILE = (128, 512)  # node-pair rows x columns per tile; 1 MB per complex buffer
MAX_STEP_ORDER = 256  # the node-pair sum grows as order^4, even after pruning


@dataclass(frozen=True)
class PropagatorConfig:
    """Evolution parameters: Hamiltonian matrix, total time, step count and
    kernel-ratio division guard."""

    H: OperatorMatrix
    t: float
    n_steps: int
    division_guard: float = DEFAULT_DIVISION_GUARD

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValidationError(f"evolution time must be finite, got {self.t}")
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.division_guard > 0:
            raise ValidationError("division_guard must be positive")


def step_matrix(
    kernel: KernelRep,
    H: OperatorMatrix,
    delta: float,
    order: int,
    division_guard: float = DEFAULT_DIVISION_GUARD,
) -> np.ndarray:
    """Coefficient-space matrix of one short-time step of length ``delta``,
    integrated on the order-``order`` tangent grid.

    Column ``k`` is the projection of the step applied to basis element ``k``.  At
    ``delta = 0`` it is ``(G^-1 G_q)^2``, ``G_q`` the grid's Gram matrix: the identity only
    where the rule resolves the basis (max ``|G^-1 G_q - I|`` is 4.5e-6 at N = 8 and 1.0
    at N = 12, order 64).  Node pairs are summed in ``_TILE`` blocks through buffers
    allocated once (memory O(order^2 * basis size)); a summed pair with
    ``|K| < division_guard * |K_H|`` raises QuadratureError, and so does a non-finite sum.
    Orders above ``MAX_STEP_ORDER`` raise QuadratureError before any work.

    Symmetry.  The Gaussian measure is even under the mirror J: z -> -z and the
    conjugation sigma: z -> -conj(z).  J applies if weights and basis are exactly even
    under it (labels k -> -k), and kernel and ``H`` to 1e-14; sigma applies if
    ``w[sigma] == w`` and ``Phi[sigma] == conj(Phi)`` exactly, and ``mid`` and
    ``H @ mid`` are real to 1e-14.  The applicable reflections generate a group of 1, 2
    or 4 elements.  Pair ``(gi, gj)`` then adds what pair ``(i, j)`` adds, with labels
    permuted by J or conjugated with ``delta -> -delta`` by sigma, so only one node row
    per orbit is summed, weighted |orbit| / |group|: 1, except for nodes fixed by a
    reflection (at odd orders ½ on the axes, ¼ at the origin).  An image pair needs no
    guard: its |K| and |K_H| are those of the pair it mirrors.  Other inputs sum all M
    node rows.

    Pruning.  Only pairs with ``s_i s_j > thr = 2^-53 / M^2 * max_k s_k^2`` are summed,
    ``s_i = w_i |Phi_i|^2`` maximised over the orbit of ``i`` and ``M = order^2``
    (pruned Gauss-Hermite quadrature, by pair).  A pair ``(i, j)`` adds at most
    ``s_i s_j ||mid||_2 |R_ij|`` to each entry of the pair sum before the Gram solve,
    ``R_ij`` the Pade factor below (unimodular for real arguments); so the at most
    ``M^2`` dropped pairs and their images add less than one unit round-off of the
    largest pair's bound.  Rows and columns run in decreasing ``s``, and each row tile
    sums the column prefix that its first row needs.  A non-finite ``s_i`` raises
    QuadratureError.  At N = 8 order 64 computes 2,075,216 pairs and order 128
    14,774,016.
    """
    if order > MAX_STEP_ORDER:
        raise QuadratureError(
            f"quadrature order {order} above the step-matrix limit {MAX_STEP_ORDER} "
            "(the node-pair sum grows as order^4)"
        )
    basis = kernel.basis
    if len(basis.labels) != 2 * H.N + 1:
        raise ValidationError("Hamiltonian truncation does not match the kernel basis")
    z, w = tangent_nodes(order)
    Phi = basis.design_matrix(z)
    s = w * np.einsum("ik,ik->i", Phi, np.conj(Phi)).real
    if not np.isfinite(s).all():
        raise QuadratureError(
            f"basis values or weights not finite on the order-{order} quadrature grid"
        )
    M, nb = Phi.shape
    Hmid = H.entries @ kernel.mid
    # J maps label k to -k, and node i to M-1-i; sigma maps node (i, j) to (order-1-i, j).
    # Phi is compared column by column, so no second M x nb array
    J = [basis.labels.index(-k) if -k in basis.labels else None for k in basis.labels]
    mirror = (
        None not in J
        and np.array_equal(w[::-1], w)
        and all(np.array_equal(Phi[::-1, a], Phi[:, j]) for a, j in enumerate(J))
        and all(abs(m[J][:, J] - m).max() <= 1e-14 * abs(m).max() for m in (kernel.mid, H.entries))
    )
    node = np.arange(M)
    sigma = (order - 1 - node // order) * order + node % order
    conj = (
        np.array_equal(w[sigma], w)
        and all(np.array_equal(Phi[sigma, a], np.conj(Phi[:, a])) for a in range(nb))
        and all(abs(m.imag).max() <= 1e-14 * abs(m).max() for m in (kernel.mid, Hmid))
    )
    # the images of every node under the group the applicable reflections generate
    group = [node] + [M - 1 - node] * mirror + [sigma, M - 1 - sigma][: 1 + mirror] * conj
    orbit = np.sort(group, axis=0)
    weight = (1 + np.count_nonzero(np.diff(orbit, axis=0), axis=0)) / len(group)
    s = s[orbit].max(axis=0)
    thr = 2.0**-53 / M**2 * s.max() ** 2
    cols = np.argsort(-s, kind="stable")
    cols = cols[s[cols] * s[cols[0]] > thr]  # the nodes in some summed pair, decreasing s
    rows = np.flatnonzero(orbit[0, cols] == cols)  # one per orbit, as positions in cols
    s, w, Phi, weight = s[cols], w[cols], Phi[cols], weight[cols]
    A, B = Phi[rows] @ kernel.mid, Phi[rows] @ Hmid
    wPhi = w[:, None] * Phi
    wPhiH = np.conj(wPhi[rows]).T * weight[rows]
    PhiT_conj = np.conj(Phi).T
    K, KH, E = (np.empty(_TILE, dtype=complex) for _ in range(3))
    absK, absKH, bad = np.empty(_TILE), np.empty(_TILE), np.empty(_TILE, dtype=bool)
    b, bimg = np.zeros((nb, nb), dtype=complex), np.zeros((nb, nb), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i0 in range(0, len(rows), _TILE[0]):
            n_cols = np.count_nonzero(s * s[rows[i0]] > thr)  # the first row's columns
            for j0 in range(0, n_cols, _TILE[1]):
                r, c = slice(i0, i0 + _TILE[0]), slice(j0, min(j0 + _TILE[1], n_cols))
                t = np.s_[: min(_TILE[0], len(rows) - i0), : c.stop - j0]
                k, kh, e, ak, akh = K[t], KH[t], E[t], absK[t], absKH[t]
                np.matmul(A[r], PhiT_conj[:, c], out=k)
                np.matmul(B[r], PhiT_conj[:, c], out=kh)
                np.multiply(np.abs(kh, out=akh), division_guard, out=akh)
                if np.less(np.abs(k, out=ak), akh, out=bad[t]).any():
                    raise QuadratureError(
                        f"kernel magnitude |K|={ak[bad[t]][0]:.3e} below guard "
                        f"{division_guard:.1e}*|K_H|={akh[bad[t]][0]:.3e} at a node pair"
                    )
                # K (K - a K_H) / (K + a K_H), a = i Delta / 2, is K times the Pade (1,1)
                # approximant of e^{-ix} at x = Delta K_H / K: unimodular for real x,
                # O(x^3) from the exponential, and bounded where x blows up near kernel
                # zeros (the continuum phase integral diverges; the exponential overflows).
                kh *= 0.5j * delta
                np.subtract(k, kh, out=e)
                kh += k
                e /= kh
                if conj:  # the sigma image: K over this factor is K times the one at -Delta
                    np.divide(k, e, out=kh)
                    bimg += wPhiH[:, r] @ (kh @ wPhi[c])
                e *= k
                b += wPhiH[:, r] @ (e @ wPhi[c])  # step of each basis element, projected
        b += np.conj(bimg)
        if mirror:
            b += b[np.ix_(J, J)]  # the rows not summed are mirror images of summed ones
    if not np.isfinite(b).all():
        raise QuadratureError(f"step matrix not finite at time step delta={delta:.3e}")
    return kernel.gram.solve(b)


def evolve(
    state: HoloState,
    config: PropagatorConfig,
    kernel: KernelRep,
    order: int,
    return_history: bool = False,
):
    """Iterate the short-time step ``n_steps`` times over total time ``t``,
    each step integrated on the order-``order`` tangent grid.

    The step matrix is built once and applied repeatedly; the error against
    the exact spectral evolution decreases like ``1/n_steps``.
    """
    if state.basis.size != 2 * config.H.N + 1:
        raise ValidationError("state and Hamiltonian sizes differ")
    delta = config.t / config.n_steps
    S = step_matrix(kernel, config.H, delta, order, config.division_guard)
    c = state.coeffs
    history = [HoloState(state.basis, c)]
    for step in range(config.n_steps):
        c = S @ c
        if not np.all(np.isfinite(c)):
            raise QuadratureError(f"evolution diverged at step {step + 1}")
        if return_history:
            history.append(HoloState(state.basis, c))
    final = HoloState(state.basis, c)
    return (final, history) if return_history else final


def evolve_exact(state: HoloState, H: OperatorMatrix, t: float) -> HoloState:
    """Spectral evolution ``c_k -> e^{-i H_kk t} c_k`` for a diagonal
    Hamiltonian matrix.

    Each mode coefficient keeps its modulus exactly, so the evolution is
    unitary in the mode-coefficient norm (the pullback of the physical
    circle norm).
    """
    if not H.is_diagonal():
        raise ValidationError("Hamiltonian is not diagonal; use evolve instead")
    phases = np.exp(-1j * np.diag(H.entries) * t)
    return HoloState(state.basis, phases * state.coeffs)


def _check_time_converges(T: complex, what: str) -> complex:
    T = complex(T)
    if not cmath.isfinite(T):
        raise ValidationError(f"time parameter must be finite, got T={T}")
    if T == 0:
        raise ValidationError("time parameter must be nonzero")
    if T.imag >= 0:
        raise ValidationError(
            f"{what} diverges for Im(T) >= 0 (got T={T}); regularize with "
            "T -> T*(1 - i*epsilon), epsilon > 0"
        )
    return T


def greens_winding(theta: float, theta0: float, T: complex, n_max: int) -> complex:
    """Free-particle Green function on the circle as a winding sum:
    ``sum_{|n|<=n_max} (2 pi i T)^{-1/2} exp(i (theta - theta0 + 2 pi n)^2 / (2T))``.

    Uses the principal square root.  Requires ``Im(T) < 0`` so the terms
    decay; evaluate at complexified time ``T*(1 - i*epsilon)`` for real T.
    """
    T = _check_time_converges(T, "winding sum")
    if n_max < 0:
        raise ValidationError(f"n_max must be nonnegative, got {n_max}")
    d = theta - theta0
    n = np.arange(-n_max, n_max + 1)
    pref = 1.0 / cmath.sqrt(2 * math.pi * 1j * T)
    return complex(pref * np.sum(np.exp(1j * (d + 2 * math.pi * n) ** 2 / (2 * T))))


def greens_spectral(
    theta: float, theta0: float, T: complex, M: int, tail_tol: float = 1e-8
) -> complex:
    """Free-particle Green function on the circle as a mode sum:
    ``(1/2pi) sum_{|k|<=M} e^{ik(theta-theta0)} e^{-i k^2 T / 2}``.

    Equal to the winding sum by Poisson summation whenever both converge.
    """
    T = _check_time_converges(T, "mode sum")
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    tail = 2.0 * math.exp((M + 1) ** 2 * T.imag / 2.0) / (2 * math.pi)
    if tail > tail_tol:
        raise ValidationError(
            f"mode-sum tail {tail:.3e} above tolerance {tail_tol:.1e}; "
            "increase M or the regularization epsilon"
        )
    k = np.arange(-M, M + 1)
    return complex(
        np.sum(np.exp(1j * k * (theta - theta0) - 1j * k**2 * T / 2.0)) / (2 * math.pi)
    )
