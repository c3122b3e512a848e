"""Acceptance suite: the numbered end-to-end checks behind `holoflat validate`.

Each criterion function is self-contained, returns a pass/fail record with a
one-line detail string, and is shared verbatim by the CLI and the test
suite.  Tolerances and parameter choices are fixed here so every caller
runs the identical check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cylinder import (
    HeatKernelParams,
    calibrate_heat_kernel,
    cylinder_basis,
    gram_closed,
    heat_kernel_formula,
    heat_rho,
    heat_rho_winding,
)
from .hilbert import (
    HoloState,
    bargmann_monomial_basis,
    gram_matrix,
    inner_product,
    orthonormal_series_kernel,
    orthonormalize,
    project,
    reproducing_kernel,
    state_norm,
)
from .operators import adjointness_residual, hamiltonian_free, ladder_lower, ladder_raise
from .propagator import evolve, evolve_exact, greens_spectral, greens_winding
from .quadrature import tangent_nodes

__all__ = ["CriterionResult", "run_criteria"]

_N = 8
_SEED = 20240817


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(name=name, passed=bool(passed), detail=detail)


def _setup():
    basis = cylinder_basis(_N)
    return basis, gram_matrix(basis)


def _sample_points(count: int, rng: np.random.Generator) -> np.ndarray:
    re = rng.uniform(-math.pi, math.pi, count)
    im = rng.uniform(-1.0, 1.0, count)
    return re + 1j * im


def criterion_gram_closed_forms() -> CriterionResult:
    """Quadrature Gram entries match e^{pq} and e^{-(p-q)^2/2} for |p|,|q| <= 4."""
    worst = 0.0
    for normalized in (False, True):
        basis = cylinder_basis(4, normalized=normalized)
        g = gram_matrix(basis, 64)
        for i, p in enumerate(basis.labels):
            for j, q in enumerate(basis.labels):
                exact = gram_closed(p, q, normalized)
                worst = max(worst, abs(g.matrix[i, j] - exact) / abs(exact))
    return _result(
        "gram-closed-forms", worst <= 1e-10, f"max relative error {worst:.3e} (tol 1e-10)"
    )


def criterion_orthonormalization() -> CriterionResult:
    """Ordered Gram-Schmidt at N=8 gives an orthonormal system, checked both
    through the Gram algebra and through independent quadrature."""
    basis, gram = _setup()
    C = orthonormalize(gram)
    eye = np.eye(2 * _N + 1)
    alg = np.abs(np.conj(C).T @ gram.matrix @ C - eye).max()
    gq = gram_matrix(basis, 128)
    quad = np.abs(np.conj(C).T @ gq.matrix @ C - eye).max()
    worst = max(alg, quad)
    return _result(
        "orthonormalization",
        worst <= 1e-8,
        f"max |<b_i,b_j> - delta| {alg:.3e} (algebra), {quad:.3e} (quadrature), tol 1e-8",
    )


def criterion_kernel_reproduction() -> CriterionResult:
    """Projection is the identity on basis states, pointwise at sample points."""
    basis, gram = _setup()
    kernel = reproducing_kernel(gram)
    rng = np.random.default_rng(_SEED)
    pts = _sample_points(20, rng)
    worst = 0.0
    for k in range(-2, 3):
        coeffs = np.zeros(2 * _N + 1, dtype=complex)
        coeffs[k + _N] = 1.0
        f = HoloState(basis, coeffs)
        Pf = project(f, kernel, 128)
        worst = max(worst, float(np.abs(Pf.evaluate(pts) - f.evaluate(pts)).max()))
    return _result(
        "kernel-reproduction", worst <= 1e-6, f"max |Pf(z) - f(z)| {worst:.3e} (tol 1e-6)"
    )


def criterion_kernel_construction_equivalence() -> CriterionResult:
    """Gram-inverse and orthonormal-series kernels agree, independent of the
    orthonormalization order."""
    _, gram = _setup()
    rng = np.random.default_rng(_SEED + 1)
    z = _sample_points(12, rng)
    w = _sample_points(12, rng)
    k_inv = reproducing_kernel(gram)
    k_series = orthonormal_series_kernel(gram)
    shuffled = list(range(2 * _N + 1))
    rng.shuffle(shuffled)
    k_perm = orthonormal_series_kernel(gram, ordering=shuffled)
    base = k_inv.eval_grid(z, w)
    d1 = np.abs(k_series.eval_grid(z, w) - base).max()
    d2 = np.abs(k_perm.eval_grid(z, w) - base).max()
    worst = max(float(d1), float(d2))
    return _result(
        "kernel-construction-equivalence",
        worst <= 1e-8,
        f"series vs inverse {d1:.3e}, permuted order {d2:.3e} (tol 1e-8)",
    )


def criterion_kernel_properties() -> CriterionResult:
    """Hermitian symmetry, composition rule, and the pointwise evaluation
    bound with equality at coherent states."""
    basis, gram = _setup()
    kernel = reproducing_kernel(gram)
    rng = np.random.default_rng(_SEED + 2)
    z = _sample_points(8, rng)
    w = _sample_points(8, rng)
    herm = float(np.abs(kernel.eval_grid(w, z) - np.conj(kernel.eval_grid(z, w)).T).max())

    comp = 0.0
    nodes, wt = tangent_nodes(128)
    # one call for the columns K(x, w[a]); the rows stay one call per point,
    # since batching them moves the figure (2.161e-14 -> 2.336e-14)
    K_nodes_u = kernel.eval_grid(nodes, w[:5])
    for a, (zi, ui) in enumerate(zip(z[:5], w[:5])):
        total = np.sum(wt * kernel.eval_grid([zi], nodes)[0] * K_nodes_u[:, a])
        comp = max(comp, abs(total - kernel.eval(zi, ui)))

    bound_violation = 0.0
    for _ in range(100):
        c = rng.normal(size=2 * _N + 1) + 1j * rng.normal(size=2 * _N + 1)
        f = HoloState(basis, c)
        zpt = complex(_sample_points(1, rng)[0])
        lhs = abs(f.evaluate(zpt)) ** 2
        rhs = float(np.real(kernel.eval(zpt, zpt))) * state_norm(f, gram) ** 2
        bound_violation = max(bound_violation, (lhs - rhs) / rhs)

    coh_dev = 0.0
    for zpt in z[:5]:
        zeta = kernel.coherent_state(complex(zpt))
        lhs = abs(zeta.evaluate(complex(zpt))) ** 2
        rhs = float(np.real(kernel.eval(zpt, zpt))) * state_norm(zeta, gram) ** 2
        coh_dev = max(coh_dev, abs(lhs - rhs) / rhs)

    passed = herm <= 1e-10 and comp <= 1e-6 and bound_violation <= 1e-12 and coh_dev <= 1e-8
    return _result(
        "kernel-properties",
        passed,
        f"hermitian {herm:.3e} (tol 1e-10), composition {comp:.3e} (tol 1e-6), "
        f"bound excess {bound_violation:.3e}, coherent equality {coh_dev:.3e} (tol 1e-8)",
    )


def criterion_heat_kernel_formula() -> CriterionResult:
    """Calibrated heat-kernel integral formula matches the Gram-inverse
    kernel on a real grid (limited by the N=8 truncation)."""
    _, gram = _setup()
    kernel = reproducing_kernel(gram)
    params = HeatKernelParams(t=1.0, M=12, x_quad=256)
    c = calibrate_heat_kernel(params, kernel)
    grid = np.linspace(-math.pi, math.pi, 5, endpoint=False)
    ref = kernel.eval(*np.meshgrid(grid, grid, indexing="ij"))
    worst = np.max(np.abs(c * heat_kernel_formula(params, grid, grid) - ref) / np.abs(ref))
    return _result(
        "heat-kernel-formula",
        worst <= 1e-4,
        f"max relative deviation {worst:.3e} (tol 1e-4) on 5x5 grid, N=8, M=12, 256 nodes",
    )


def criterion_theta_identity() -> CriterionResult:
    """Mode sum and Gaussian winding sum of the periodic heat kernel agree."""
    xs = np.linspace(-math.pi, math.pi, 16, endpoint=False)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        params = HeatKernelParams(t=t, M=24)
        mode = np.real(heat_rho(params, 0.0, xs))
        winding = heat_rho_winding(t, xs)
        worst = max(worst, float(np.abs(mode - winding).max()))
    return _result(
        "theta-identity", worst <= 1e-12, f"max abs difference {worst:.3e} (tol 1e-12)"
    )


def criterion_ladder_adjointness() -> CriterionResult:
    """Raising matrix is the adjoint of the lowering matrix on the interior
    block; the quadrature pairing agrees on random states."""
    basis = cylinder_basis(_N)
    block = adjointness_residual(_N)

    raise_op = ladder_raise(_N)
    lower_op = ladder_lower(_N)
    rng = np.random.default_rng(_SEED + 3)
    # Interior-supported states: edge modes of the truncation are corrupted
    # by multiplication, so the pairing identity holds away from them.
    pair_dev = 0.0
    for _ in range(10):
        cp = np.zeros(2 * _N + 1, dtype=complex)
        cc = np.zeros(2 * _N + 1, dtype=complex)
        interior = slice(2, 2 * _N - 1)
        cp[interior] = rng.normal(size=2 * _N - 3) + 1j * rng.normal(size=2 * _N - 3)
        cc[interior] = rng.normal(size=2 * _N - 3) + 1j * rng.normal(size=2 * _N - 3)
        psi = HoloState(basis, cp)
        chi = HoloState(basis, cc)
        lhs = inner_product(HoloState(basis, raise_op @ psi.coeffs), chi, 128)
        rhs = inner_product(psi, HoloState(basis, lower_op @ chi.coeffs), 128)
        scale = max(abs(lhs), abs(rhs), 1.0)
        pair_dev = max(pair_dev, abs(lhs - rhs) / scale)

    passed = block <= 1e-8 and pair_dev <= 1e-8
    return _result(
        "ladder-adjointness",
        passed,
        f"central-block residual {block:.3e}, pairing deviation {pair_dev:.3e} (tol 1e-8)",
    )


def criterion_greens_equivalence() -> CriterionResult:
    """Winding and mode sums of the circle Green function agree under
    complexified time, with a Cauchy trend as the regularization shrinks."""
    thetas = np.linspace(-math.pi, math.pi, 8, endpoint=False)
    taus = (0.5, 1.0, 2.0)
    epsilons = (0.2, 0.1, 0.05)
    diffs = {}
    values = {}
    for eps in epsilons:
        worst = 0.0
        vals = []
        for tau in taus:
            T = tau * (1 - 1j * eps)
            gw = greens_winding(thetas, 0.0, T, n_max=40)
            gs = greens_spectral(thetas, 0.0, T, M=40)
            worst = max(worst, float(np.abs(gw - gs).max()))
            vals.append(gs)
        diffs[eps] = worst
        values[eps] = np.concatenate(vals)
    agree = max(diffs.values())
    # Successive-regularization gaps: the sequence of values should be
    # settling as epsilon decreases (the gaps must not grow).
    gap_01 = float(np.abs(values[0.2] - values[0.1]).max())
    gap_12 = float(np.abs(values[0.1] - values[0.05]).max())
    passed = agree <= 1e-8 and gap_12 <= gap_01
    return _result(
        "greens-equivalence",
        passed,
        f"max winding/spectral difference {agree:.3e} (tol 1e-8); "
        f"settling gaps {gap_01:.3e} >= {gap_12:.3e}",
    )


def criterion_trotter_convergence() -> CriterionResult:
    """Iterated short-time steps converge at first order to the spectral
    evolution; the spectral evolution is exactly unitary."""
    basis, gram = _setup()
    H = hamiltonian_free(_N)
    coeffs = np.zeros(2 * _N + 1, dtype=complex)
    coeffs[_N] = 1.0
    coeffs[_N + 1] = 1.0
    phi = HoloState(basis, coeffs)
    phi = HoloState(basis, phi.coeffs / state_norm(phi, gram))
    t = 0.5
    exact = evolve_exact(phi, H, t)
    errs = {}
    for n in (8, 16, 32, 64):
        approx = evolve(phi, H, t, n, gram, 64)
        errs[n] = state_norm(HoloState(basis, approx.coeffs - exact.coeffs), gram)
    ratios = [errs[n] / errs[2 * n] for n in (8, 16, 32)]
    ratio_ok = all(1.7 <= r <= 2.3 for r in ratios)

    # Unitarity of the spectral evolution is checked in the mode-coefficient
    # norm (the pullback of the physical circle norm, where the modes are
    # orthonormal); the Gaussian-measure Gram norm cannot be preserved by
    # any mode-diagonal phase because the modes are non-orthogonal there.
    rng = np.random.default_rng(_SEED + 4)
    unit_dev = 0.0
    for _ in range(5):
        c = rng.normal(size=2 * _N + 1) + 1j * rng.normal(size=2 * _N + 1)
        st = HoloState(basis, c)
        ev = evolve_exact(st, H, 1.7)
        n0 = float(np.linalg.norm(st.coeffs))
        unit_dev = max(unit_dev, abs(float(np.linalg.norm(ev.coeffs)) - n0) / n0)
    passed = ratio_ok and unit_dev <= 1e-12
    ratio_txt = ", ".join(f"{r:.3f}" for r in ratios)
    return _result(
        "trotter-convergence",
        passed,
        f"err(n)/err(2n) = [{ratio_txt}] (window [1.7, 2.3]); "
        f"unitarity drift {unit_dev:.3e} (mode-coefficient norm, tol 1e-12)",
    )


def criterion_bargmann_sanity() -> CriterionResult:
    """Monomial-basis kernel reproduces the exponential kernel of the full
    plane model at 12-term truncation."""
    kernel = reproducing_kernel(gram_matrix(bargmann_monomial_basis(12)))
    rng = np.random.default_rng(_SEED + 5)
    r = rng.uniform(0, 1.5, 30)
    ang = rng.uniform(0, 2 * math.pi, 30)
    pts = np.concatenate([r * np.exp(1j * ang), [1.5, -1.5, 1.5j, 1.0 + 1.0j]])
    m = np.arange(13)
    fact = np.array([math.factorial(int(i)) for i in m], dtype=float)
    Z, W = np.meshgrid(pts, pts, indexing="ij")
    u = Z * np.conj(W)
    val = kernel.eval(Z, W)
    worst_series = np.abs(val - np.sum(u[..., None] ** m / fact, axis=-1)).max()
    worst_exp = np.abs(val - np.exp(u)).max()
    passed = worst_series <= 1e-8 and worst_exp <= 1e-4
    return _result(
        "bargmann-sanity",
        passed,
        f"vs 12-term series {worst_series:.3e} (tol 1e-8); vs exponential {worst_exp:.3e} (tol 1e-4)",
    )


CRITERIA = (
    criterion_gram_closed_forms,
    criterion_orthonormalization,
    criterion_kernel_reproduction,
    criterion_kernel_construction_equivalence,
    criterion_kernel_properties,
    criterion_heat_kernel_formula,
    criterion_theta_identity,
    criterion_ladder_adjointness,
    criterion_greens_equivalence,
    criterion_trotter_convergence,
    criterion_bargmann_sanity,
)


def run_criteria(names: list[str] | None = None) -> list[CriterionResult]:
    """Run the acceptance checks, optionally filtered by name substring."""
    selected = [
        fn
        for fn in CRITERIA
        if not names or any(n.replace("-", "_") in fn.__name__ for n in names)
    ]
    return [fn() for fn in selected]
