import cmath
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflat import (
    BasisSpec,
    GramData,
    HeatKernelParams,
    HoloState,
    QuadratureError,
    ValidationError,
    cylinder_basis,
    evolve,
    evolve_exact,
    gram_matrix,
    greens_spectral,
    greens_winding,
    hamiltonian_free,
    heat_rho,
    ladder_lower,
    state_norm,
    step_matrix,
)
from holoflat import propagator
from holoflat.quadrature import tangent_nodes

N = 8
ORDER = 64


@pytest.fixture(scope="module")
def gram():
    return gram_matrix(cylinder_basis(N))


def basis_state(k):
    c = np.zeros(2 * N + 1, dtype=complex)
    c[k + N] = 1.0
    return HoloState(cylinder_basis(N), c)


DELTAS = (0.1, 0.05, 0.025, 0.0125)


@pytest.fixture(scope="module")
def steps(gram):
    """Step matrices S(delta) of the free Hamiltonian at N = 8, order 64."""
    return {d: step_matrix(gram, hamiltonian_free(N), d, ORDER) for d in DELTAS}


def column_norms(M, gram):
    """Gram norm of every column of ``M``."""
    return np.sqrt(np.real(np.einsum("ik,ij,jk->k", np.conj(M), gram.matrix, M)))


@functools.lru_cache(maxsize=None)
def zero_step(n, order):
    basis = cylinder_basis(n)
    gram = gram_matrix(basis)
    S0 = step_matrix(gram, hamiltonian_free(n), 0.0, order)
    return S0, gram, basis


class TestInfinitesimalStep:
    """The short-time step S(delta), checked on every basis column at once."""

    @pytest.mark.parametrize("n, order", [(4, 64), (8, 64), (12, 64)])
    def test_zero_delta_is_quadrature_gram_squared(self, n, order):
        # S(0) = (G^-1 G_q)^2, G_q the grid's own Gram matrix: exact even where the
        # rule does not resolve the basis (N = 12 at order 64)
        S0, gram, basis = zero_step(n, order)
        z, w = tangent_nodes(order)
        Phi = basis.design_matrix(z)
        A = gram.solve(np.conj(Phi).T @ (w[:, None] * Phi))
        assert np.abs(S0 - A @ A).max() < 1e-12

    def test_zero_delta_is_identity(self):
        # the order-64 rule resolves every mode of N = 4, so G_q = G and S(0) = I
        S0 = zero_step(4, 64)[0]
        assert np.abs(S0 - np.eye(9)).max() < 1e-12

    def test_first_order_consistency(self, gram, steps):
        # (S(delta) - I)/delta -> -iH column by column: the residual halves with delta
        # once delta * H_kk <= 1.  Before that, higher orders in delta k^2 / 2 dominate
        # (mode 8 gives ratios 1.36 and 1.68 from delta = 0.1, identically at order 128).
        H = hamiltonian_free(N)
        res = {d: column_norms((steps[d] - np.eye(2 * N + 1)) / d + 1j * H, gram) for d in DELTAS}
        h = np.real(np.diag(H))
        covered = np.zeros(2 * N + 1, dtype=bool)
        for d1, d2 in zip(DELTAS, DELTAS[1:]):
            asymptotic = d1 * h <= 1
            ratio = res[d1] / res[d2]
            assert np.all((1.7 < ratio) & (ratio < 2.6) | ~asymptotic), (d1, ratio)
            covered |= asymptotic
        assert covered.all()

    def test_norm_drift_second_order(self, gram, steps):
        norms = column_norms(np.eye(2 * N + 1), gram)
        drift = {d: np.abs(column_norms(steps[d], gram) - norms) for d in DELTAS}
        for d in DELTAS:
            assert drift[d].max() <= 2 * d**2, d  # O(delta^2) on every column
        e1 = N + 1
        for d1, d2 in zip(DELTAS[:2], DELTAS[1:3]):
            assert drift[d1][e1] / drift[d2][e1] > 3.0  # and the e_1 drift scales as delta^2

    def test_matches_step_matrix_column(self, gram, steps):
        # one evolution step from e_1 is the e_1 column of S(delta)
        out = evolve(basis_state(1), hamiltonian_free(N), 0.05, 1, gram, ORDER)
        assert np.abs(steps[0.05][:, N + 1] - out.coeffs).max() < 1e-12


def dense_step(gram, H, delta, order):
    # every node pair of the full grid: no tiles, no mirror fold and no pruning
    # (256 node rows at a time: about 50 MB at order 48 instead of 400)
    z, w = tangent_nodes(order)
    Phi = gram.basis.design_matrix(z)
    mid = gram.inverse()
    b = 0
    for i in range(0, len(z), 256):
        r = slice(i, i + 256)
        K = Phi[r] @ mid @ np.conj(Phi).T
        KH = Phi[r] @ H @ mid @ np.conj(Phi).T
        E = K * (1 - 0.5j * delta * KH / K) / (1 + 0.5j * delta * KH / K)
        b = b + np.conj(Phi[r]).T @ (w[r, None] * E * w[None, :]) @ Phi
    return gram.solve(b)


CASES = ("free", "skew-H", "skew-gram", "mirror-only", "conj-only")


def step_case(case, n=N):
    """Gram data and Hamiltonian at truncation ``n``: "free" is even under z -> -z and
    real, so the mirror and the conjugation folds both apply; "skew-H" adds d/dz to H and
    "skew-gram" adds +0.1i at labels (0, 1) of G and -0.1i at (1, 0), so neither fold
    applies and the full pair sum must run.  "mirror-only" adds an imaginary diagonal
    even in k (only the mirror applies), "conj-only" a real diagonal odd in k (only the
    conjugation applies)."""
    gram = gram_matrix(cylinder_basis(n))
    H = hamiltonian_free(n)
    k = np.arange(-n, n + 1)
    if case == "skew-H":
        H = H + ladder_lower(n)
    if case == "skew-gram":
        G = gram.matrix.copy()
        G[n, n + 1] += 0.1j
        G[n + 1, n] -= 0.1j
        gram = GramData(gram.basis, G, np.linalg.cholesky(G))
    if case == "mirror-only":
        H = H + 0.1j * np.diag(k**2)
    if case == "conj-only":
        H = H + 0.1 * np.diag(k)
    return gram, H


# the reflections each case admits: J is z -> -z, sigma is z -> -conj(z)
FOLDS = {"free": "J sigma", "skew-H": "", "skew-gram": "", "mirror-only": "J", "conj-only": "sigma"}


def no_grid(*args, **kwargs):
    raise RuntimeError("grid built")


class TestStepMatrix:
    @pytest.mark.parametrize("tile", [(7, 50), (50, 7), (144, 144), (256, 1024), (40, 30)])
    def test_matches_dense_reference(self, tile, monkeypatch):
        # order 12 gives M = 144 nodes: 7 x 50 tiles leave partial row and column tiles;
        # order 11 (M = 121) has an origin node; 40-row tiles straddle the fold row
        # ceil(M/2) at both orders (72 and 61)
        monkeypatch.setattr(propagator, "_TILE", tile)
        for order, case in itertools.product((12, 11), CASES):
            gram, H = step_case(case)
            ref = dense_step(gram, H, 0.05, order)
            S = step_matrix(gram, H, 0.05, order)
            assert np.abs(S - ref).max() <= 1e-13 * np.abs(ref).max(), (order, case)

    @pytest.mark.parametrize("order", [32, 48])
    @pytest.mark.parametrize("case", CASES)
    def test_pruned_matches_full_grid(self, case, order):
        # 988 of 1,024 and 1,920 of 2,304 nodes are summed; dense_step sums them all
        gram, H = step_case(case)
        ref = dense_step(gram, H, 0.05, order)
        S = step_matrix(gram, H, 0.05, order)
        assert np.abs(S - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "case, order, pairs",
        [
            ("free", 12, 36 * 144),  # a quarter of the rows: 144 nodes in 36 orbits
            ("free", 11, 36 * 121),  # 121 nodes in 36 orbits
            ("skew-H", 12, 144 * 144),
            ("skew-gram", 12, 144 * 144),
            ("free", 24, 80960),  # of 144 * 576: pairs of two small nodes are dropped
            ("free", 23, 74704),
            ("free", 64, 2075216),  # 3,088 of 4,096 nodes in a summed pair, still folded
            ("skew-H", 64, 7918400),
        ],
    )
    def test_guarded_pairs_halved_when_even(self, case, order, pairs, monkeypatch):
        # the guard compares |K| with guard * |K_H| on every node pair that is summed
        guarded, less = [], np.less

        def spy(a, b, out):
            guarded.append(out.size)
            return less(a, b, out=out)

        monkeypatch.setattr(np, "less", spy)
        gram, H = step_case(case)
        step_matrix(gram, H, 0.05, order)
        assert sum(guarded) == pairs

    @pytest.mark.parametrize("order", [32, 33])
    @pytest.mark.parametrize("case", CASES)
    def test_guarded_pairs_brute_force(self, case, order, monkeypatch):
        # one node row per tile: the guard then sees exactly the pairs (orbit
        # representative a, node c) with sbar_a sbar_c > thr, counted here from w and Phi
        guarded, less = [], np.less

        def spy(a, b, out):
            guarded.append(out.size)
            return less(a, b, out=out)

        gram, H = step_case(case)
        z, w = tangent_nodes(order)
        Phi = gram.basis.design_matrix(z)
        s = w * np.sum(np.abs(Phi) ** 2, axis=1)
        M = len(s)
        x, y = np.divmod(np.arange(M), order)
        images = [np.arange(M)]
        if "J" in FOLDS[case]:
            images.append((order - 1 - x) * order + order - 1 - y)
        if "sigma" in FOLDS[case]:
            images += [(order - 1 - x) * order + y] + [x * order + order - 1 - y] * ("J" in FOLDS[case])
        images = np.array(images)
        sbar = s[images].max(axis=0)
        representative = images.min(axis=0) == np.arange(M)
        thr = 2.0**-53 / M**2 * s.max() ** 2
        pairs = np.count_nonzero(np.outer(sbar[representative], sbar) > thr)

        monkeypatch.setattr(propagator, "_TILE", (1, M))
        monkeypatch.setattr(np, "less", spy)
        step_matrix(gram, H, 0.05, order)
        assert sum(guarded) == pairs

    def test_nonfinite_scale_raises(self):
        # e^{400 k z} overflows at the outer nodes; an infinite or NaN largest scale
        # would drop every node and return S = 0
        gram = gram_matrix(cylinder_basis(1))

        def eval_fn(k, z):
            with np.errstate(over="ignore"):
                return np.exp(400.0 * k * z)

        overflowing = GramData(BasisSpec(gram.basis.labels, eval_fn), gram.matrix, gram.factor)
        with pytest.raises(QuadratureError, match="not finite"):
            step_matrix(overflowing, hamiltonian_free(1), 0.05, 12)

    def test_division_guard_raises(self, gram, monkeypatch):
        H = hamiltonian_free(N)
        monkeypatch.setattr(propagator, "DIVISION_GUARD", 1e3)
        with pytest.raises(QuadratureError, match="below guard"):
            step_matrix(gram, H, 0.05, ORDER)
        with pytest.raises(QuadratureError, match="below guard"):
            evolve(basis_state(0), H, 0.5, 4, gram, ORDER)

    def test_order_limit(self, gram, monkeypatch):
        H = hamiltonian_free(N)
        monkeypatch.setattr(propagator, "tangent_nodes", no_grid)
        assert propagator.MAX_STEP_ORDER == 256
        with pytest.raises(QuadratureError, match="above the step-matrix limit 256"):
            step_matrix(gram, H, 0.05, 257)
        with pytest.raises(RuntimeError, match="grid built"):  # 256 itself is allowed
            step_matrix(gram, H, 0.05, 256)

    @pytest.mark.parametrize(
        "H, message",
        [
            (np.ones((2 * N + 1, 5)), r"shape \(17, 5\) is not \(17, 17\)"),
            (np.eye(2 * N - 1), r"shape \(15, 15\) is not \(17, 17\)"),
            (np.diag([np.nan] + [0.0] * 2 * N), "entries must be finite"),
        ],
        ids=["not-square", "wrong-size", "nan-entry"],
    )
    def test_rejects_bad_hamiltonian(self, gram, H, message, monkeypatch):
        # refused before the grid, not after the O(order^4) pair sum
        monkeypatch.setattr(propagator, "tangent_nodes", no_grid)
        with pytest.raises(ValidationError, match=message):
            step_matrix(gram, H, 0.05, ORDER)

    def test_memory_bounded(self, gram):
        # order 64: M = 4096 nodes, so the full M x M complex pair matrix would be 268 MB
        tracemalloc.start()
        try:
            step_matrix(gram, hamiltonian_free(N), 0.05, ORDER)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(delta=st.floats(0.0, 0.2), n=st.integers(1, 8), case=st.sampled_from(CASES))
def test_pruned_step_matches_full_grid(delta, n, case):
    # order 32 drops nodes at every n in 1..8 but 7
    gram, H = step_case(case, n)
    ref = dense_step(gram, H, delta, 32)
    S = step_matrix(gram, H, delta, 32)
    assert np.abs(S - ref).max() <= 1e-13 * np.abs(ref).max()


class TestEvolve:
    def test_zero_time_identity(self, gram):
        phi = basis_state(2)
        out = evolve(phi, hamiltonian_free(N), 0.0, 4, gram, ORDER)
        assert np.abs(out.coeffs - phi.coeffs).max() < 1e-11

    def test_zero_hamiltonian_identity(self, gram):
        H = np.zeros((2 * N + 1, 2 * N + 1), dtype=complex)
        phi = basis_state(1)
        out = evolve(phi, H, 2.0, 4, gram, ORDER)
        assert np.abs(out.coeffs - phi.coeffs).max() < 1e-11

    def test_first_order_convergence(self, gram):
        H = hamiltonian_free(N)
        c = basis_state(0).coeffs + basis_state(1).coeffs
        phi = HoloState(cylinder_basis(N), c)
        phi = HoloState(phi.basis, phi.coeffs / state_norm(phi, gram))
        exact = evolve_exact(phi, H, 0.5)
        errs = []
        for n in (16, 32):
            out = evolve(phi, H, 0.5, n, gram, ORDER)
            errs.append(state_norm(HoloState(phi.basis, out.coeffs - exact.coeffs), gram))
        assert 1.7 < errs[0] / errs[1] < 2.3

    def test_history(self, gram):
        H = hamiltonian_free(N)
        _, history = evolve(basis_state(0), H, 0.2, 3, gram, ORDER, return_history=True)
        assert len(history) == 4

    def test_config_validation(self, gram):
        with pytest.raises(ValidationError, match="n_steps must be >= 1, got 0"):
            evolve(basis_state(0), hamiltonian_free(N), 1.0, 0, gram, ORDER)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_time(self, t, gram):
        # checked before n_steps, so a non-finite time with no steps names the time
        with pytest.raises(ValidationError, match="evolution time must be finite"):
            evolve(basis_state(0), hamiltonian_free(N), t, 0, gram, ORDER)

    def test_rejects_state_size_mismatch(self, gram):
        state = HoloState(cylinder_basis(N - 1), np.ones(2 * N - 1))
        with pytest.raises(ValidationError, match="state and Hamiltonian sizes differ"):
            evolve(state, hamiltonian_free(N), 0.5, 4, gram, ORDER)

    def test_rejects_state_on_other_basis(self):
        # same size, other basis: stepping it with the normalized basis's matrix is meaningless
        state = HoloState(cylinder_basis(3, normalized=False), np.eye(7)[3])
        gram = gram_matrix(cylinder_basis(3))
        with pytest.raises(ValidationError, match="state basis differs"):
            evolve(state, hamiltonian_free(3), 0.1, 2, gram, 32)

    def test_accepts_state_on_equal_basis(self, gram):
        # a state built on its own cylinder_basis(N) call, as basis_state does
        state = basis_state(1)
        assert state.basis is not gram.basis
        out = evolve(state, hamiltonian_free(N), 0.1, 2, gram, ORDER)
        assert out.basis == gram.basis


class TestEvolveExact:
    def test_zero_time(self):
        phi = basis_state(3)
        out = evolve_exact(phi, hamiltonian_free(N), 0.0)
        assert np.array_equal(out.coeffs, phi.coeffs)

    def test_mode_one_phase(self):
        phi = basis_state(1)
        out = evolve_exact(phi, hamiltonian_free(N), math.pi)
        assert out.coeffs[N + 1] == pytest.approx(-1j)

    def test_moduli_preserved(self):
        rng = np.random.default_rng(13)
        phi = HoloState(cylinder_basis(N), rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1))
        out = evolve_exact(phi, hamiltonian_free(N), 1.3)
        assert np.abs(np.abs(out.coeffs) - np.abs(phi.coeffs)).max() < 1e-14

    def test_rejects_non_diagonal(self):
        from holoflat import ladder_raise

        with pytest.raises(ValidationError, match="use evolve"):
            evolve_exact(basis_state(0), ladder_raise(N), 1.0)


class TestGreensWinding:
    def test_single_term(self):
        T = 1 - 0.1j
        val = greens_winding(0.3, 0.3, T, n_max=0)
        assert val == pytest.approx(1 / cmath.sqrt(2 * math.pi * 1j * T))

    def test_shift_invariance(self):
        T = 1 - 0.05j
        a = greens_winding(0.7 + 2 * math.pi, 0.0, T, n_max=60)
        b = greens_winding(0.7, 0.0, T, n_max=60)
        assert abs(a - b) < 1e-8

    def test_heat_regime_matches_theta(self):
        # T = -i: the winding sum equals the t = 1 periodic heat kernel at 0
        val = greens_winding(0.0, 0.0, -1j, n_max=10)
        ref = np.real(heat_rho(HeatKernelParams(t=1.0, M=12), 0.0, 0.0))
        assert abs(val - ref) < 1e-12

    def test_divergent_regime_error(self):
        with pytest.raises(ValidationError, match="regularize"):
            greens_winding(0.1, 0.0, 1.0, n_max=10)

    @pytest.mark.parametrize("T", [complex(math.nan, -0.05), complex(1, -math.inf), math.inf])
    def test_rejects_nonfinite_time(self, T):
        with pytest.raises(ValidationError, match="finite"):
            greens_winding(0.1, 0.0, T, n_max=10)
        with pytest.raises(ValidationError, match="finite"):
            greens_spectral(0.1, 0.0, T, M=10)


def winding_by_theta(theta, theta0, T, n_max):
    """The winding sum at one theta, as a scalar loop: the reference."""
    n = np.arange(-n_max, n_max + 1)
    pref = 1.0 / cmath.sqrt(2 * math.pi * 1j * T)
    return complex(pref * np.sum(np.exp(1j * (theta - theta0 + 2 * math.pi * n) ** 2 / (2 * T))))


def spectral_by_theta(theta, theta0, T, M):
    """The mode sum at one theta, as a scalar loop: the reference."""
    k = np.arange(-M, M + 1)
    return complex(
        np.sum(np.exp(1j * k * (theta - theta0) - 1j * k**2 * T / 2.0)) / (2 * math.pi)
    )


@pytest.mark.parametrize(
    "theta0, T", [(0.7312, 1 - 0.05j), (-2.9, (1 - 0.3j) * (1 - 0.05j)), (0.0, 3 * (1 - 0.2j))]
)
def test_green_sums_on_theta_array_equal_scalar_loop(theta0, T):
    # each row is summed on its own, so every value keeps its bits
    thetas = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    pairs = [(greens_winding, winding_by_theta), (greens_spectral, spectral_by_theta)]
    for sums, by_theta in pairs:
        got = sums(thetas, theta0, T, 40)
        assert got.shape == thetas.shape
        assert got.tolist() == [by_theta(float(th), theta0, T, 40) for th in thetas]
        scalar = sums(float(thetas[5]), theta0, T, 40)
        assert type(scalar) is complex and scalar == got[5]


class TestGreensSpectral:
    def test_matches_winding(self):
        T = 1 - 0.05j
        for th in np.linspace(-math.pi, math.pi, 8, endpoint=False):
            gw = greens_winding(float(th), 0.0, T, n_max=40)
            gs = greens_spectral(float(th), 0.0, T, M=40)
            assert abs(gw - gs) < 1e-8

    def test_theta_integral_is_one(self):
        # only the k = 0 mode survives integration over a period
        T = 1 - 0.05j
        thetas = np.linspace(-math.pi, math.pi, 128, endpoint=False)
        vals = np.array([greens_spectral(float(th), 0.0, T, M=40) for th in thetas])
        integral = vals.sum() * 2 * math.pi / len(thetas)
        assert integral == pytest.approx(1.0, abs=1e-10)

    def test_tail_error(self):
        with pytest.raises(ValidationError, match="increase M"):
            greens_spectral(0.0, 0.0, 1 - 0.001j, M=5)

    def test_single_mode_phase_consistency(self):
        # mode k evolves by e^{-i k^2 t / 2}, the phase entering the mode sum
        t = 0.7
        phi = basis_state(3)
        out = evolve_exact(phi, hamiltonian_free(N), t)
        phase = out.coeffs[N + 3]
        assert phase == pytest.approx(cmath.exp(-1j * 9 * t / 2))
