import json
import math

import numpy as np
import pytest

from holoflat import (
    BasisSpec,
    FactorizationError,
    QuadratureError,
    GramData,
    HoloState,
    KernelRep,
    ValidationError,
    bargmann_monomial_basis,
    cylinder_basis,
    gram_matrix,
    grid_gram,
    orthonormal_series_kernel,
    orthonormalize,
    reproducing_kernel,
    state_norm,
    tangent_grid,
)
from holoflat import cli, hilbert


ORDER = 64


@pytest.fixture(scope="module")
def setup_n4():
    basis = cylinder_basis(4)
    gram = gram_matrix(basis)
    return basis, gram


def basis_state(N, k, normalized=True):
    c = np.zeros(2 * N + 1, dtype=complex)
    c[k + N] = 1.0
    return HoloState(cylinder_basis(N, normalized=normalized), c)


def scalar(f, g, order=ORDER):
    """Gaussian scalar product ``f^H G_q g`` of two states on one basis."""
    return complex(np.conj(f.coeffs) @ grid_gram(f.basis, order) @ g.coeffs)


def projected(f, kernel, order=ORDER):
    """Coefficients ``mid G_q f`` of the kernel-weighted projection of ``f``."""
    return kernel.mid @ (grid_gram(kernel.basis, order) @ f.coeffs)


class TestInnerProduct:
    def test_raw_phi1_phi1(self):
        f = basis_state(1, 1, normalized=False)  # e^{iz}
        assert scalar(f, f) == pytest.approx(math.e, rel=1e-10)

    def test_raw_phi0_phi0(self):
        one = basis_state(1, 0, normalized=False)
        assert scalar(one, one) == pytest.approx(1.0, rel=1e-12)

    def test_normalized_cross(self):
        f, g = basis_state(2, 1), basis_state(2, 2)  # e^{iz - 1/2}, e^{2iz - 2}
        assert scalar(f, g) == pytest.approx(math.exp(-0.5), rel=1e-10)

    def test_conjugate_linear_first_slot(self):
        f = basis_state(2, 1, normalized=False)
        g = HoloState(f.basis, np.arange(5) - 1j * np.arange(5)[::-1])
        a = 0.7 - 0.2j
        lhs = scalar(HoloState(f.basis, a * f.coeffs), g)
        rhs = np.conj(a) * scalar(f, g)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_accepts_states(self):
        f = basis_state(2, 1)
        assert scalar(f, f) == pytest.approx(1.0, rel=1e-10)


class TestInnerProductExponential:
    def test_gram_match(self):
        # <e^{ipz}, e^{iqz}> = exp(pq): the raw cylinder basis carries it as its closed form
        basis = cylinder_basis(3, normalized=False)
        g = gram_matrix(basis)
        for i, p in enumerate(basis.labels):
            for j, q in enumerate(basis.labels):
                assert g.matrix[i, j] == pytest.approx(math.exp(p * q), rel=1e-14)

    def test_constants(self):
        one = basis_state(0, 0)  # the normalized e^{i 0 z} = 1
        assert scalar(one, one) == pytest.approx(1.0, rel=1e-14)

    def test_against_quadrature(self):
        # <e^{alpha z}, e^{beta z}> = exp(conj(alpha) beta) under the unit Gaussian measure;
        # no basis holds e^{z}, so the integral is summed over the nodes directly
        alpha, beta = 1.0, 1j
        grid = tangent_grid(ORDER)
        z, w = grid.z, grid.w
        val = np.sum(w * np.conj(np.exp(alpha * z)) * np.exp(beta * z))
        assert val == pytest.approx(np.exp(np.conj(alpha) * beta), abs=1e-12)


class TestGramMatrix:
    def test_normalized_closed_form(self):
        basis = cylinder_basis(2)
        g = gram_matrix(basis)
        for i, p in enumerate(basis.labels):
            for j, q in enumerate(basis.labels):
                assert g.matrix[i, j] == pytest.approx(math.exp(-((p - q) ** 2) / 2))

    def test_raw_entries(self):
        basis = cylinder_basis(2, normalized=False)
        g = gram_matrix(basis)
        assert g.matrix[4, 4] == pytest.approx(math.exp(4), rel=1e-12)  # (p,q)=(2,2)

    def test_orthonormal_basis_gives_identity(self):
        basis = bargmann_monomial_basis(5)
        g = gram_matrix(basis)
        assert np.allclose(g.matrix, np.eye(6))

    def test_factor_reconstructs(self, setup_n4):
        _, gram = setup_n4
        recon = gram.factor @ np.conj(gram.factor).T
        assert np.abs(recon - gram.matrix).max() < 1e-10 * np.abs(gram.matrix).max()

    def test_quadrature_matches_closed_form(self):
        basis = cylinder_basis(3)
        gc = gram_matrix(basis)
        rel = np.abs(grid_gram(basis, ORDER) - gc.matrix) / np.abs(gc.matrix)
        assert rel.max() < 1e-10

    def test_order_selects_quadrature(self):
        # the order sets the grid, even where a closed form exists; order 4 cannot resolve N = 3
        basis = cylinder_basis(3)
        assert np.abs(grid_gram(basis, 4) - gram_matrix(basis).matrix).max() > 0.1

    def test_dependent_basis_fails(self):
        # the order-64 grid cannot resolve N = 40: its Gram matrix loses positivity
        resolved, dependent = cylinder_basis(30), cylinder_basis(40)
        GramData(resolved, grid_gram(resolved, ORDER))
        with pytest.raises(FactorizationError, match="dependent"):
            GramData(dependent, grid_gram(dependent, ORDER))

    def test_grid_integrals_need_plane_waves(self):
        with pytest.raises(ValidationError, match="plane waves"):
            grid_gram(bargmann_monomial_basis(3), ORDER)

    def test_overflowing_integrals_refused(self):
        # Y(6000) = sum v e^{6000 u} passes the long-double range at order 16
        basis = BasisSpec((0, 3000), lambda k, z: np.exp(1j * k * z), lambda p, q: 1.0, plane_wave=True)
        with pytest.raises(QuadratureError, match="overflow at order 16"):
            grid_gram(basis, 16)


class TestGramData:
    """``GramData(basis, matrix)`` checks, symmetrises and factors the matrix itself."""

    def test_factor_derived(self, setup_n4):
        basis, gram = setup_n4
        derived = GramData(basis, gram.matrix)
        assert np.array_equal(derived.matrix, gram.matrix)
        assert np.array_equal(derived.factor, np.linalg.cholesky(gram.matrix))

    def test_symmetrises_within_tolerance(self, setup_n4):
        basis, gram = setup_n4
        G = gram.matrix.copy()
        G[0, 1] += 1e-14
        assert np.array_equal(GramData(basis, G).matrix, 0.5 * (G + np.conj(G).T))

    def test_rejects_non_hermitian(self, setup_n4):
        basis, gram = setup_n4
        G = gram.matrix.copy()
        G[0, 1] += 1e-3
        with pytest.raises(FactorizationError, match="Hermitian to tolerance"):
            GramData(basis, G)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, setup_n4, bad):
        basis, gram = setup_n4
        G = gram.matrix.copy()
        G[2, 2] = bad
        with pytest.raises(FactorizationError, match="not finite and Hermitian"):
            GramData(basis, G)

    def test_rejects_indefinite(self, setup_n4):
        basis, gram = setup_n4
        with pytest.raises(FactorizationError, match="dependent"):
            GramData(basis, gram.matrix - 2 * np.eye(basis.size))

    def test_rejects_wrong_shape(self, setup_n4):
        basis, _ = setup_n4
        with pytest.raises(ValidationError, match="square of the basis size 9"):
            GramData(basis, np.eye(8))

    def test_factor_is_not_an_argument(self, setup_n4):
        basis, gram = setup_n4
        with pytest.raises(TypeError):
            GramData(basis, gram.matrix, gram.factor)


class TestGramSolve:
    @pytest.mark.parametrize("N", [1, 4, 8, 12])
    @pytest.mark.parametrize("columns", [None, 5])
    def test_solves_gram_system(self, N, columns):
        gram = gram_matrix(cylinder_basis(N))
        rng = np.random.default_rng(N)
        shape = (2 * N + 1,) if columns is None else (2 * N + 1, columns)
        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = gram.solve(rhs)
        assert x.shape == rhs.shape
        assert np.linalg.norm(gram.matrix @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_complex_hermitian_matrix(self):
        # the circle Gram matrices are real; this one needs the conjugate transpose
        rng = np.random.default_rng(5)
        A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        G = A @ np.conj(A).T + 9 * np.eye(9)
        gram = GramData(cylinder_basis(4), G)
        rhs = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
        assert np.linalg.norm(G @ gram.solve(rhs) - rhs) <= 1e-12 * np.linalg.norm(rhs)
        inv = gram.inverse()
        assert np.abs(inv - np.conj(inv).T).max() <= 1e-12 * np.abs(inv).max()

    @pytest.mark.parametrize("N", [1, 4, 8, 12])
    def test_inverse_is_hermitian(self, N):
        inv = gram_matrix(cylinder_basis(N)).inverse()
        assert np.abs(inv - np.conj(inv).T).max() <= 1e-12 * np.abs(inv).max()


class TestAlternatingOrdering:
    def test_alternating(self):
        basis = cylinder_basis(2)
        # labels (-2,-1,0,1,2); processing order 0, 1, -1, 2, -2
        assert hilbert._alternating_ordering(basis.labels) == (2, 3, 1, 4, 0)

    def test_non_symmetric_identity(self):
        assert hilbert._alternating_ordering((0, 1, 2)) == (0, 1, 2)


class TestOrthonormalize:
    def test_first_element_unchanged(self, setup_n4):
        _, gram = setup_n4
        C = orthonormalize(gram)
        expected = np.zeros(9)
        expected[4] = 1.0  # beta_0 = phi~_0, already unit norm
        assert np.allclose(C[:, 0], expected, atol=1e-12)

    def test_hand_gram_schmidt_second_step(self, setup_n4):
        # alpha_1 = phi~_1 - e^{-1/2} phi~_0, ||alpha_1||^2 = 1 - 1/e
        _, gram = setup_n4
        C = orthonormalize(gram)
        norm = math.sqrt(1 - math.exp(-1))
        expected = np.zeros(9)
        expected[5] = 1 / norm
        expected[4] = -math.exp(-0.5) / norm
        assert np.allclose(C[:, 1], expected, atol=1e-12)

    def test_orthonormality_in_gram_algebra(self, setup_n4):
        _, gram = setup_n4
        C = orthonormalize(gram)
        assert np.abs(np.conj(C).T @ gram.matrix @ C - np.eye(9)).max() < 1e-10

    def test_orthonormality_by_quadrature(self, setup_n4):
        basis, gram = setup_n4
        C = orthonormalize(gram)
        grid = tangent_grid(ORDER)
        z, w = grid.z, grid.w
        B = basis.design_matrix(z) @ C
        total = np.conj(B).T @ (w[:, None] * B)
        assert np.abs(total - np.eye(9)).max() < 1e-8

    def test_custom_ordering_still_orthonormal(self, setup_n4):
        _, gram = setup_n4
        C = orthonormalize(gram, ordering=list(range(9)))
        assert np.abs(np.conj(C).T @ gram.matrix @ C - np.eye(9)).max() < 1e-10

    @pytest.mark.parametrize("ordering", [None, tuple(range(9)), (8, 0, 7, 1, 6, 2, 5, 3, 4)])
    def test_upper_triangular_in_processing_order(self, setup_n4, ordering):
        # Gram-Schmidt: beta_j combines only the first j + 1 processed functions,
        # so the rows of C taken in processing order form an upper-triangular matrix
        _, gram = setup_n4
        C = orthonormalize(gram, ordering)
        order = list(hilbert._alternating_ordering(gram.basis.labels) if ordering is None else ordering)
        assert np.all(np.tril(C[order], -1) == 0)
        assert np.all(np.diag(C[order]).real > 0)

    def test_bad_ordering(self, setup_n4):
        _, gram = setup_n4
        with pytest.raises(ValidationError):
            orthonormalize(gram, ordering=[0] * 9)


class TestKernel:
    def test_single_element_kernel_constant(self):
        basis = cylinder_basis(0)
        kernel = reproducing_kernel(gram_matrix(basis))
        for z in (0.2, -1.0 + 0.5j, 2.0):
            assert kernel.eval(z, 0.7) == pytest.approx(1.0)

    def test_hermitian_symmetry(self, setup_n4):
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram)
        rng = np.random.default_rng(2)
        z = rng.uniform(-math.pi, math.pi, 5) + 1j * rng.uniform(-1, 1, 5)
        w = rng.uniform(-math.pi, math.pi, 5) + 1j * rng.uniform(-1, 1, 5)
        assert np.abs(kernel.eval_grid(w, z) - np.conj(kernel.eval_grid(z, w)).T).max() < 1e-12

    def test_diagonal_real_positive(self, setup_n4):
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram)
        for z in (0.1, 1.0 - 0.8j, -2.5 + 0.3j):
            val = kernel.eval(z, z)
            assert abs(val.imag) < 1e-12 * abs(val)
            assert val.real > 0

    def test_series_form_agrees(self, setup_n4):
        basis, gram = setup_n4
        k1 = reproducing_kernel(gram)
        k2 = orthonormal_series_kernel(gram)
        rng = np.random.default_rng(4)
        z = rng.uniform(-math.pi, math.pi, 6) + 1j * rng.uniform(-1, 1, 6)
        assert np.abs(k1.eval_grid(z, z) - k2.eval_grid(z, z)).max() < 1e-10

    def test_pointwise_bound_and_coherent_equality(self, setup_n4):
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram)
        rng = np.random.default_rng(6)
        for _ in range(20):
            c = rng.normal(size=9) + 1j * rng.normal(size=9)
            f = HoloState(basis, c)
            z = complex(rng.uniform(-math.pi, math.pi), rng.uniform(-1, 1))
            bound = float(np.real(kernel.eval(z, z))) * state_norm(f, gram) ** 2
            assert abs(f.evaluate(z)) ** 2 <= bound * (1 + 1e-12)
        z = 0.4 - 0.6j
        zeta = kernel.coherent_state(z)
        lhs = abs(zeta.evaluate(z)) ** 2
        rhs = float(np.real(kernel.eval(z, z))) * state_norm(zeta, gram) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_coherent_state_evaluates(self, setup_n4):
        # <zeta_w, f> = f(w) for span members
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram)
        w = 0.8 + 0.3j
        zeta = kernel.coherent_state(w)
        f = basis_state(4, 2)
        val = scalar(zeta, f)
        assert val == pytest.approx(f.evaluate(w), rel=1e-10)

    def test_composition_rule(self, setup_n4):
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram)
        z, u = 0.5 - 0.2j, -1.1 + 0.4j
        grid = tangent_grid(ORDER)
        nodes, w = grid.z, grid.w
        total = np.sum(w * kernel.eval_grid([z], nodes)[0] * kernel.eval_grid(nodes, [u])[:, 0])
        assert abs(total - kernel.eval(z, u)) < 1e-8


class TestProject:
    def test_identity_on_basis_state(self, setup_n4):
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram)
        f = basis_state(4, 2)
        assert np.abs(projected(f, kernel) - f.coeffs).max() < 1e-10

    def test_idempotent(self, setup_n4):
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram)
        rng = np.random.default_rng(8)
        f = HoloState(basis, rng.normal(size=9) + 1j * rng.normal(size=9))
        P1 = HoloState(basis, projected(f, kernel))
        P2 = projected(P1, kernel)
        assert np.abs(P2 - P1.coeffs).max() < 1e-10

    def test_parseval(self, setup_n4):
        basis, gram = setup_n4
        C = orthonormalize(gram)
        rng = np.random.default_rng(9)
        f = HoloState(basis, rng.normal(size=9) + 1j * rng.normal(size=9))
        # beta coefficients of f: d = C^{-1} c; Parseval: ||f||^2 = sum |d_j|^2
        d = np.linalg.solve(C, f.coeffs)
        assert np.sum(np.abs(d) ** 2) == pytest.approx(state_norm(f, gram) ** 2, rel=1e-8)


def operator_kernel(O, gram):
    """Integral kernel of the operator with coefficient matrix ``O``."""
    return KernelRep(gram.basis, mid=O @ gram.inverse())


class TestOperatorKernel:
    def test_identity_recovers_reproducing(self, setup_n4):
        basis, gram = setup_n4
        k1 = reproducing_kernel(gram)
        k2 = operator_kernel(np.eye(9), gram)
        z = np.array([0.3, -0.7 + 0.2j, 1.9])
        assert np.abs(k1.eval_grid(z, z) - k2.eval_grid(z, z)).max() < 1e-13

    def test_diagonal_action(self, setup_n4):
        basis, gram = setup_n4
        k = np.arange(-4, 5)
        O = np.diag((k**2 / 2.0).astype(complex))
        KO = operator_kernel(O, gram)
        f = basis_state(4, 1)
        coeffs = projected(f, KO)
        expected = 0.5 * f.coeffs
        assert np.abs(coeffs - expected).max() < 1e-8

    def test_lowering_action(self, setup_n4):
        basis, gram = setup_n4
        k = np.arange(-4, 5)
        KO = operator_kernel(np.diag(1j * k.astype(complex)), gram)
        f = basis_state(4, 2)
        coeffs = projected(f, KO)
        assert np.abs(coeffs - 2j * f.coeffs).max() < 1e-8

    def test_dimension_mismatch(self, setup_n4):
        basis, gram = setup_n4
        with pytest.raises(ValidationError):
            KernelRep(basis, mid=np.eye(5))


class TestDesignMatrix:
    def test_keeps_long_double(self):
        # the basis functions keep long double, in which the grid Gram reads c_k = phi_k(0);
        # the design matrix evaluates in double
        basis = cylinder_basis(2)
        c = basis.eval_fn(2, np.zeros(1, dtype=np.clongdouble))
        assert c.dtype == np.clongdouble
        assert c[0] == np.exp(np.longdouble(-2))
        Phi = basis.design_matrix(np.array([0.5 - 0.25j, -1.0 + 0.5j], dtype=np.clongdouble))
        assert Phi.dtype == np.complex128
        assert Phi.shape == (2, 5)
        assert basis.design_matrix([0.0, 1.0]).dtype == np.complex128


def node_gram(basis, order):
    """Gram matrix of ``basis`` summed over the nodes of the order-``order`` float grid."""
    grid = tangent_grid(order)
    Phi = basis.design_matrix(grid.z)
    return np.conj(Phi).T @ (grid.w[:, None] * Phi)


class TestGridValues:
    """A basis's Gram matrix G_q on a tangent grid, from the grid's 1-D sums, is every
    Gaussian integral of its states."""

    def test_matches_fresh_design_matrix(self):
        basis = cylinder_basis(4)
        G = grid_gram(basis, ORDER)
        nodes = node_gram(basis, ORDER)
        assert np.abs(G - nodes).max() <= 1e-12 * np.abs(nodes).max()

    def test_equal_bases_share_values(self):
        # separate calls build equal bases, whose grid values agree bit for bit
        assert cylinder_basis(4) == cylinder_basis(4)
        G = grid_gram(cylinder_basis(4), ORDER)
        assert np.array_equal(grid_gram(cylinder_basis(4), ORDER), G)
        assert bargmann_monomial_basis(5) == bargmann_monomial_basis(5)

    def test_bases_in_alternation(self):
        a, b = cylinder_basis(3), cylinder_basis(5, normalized=False)
        for _ in range(2):
            for basis in (a, b):
                G, nodes = grid_gram(basis, ORDER), node_gram(basis, ORDER)
                assert np.abs(G - nodes).max() <= 1e-12 * np.abs(nodes).max()

    @pytest.mark.parametrize("order", [32, 128])
    def test_states_integrate_as_before(self, order):
        # the scalar product f^H G_q g and the moments G_q f agree with the sums of the
        # states' values over the grid's nodes that they replaced
        basis = cylinder_basis(8)
        rng = np.random.default_rng(order)
        f, g = (HoloState(basis, rng.normal(size=17) + 1j * rng.normal(size=17)) for _ in range(2))
        G = grid_gram(basis, order)
        grid = tangent_grid(order)
        z, w = grid.z, grid.w
        old_inner = complex(np.sum(w * np.conj(f.evaluate(z)) * g.evaluate(z)))
        old_moments = np.conj(basis.design_matrix(z)).T @ (w * f.evaluate(z))
        assert abs(scalar(f, g, order) - old_inner) <= 1e-12 * abs(old_inner)
        assert np.abs(G @ f.coeffs - old_moments).max() <= 1e-12 * np.abs(old_moments).max()


class TestMomentMatrix:
    def test_gram_and_multiplication_moments(self):
        basis = cylinder_basis(2)
        grid = tangent_grid(ORDER)
        z, w = grid.z, grid.w
        assert np.abs(grid_gram(basis, ORDER) - gram_matrix(basis).matrix).max() < 1e-10
        Phi = basis.design_matrix(z)
        T = np.conj(Phi).T @ ((w * z)[:, None] * Phi)
        # T[l, k] = -i l G[l, k]: the identity ladder_raise takes its moments from
        l = np.array(basis.labels)[:, None]
        assert np.abs(T - (-1j * l * gram_matrix(basis).matrix)).max() < 1e-10


class TestBasisHolomorphy:
    def test_cauchy_riemann_residual(self):
        # centered finite differences of the basis functions satisfy the
        # Cauchy-Riemann equations at sample points
        basis = cylinder_basis(3)
        h = 1e-6
        rng = np.random.default_rng(10)
        pts = rng.uniform(-2, 2, 5) + 1j * rng.uniform(-1, 1, 5)
        for k in basis.labels:
            fx = (basis.eval_fn(k, pts + h) - basis.eval_fn(k, pts - h)) / (2 * h)
            fy = (basis.eval_fn(k, pts + 1j * h) - basis.eval_fn(k, pts - 1j * h)) / (2 * h)
            assert np.abs(fx + 1j * fy).max() < 1e-6


class TestHoloState:
    # the {N, coeffs} JSON of a cylinder state is read and written by the CLI
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        f = HoloState(cylinder_basis(3), rng.normal(size=7) + 1j * rng.normal(size=7))
        path = tmp_path / "state.json"
        path.write_text(json.dumps(cli._state_json(f)))
        g = cli._read_state(str(path), cylinder_basis(3))
        assert g.basis.labels == f.basis.labels
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_malformed_dict(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"N": 1}))
        with pytest.raises(ValidationError):
            cli._read_state(str(path), cylinder_basis(1))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            HoloState(cylinder_basis(2), np.zeros(4))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            HoloState(cylinder_basis(0), [complex(np.inf, 0)])

    def test_evaluate_scalar_and_array(self):
        f = basis_state(2, 1)
        z = 0.3 - 0.4j
        assert f.evaluate(z) == pytest.approx(np.exp(1j * z - 0.5))
        arr = f.evaluate(np.array([z, 0.0]))
        assert arr.shape == (2,)


class TestStateNorm:
    def test_gram_norm(self, setup_n4):
        _, gram = setup_n4
        f = basis_state(4, 2)  # a unit basis function of the normalized basis
        assert state_norm(f, gram) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_state_on_other_basis(self):
        # same size, other basis: c^H G c with the normalized basis's G is meaningless
        state = HoloState(cylinder_basis(3, normalized=False), np.eye(7)[3])
        gram = gram_matrix(cylinder_basis(3))
        with pytest.raises(ValidationError, match="state basis differs"):
            state_norm(state, gram)
