import math

import numpy as np
import pytest

from holoflat import (
    BasisSpec,
    FactorizationError,
    HoloState,
    ValidationError,
    bargmann_monomial_basis,
    cylinder_basis,
    cylinder_chart,
    gaussian_rule,
    gram_matrix,
    inner_product,
    inner_product_exponential,
    integrate_tangent,
    hamiltonian_free,
    ladder_raise,
    make_chart,
    moment_matrix,
    operator_kernel,
    orthonormal_series_kernel,
    orthonormalize,
    alternating_ordering,
    project,
    project_coeffs,
    reproducing_kernel,
    state_norm,
    step_matrix,
    tangent_blocks,
    tangent_nodes,
)


@pytest.fixture(scope="module")
def chart():
    return cylinder_chart()


@pytest.fixture(scope="module")
def rule():
    return gaussian_rule(2, 64)


@pytest.fixture(scope="module")
def setup_n4(chart, rule):
    basis = cylinder_basis(4)
    gram = gram_matrix(basis)
    return basis, gram


def basis_state(N, k):
    c = np.zeros(2 * N + 1, dtype=complex)
    c[k + N] = 1.0
    return HoloState(N=N, coeffs=c)


class TestInnerProduct:
    def test_raw_phi1_phi1(self, chart, rule):
        f = lambda z: np.exp(1j * z)
        assert inner_product(f, f, chart, rule) == pytest.approx(math.e, rel=1e-10)

    def test_raw_phi0_phi0(self, chart, rule):
        one = lambda z: np.ones_like(z)
        assert inner_product(one, one, chart, rule) == pytest.approx(1.0, rel=1e-12)

    def test_normalized_cross(self, chart, rule):
        f = lambda z: np.exp(1j * z - 0.5)
        g = lambda z: np.exp(2j * z - 2.0)
        assert inner_product(f, g, chart, rule) == pytest.approx(
            math.exp(-0.5), rel=1e-10
        )

    def test_conjugate_linear_first_slot(self, chart, rule):
        f = lambda z: np.exp(1j * z)
        g = lambda z: z**2
        a = 0.7 - 0.2j
        lhs = inner_product(lambda z: a * f(z), g, chart, rule)
        rhs = np.conj(a) * inner_product(f, g, chart, rule)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_accepts_states(self, chart, rule):
        f = basis_state(2, 1)
        assert inner_product(f, f, chart, rule) == pytest.approx(1.0, rel=1e-10)


class TestInnerProductExponential:
    def test_gram_match(self):
        for p in range(-3, 4):
            for q in range(-3, 4):
                assert inner_product_exponential(1j * p, 1j * q) == pytest.approx(
                    math.exp(p * q), rel=1e-14
                )

    def test_constants(self):
        assert inner_product_exponential(0, 0) == pytest.approx(1.0)

    def test_against_quadrature(self, chart, rule):
        alpha, beta = 1.0, 1j
        val = integrate_tangent(
            chart,
            rule,
            lambda Z: np.conj(np.exp(alpha * Z[:, 0])) * np.exp(beta * Z[:, 0]),
            vectorized=True,
        )
        assert val == pytest.approx(inner_product_exponential(alpha, beta), abs=1e-12)


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

    def test_quadrature_matches_closed_form(self, chart, rule):
        basis = cylinder_basis(3)
        gq = gram_matrix(basis, chart, rule, force_quadrature=True)
        gc = gram_matrix(basis)
        rel = np.abs(gq.matrix - gc.matrix) / np.abs(gc.matrix)
        assert rel.max() < 1e-10

    def test_quadrature_needs_chart(self):
        basis = BasisSpec(labels=(0, 1), eval_fn=lambda k, z: z**k)
        with pytest.raises(ValidationError):
            gram_matrix(basis)

    def test_dependent_basis_fails(self, chart, rule):
        basis = BasisSpec(labels=(0, 1), eval_fn=lambda k, z: np.ones_like(z))
        with pytest.raises(FactorizationError, match="dependent"):
            gram_matrix(basis, chart, rule)


class TestAlternatingOrdering:
    def test_alternating(self):
        basis = cylinder_basis(2)
        # labels (-2,-1,0,1,2); processing order 0, 1, -1, 2, -2
        assert alternating_ordering(basis.labels) == (2, 3, 1, 4, 0)

    def test_non_symmetric_identity(self):
        assert alternating_ordering((0, 1, 2)) == (0, 1, 2)


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

    def test_orthonormality_by_quadrature(self, chart, rule, setup_n4):
        basis, gram = setup_n4
        C = orthonormalize(gram)
        total = np.zeros((9, 9), dtype=complex)
        for Z, w in tangent_blocks(chart, rule):
            B = basis.design_matrix(Z[:, 0]) @ C
            total += np.conj(B).T @ (w[:, None] * B)
        assert np.abs(total - np.eye(9)).max() < 1e-8

    def test_custom_ordering_still_orthonormal(self, setup_n4):
        _, gram = setup_n4
        C = orthonormalize(gram, ordering=list(range(9)))
        assert np.abs(np.conj(C).T @ gram.matrix @ C - np.eye(9)).max() < 1e-10

    def test_bad_ordering(self, setup_n4):
        _, gram = setup_n4
        with pytest.raises(ValidationError):
            orthonormalize(gram, ordering=[0] * 9)


class TestKernel:
    def test_single_element_kernel_constant(self, chart, rule):
        basis = cylinder_basis(0)
        kernel = reproducing_kernel(gram_matrix(basis), basis)
        for z in (0.2, -1.0 + 0.5j, 2.0):
            assert kernel.eval(z, 0.7) == pytest.approx(1.0)

    def test_hermitian_symmetry(self, setup_n4):
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram, basis)
        rng = np.random.default_rng(2)
        z = rng.uniform(-math.pi, math.pi, 5) + 1j * rng.uniform(-1, 1, 5)
        w = rng.uniform(-math.pi, math.pi, 5) + 1j * rng.uniform(-1, 1, 5)
        assert np.abs(kernel.eval_grid(w, z) - np.conj(kernel.eval_grid(z, w)).T).max() < 1e-12

    def test_diagonal_real_positive(self, setup_n4):
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram, basis)
        for z in (0.1, 1.0 - 0.8j, -2.5 + 0.3j):
            val = kernel.eval(z, z)
            assert abs(val.imag) < 1e-12 * abs(val)
            assert val.real > 0

    def test_series_form_agrees(self, setup_n4):
        basis, gram = setup_n4
        k1 = reproducing_kernel(gram, basis)
        k2 = orthonormal_series_kernel(gram, basis)
        rng = np.random.default_rng(4)
        z = rng.uniform(-math.pi, math.pi, 6) + 1j * rng.uniform(-1, 1, 6)
        assert np.abs(k1.eval_grid(z, z) - k2.eval_grid(z, z)).max() < 1e-10

    def test_pointwise_bound_and_coherent_equality(self, setup_n4):
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram, basis)
        rng = np.random.default_rng(6)
        for _ in range(20):
            c = rng.normal(size=9) + 1j * rng.normal(size=9)
            f = HoloState(N=4, coeffs=c)
            z = complex(rng.uniform(-math.pi, math.pi), rng.uniform(-1, 1))
            bound = float(np.real(kernel.eval(z, z))) * state_norm(f, gram) ** 2
            assert abs(f.evaluate(z)) ** 2 <= bound * (1 + 1e-12)
        z = 0.4 - 0.6j
        zeta = kernel.coherent_state(z)
        lhs = abs(zeta.evaluate(z)) ** 2
        rhs = float(np.real(kernel.eval(z, z))) * state_norm(zeta, gram) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_coherent_state_evaluates(self, chart, rule, setup_n4):
        # <zeta_w, f> = f(w) for span members
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram, basis)
        w = 0.8 + 0.3j
        zeta = kernel.coherent_state(w)
        f = basis_state(4, 2)
        val = inner_product(zeta, f, chart, rule)
        assert val == pytest.approx(f.evaluate(w), rel=1e-10)

    def test_composition_rule(self, chart, rule, setup_n4):
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram, basis)
        z, u = 0.5 - 0.2j, -1.1 + 0.4j
        total = 0.0 + 0.0j
        for Z, w in tangent_blocks(chart, rule):
            nodes = Z[:, 0]
            total += np.sum(
                w * kernel.eval_grid([z], nodes)[0] * kernel.eval_grid(nodes, [u])[:, 0]
            )
        assert abs(total - kernel.eval(z, u)) < 1e-8


class TestProject:
    def test_identity_on_basis_state(self, chart, rule, setup_n4):
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram, basis)
        f = basis_state(4, 2)
        Pf = project(f, kernel, chart, rule)
        assert np.abs(Pf.coeffs - f.coeffs).max() < 1e-10

    def test_antiholomorphic_projects_to_zero(self, rule):
        chart = make_chart(1, [[1.0]], [None])
        basis = bargmann_monomial_basis(6)
        kernel = reproducing_kernel(gram_matrix(basis), basis)
        coeffs = project_coeffs(lambda z: np.conj(z), kernel, chart, rule)
        assert np.abs(coeffs).max() < 1e-12

    def test_idempotent(self, chart, rule, setup_n4):
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram, basis)
        rng = np.random.default_rng(8)
        f = HoloState(N=4, coeffs=rng.normal(size=9) + 1j * rng.normal(size=9))
        P1 = project(f, kernel, chart, rule)
        P2 = project(P1, kernel, chart, rule)
        assert np.abs(P2.coeffs - P1.coeffs).max() < 1e-10

    def test_parseval(self, chart, rule, setup_n4):
        basis, gram = setup_n4
        C = orthonormalize(gram)
        rng = np.random.default_rng(9)
        f = HoloState(N=4, coeffs=rng.normal(size=9) + 1j * rng.normal(size=9))
        # beta coefficients of f: d = C^{-1} c; Parseval: ||f||^2 = sum |d_j|^2
        d = np.linalg.solve(C, f.coeffs)
        assert np.sum(np.abs(d) ** 2) == pytest.approx(state_norm(f, gram) ** 2, rel=1e-8)


class TestOperatorKernel:
    def test_identity_recovers_reproducing(self, setup_n4):
        basis, gram = setup_n4
        k1 = reproducing_kernel(gram, basis)
        k2 = operator_kernel(np.eye(9), gram, basis)
        z = np.array([0.3, -0.7 + 0.2j, 1.9])
        assert np.abs(k1.eval_grid(z, z) - k2.eval_grid(z, z)).max() < 1e-13

    def test_diagonal_action(self, chart, rule, setup_n4):
        basis, gram = setup_n4
        k = np.arange(-4, 5)
        O = np.diag((k**2 / 2.0).astype(complex))
        KO = operator_kernel(O, gram, basis)
        f = basis_state(4, 1)
        coeffs = project_coeffs(f, KO, chart, rule)
        expected = 0.5 * f.coeffs
        assert np.abs(coeffs - expected).max() < 1e-8

    def test_lowering_action(self, chart, rule, setup_n4):
        basis, gram = setup_n4
        k = np.arange(-4, 5)
        KO = operator_kernel(np.diag(1j * k.astype(complex)), gram, basis)
        f = basis_state(4, 2)
        coeffs = project_coeffs(f, KO, chart, rule)
        assert np.abs(coeffs - 2j * f.coeffs).max() < 1e-8

    def test_dimension_mismatch(self, setup_n4):
        basis, gram = setup_n4
        with pytest.raises(ValidationError):
            operator_kernel(np.eye(5), gram, basis)


class TestDesignMatrix:
    def test_keeps_long_double(self):
        z = np.array([0.5 - 0.25j, -1.0 + 0.5j], dtype=np.clongdouble)
        Phi = cylinder_basis(2).design_matrix(z)
        assert Phi.dtype == np.clongdouble
        assert Phi.shape == (2, 5)
        assert cylinder_basis(2).design_matrix([0.0, 1.0]).dtype == np.complex128


class TestMomentMatrix:
    def test_gram_and_multiplication_moments(self, chart, rule):
        basis = cylinder_basis(2)
        z, w = tangent_nodes(chart, rule)
        G = moment_matrix(basis, z, w)
        assert np.abs(G - gram_matrix(basis).matrix).max() < 1e-10
        T = moment_matrix(basis, z, w, z)
        l = np.array(basis.labels)[:, None]
        k = np.array(basis.labels)[None, :]
        assert np.abs(T - (-1j * l * np.exp(-((l - k) ** 2) / 2.0))).max() < 1e-10


class TestOneDimensionalCharts:
    """The Hilbert layer rejects charts with n != 1 before building a grid."""

    @pytest.fixture
    def torus(self, monkeypatch):
        import holoflat.quadrature

        def no_grid(*args, **kwargs):
            raise AssertionError("grid built for a rejected chart")

        monkeypatch.setattr(holoflat.quadrature, "tangent_blocks", no_grid)
        return make_chart(2, [[2.0, 0.5], [0.5, 1.0]], [2 * math.pi, 2 * math.pi])

    def test_inner_product(self, torus):
        f = lambda z: np.exp(1j * z)
        with pytest.raises(ValidationError):
            inner_product(f, f, torus, gaussian_rule(4, 6))

    def test_gram_matrix(self, torus):
        with pytest.raises(ValidationError):
            gram_matrix(cylinder_basis(2), torus, gaussian_rule(4, 6), force_quadrature=True)

    def test_project_coeffs(self, torus, setup_n4):
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram, basis)
        with pytest.raises(ValidationError):
            project_coeffs(basis_state(4, 1), kernel, torus, gaussian_rule(4, 6))

    def test_ladder_raise_quadrature(self, torus, setup_n4):
        _, gram = setup_n4
        with pytest.raises(ValidationError):
            ladder_raise(gram, 4, method="quadrature", chart=torus, rule=gaussian_rule(4, 6))

    def test_step_matrix(self, torus, setup_n4):
        basis, gram = setup_n4
        kernel = reproducing_kernel(gram, basis)
        with pytest.raises(ValidationError):
            step_matrix(kernel, hamiltonian_free(4), 0.05, torus, gaussian_rule(4, 6))


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
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        f = HoloState(N=3, coeffs=rng.normal(size=7) + 1j * rng.normal(size=7))
        g = HoloState.from_dict(f.to_dict())
        assert g.N == 3
        assert np.allclose(g.coeffs, f.coeffs)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            HoloState(N=2, coeffs=np.zeros(4))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            HoloState(N=0, coeffs=[complex(np.inf, 0)])

    def test_malformed_dict(self):
        with pytest.raises(ValidationError):
            HoloState.from_dict({"N": 1})

    def test_evaluate_scalar_and_array(self):
        f = basis_state(2, 1)
        z = 0.3 - 0.4j
        assert f.evaluate(z) == pytest.approx(np.exp(1j * z - 0.5))
        arr = f.evaluate(np.array([z, 0.0]))
        assert arr.shape == (2,)
