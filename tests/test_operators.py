import numpy as np
import pytest

from holoflat import (
    HoloState,
    OperatorMatrix,
    ValidationError,
    adjointness_residual,
    cylinder_basis,
    gram_matrix,
    hamiltonian_free,
    inner_product,
    ladder_lower,
    ladder_raise,
    moment_matrix,
    orthonormalize,
    tangent_nodes,
    to_orthonormal_frame,
)

N = 6


@pytest.fixture(scope="module")
def gram():
    return gram_matrix(cylinder_basis(N))


def basis_state(k):
    c = np.zeros(2 * N + 1, dtype=complex)
    c[k + N] = 1.0
    return HoloState(cylinder_basis(N), c)


class TestLadderLower:
    def test_kills_zero_mode(self):
        a = ladder_lower(N)
        out = a.apply(basis_state(0))
        assert np.abs(out.coeffs).max() == 0.0

    def test_mode_two(self):
        a = ladder_lower(N)
        out = a.apply(basis_state(2))
        assert np.abs(out.coeffs - 2j * basis_state(2).coeffs).max() < 1e-15

    def test_linearity(self):
        a = ladder_lower(N)
        f = HoloState(cylinder_basis(N), basis_state(1).coeffs + basis_state(-1).coeffs)
        out = a.apply(f)
        expected = 1j * basis_state(1).coeffs - 1j * basis_state(-1).coeffs
        assert np.abs(out.coeffs - expected).max() < 1e-15


class TestLadderRaise:
    def test_closed_vs_quadrature(self, gram):
        # M = G^-1 T from the closed-form moments against T by quadrature
        z, w = tangent_nodes(96)
        mq = gram.solve(moment_matrix(cylinder_basis(N), z, w, z))
        assert np.abs(ladder_raise(gram, N).entries - mq).max() < 1e-10

    def test_multiplication_moments(self, gram):
        # <phi~_l, z phi~_k> = -i l e^{-(l-k)^2/2}, checked by quadrature
        z, w = tangent_nodes(96)
        Phi = cylinder_basis(N).design_matrix(z)
        T = np.conj(Phi).T @ ((w * z)[:, None] * Phi)
        l = np.arange(-N, N + 1)[:, None]
        k = np.arange(-N, N + 1)[None, :]
        closed = -1j * l * np.exp(-((l - k) ** 2) / 2.0)
        assert np.abs(T - closed).max() < 1e-10

    def test_truncation_mismatch(self, gram):
        with pytest.raises(ValidationError):
            ladder_raise(gram, N + 1)


class TestAdjointness:
    def test_central_block(self, gram):
        assert adjointness_residual(gram, N, buffer=2) < 1e-8

    def test_quadrature_pairing(self, gram):
        raise_op = ladder_raise(gram, N)
        lower_op = ladder_lower(N)
        rng = np.random.default_rng(17)
        for _ in range(5):
            cp = np.zeros(2 * N + 1, dtype=complex)
            cc = np.zeros(2 * N + 1, dtype=complex)
            interior = slice(2, 2 * N - 1)
            cp[interior] = rng.normal(size=2 * N - 3) + 1j * rng.normal(size=2 * N - 3)
            cc[interior] = rng.normal(size=2 * N - 3) + 1j * rng.normal(size=2 * N - 3)
            psi, chi = HoloState(cylinder_basis(N), cp), HoloState(cylinder_basis(N), cc)
            lhs = inner_product(raise_op.apply(psi), chi, 96)
            rhs = inner_product(psi, lower_op.apply(chi), 96)
            assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-8

    def test_buffer_too_large(self, gram):
        with pytest.raises(ValidationError):
            adjointness_residual(gram, N, buffer=N + 1)


class TestHamiltonianFree:
    def test_zero_mode(self):
        H = hamiltonian_free(N)
        assert np.abs(H.apply(basis_state(0)).coeffs).max() == 0.0

    def test_mode_one(self):
        H = hamiltonian_free(N)
        out = H.apply(basis_state(1))
        assert np.abs(out.coeffs - 0.5 * basis_state(1).coeffs).max() < 1e-15

    def test_spectrum_even(self):
        H = hamiltonian_free(N)
        d = np.real(np.diag(H.entries))
        assert np.allclose(d, d[::-1])

    def test_equals_minus_half_lower_squared(self):
        H = hamiltonian_free(N)
        a = ladder_lower(N).entries
        assert np.array_equal(H.entries, -0.5 * (a @ a))


class TestOperatorMatrix:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            OperatorMatrix(N=2, entries=np.eye(3))

    def test_rejects_nonfinite(self):
        m = np.eye(5, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValidationError):
            OperatorMatrix(N=2, entries=m)

    def test_apply_truncation_mismatch(self):
        H = hamiltonian_free(2)
        with pytest.raises(ValidationError):
            H.apply(HoloState(cylinder_basis(3), np.zeros(7)))

    def test_orthonormal_frame_preserves_spectrum(self, gram):
        H = hamiltonian_free(N)
        C = orthonormalize(gram)
        Hb = to_orthonormal_frame(H, C)
        ev = np.sort(np.real(np.linalg.eigvals(Hb)))
        expected = np.sort(np.arange(-N, N + 1) ** 2 / 2.0)
        assert np.abs(ev - expected).max() < 1e-8
