import numpy as np
import pytest

from holoflat import (
    HoloState,
    ValidationError,
    adjointness_residual,
    cylinder_basis,
    gram_matrix,
    grid_gram,
    hamiltonian_free,
    ladder_lower,
    ladder_raise,
    orthonormalize,
    tangent_grid,
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
        out = a @ basis_state(0).coeffs
        assert np.abs(out).max() == 0.0

    def test_mode_two(self):
        a = ladder_lower(N)
        out = a @ basis_state(2).coeffs
        assert np.abs(out - 2j * basis_state(2).coeffs).max() < 1e-15

    def test_linearity(self):
        a = ladder_lower(N)
        out = a @ (basis_state(1).coeffs + basis_state(-1).coeffs)
        expected = 1j * basis_state(1).coeffs - 1j * basis_state(-1).coeffs
        assert np.abs(out - expected).max() < 1e-15


class TestLadderRaise:
    def test_closed_vs_quadrature(self, gram):
        # M = G^-1 T from the closed-form moments against T by quadrature
        grid = tangent_grid(96)
        z, w = grid.z, grid.w
        Phi = cylinder_basis(N).design_matrix(z)
        mq = gram.solve(np.conj(Phi).T @ ((w * z)[:, None] * Phi))
        assert np.abs(ladder_raise(N) - mq).max() < 1e-10

    def test_multiplication_moments(self, gram):
        # <phi~_l, z phi~_k> = -i l e^{-(l-k)^2/2}, checked by quadrature
        grid = tangent_grid(96)
        z, w = grid.z, grid.w
        Phi = cylinder_basis(N).design_matrix(z)
        T = np.conj(Phi).T @ ((w * z)[:, None] * Phi)
        l = np.arange(-N, N + 1)[:, None]
        k = np.arange(-N, N + 1)[None, :]
        closed = -1j * l * np.exp(-((l - k) ** 2) / 2.0)
        assert np.abs(T - closed).max() < 1e-10

    @pytest.mark.parametrize("n", [0, 1, 8, 20])
    def test_moments_read_off_gram_keep_bytes(self, n):
        # -i l G has the bits of numpy's closed form -i l e^{-(l-k)^2/2}, signed zeros
        # included, so the raising matrix and the `ladder` output keep theirs
        gram = gram_matrix(cylinder_basis(n))
        l = np.arange(-n, n + 1)[:, None]
        closed = gram.solve(-1j * l * np.exp(-((l - l.T) ** 2) / 2.0))
        assert ladder_raise(n).tobytes() == closed.tobytes()


class TestAdjointness:
    def test_central_block(self):
        assert adjointness_residual(N) < 1e-8

    def test_quadrature_pairing(self):
        raise_op = ladder_raise(N)
        lower_op = ladder_lower(N)
        Gq = grid_gram(cylinder_basis(N), 96)
        rng = np.random.default_rng(17)
        for _ in range(5):
            cp = np.zeros(2 * N + 1, dtype=complex)
            cc = np.zeros(2 * N + 1, dtype=complex)
            interior = slice(2, 2 * N - 1)
            cp[interior] = rng.normal(size=2 * N - 3) + 1j * rng.normal(size=2 * N - 3)
            cc[interior] = rng.normal(size=2 * N - 3) + 1j * rng.normal(size=2 * N - 3)
            lhs = complex(np.conj(raise_op @ cp) @ Gq @ cc)
            rhs = complex(np.conj(cp) @ Gq @ (lower_op @ cc))
            assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-8

    def test_buffer_too_large(self):
        # the interior block drops two edge modes on each side, so N = 1 leaves none
        with pytest.raises(ValidationError, match="needs truncation N >= 2, got N=1"):
            adjointness_residual(1)


class TestHamiltonianFree:
    def test_zero_mode(self):
        H = hamiltonian_free(N)
        assert np.abs(H @ basis_state(0).coeffs).max() == 0.0

    def test_mode_one(self):
        H = hamiltonian_free(N)
        out = H @ basis_state(1).coeffs
        assert np.abs(out - 0.5 * basis_state(1).coeffs).max() < 1e-15

    def test_spectrum_even(self):
        H = hamiltonian_free(N)
        d = np.real(np.diag(H))
        assert np.allclose(d, d[::-1])

    def test_equals_minus_half_lower_squared(self):
        H = hamiltonian_free(N)
        a = ladder_lower(N)
        assert np.array_equal(H, -0.5 * (a @ a))

    def test_orthonormal_frame_preserves_spectrum(self, gram):
        H = hamiltonian_free(N)
        C = orthonormalize(gram)
        Hb = np.linalg.solve(C, H @ C)  # H in the orthonormal frame
        ev = np.sort(np.real(np.linalg.eigvals(Hb)))
        expected = np.sort(np.arange(-N, N + 1) ** 2 / 2.0)
        assert np.abs(ev - expected).max() < 1e-8
