import math

import numpy as np
import pytest

from holoflat import cylinder
from holoflat import (
    HeatKernelParams,
    HoloState,
    QuadratureError,
    ValidationError,
    cylinder_basis,
    gram_matrix,
    grid_gram,
    heat_kernel_formula,
    reproducing_kernel,
    tangent_grid,
)


class TestGramClosed:
    def test_raw_e(self):
        assert cylinder_basis(1, normalized=False).closed_form_inner(1, 1) == pytest.approx(math.e)

    def test_normalized_diagonal(self):
        assert cylinder_basis(3).closed_form_inner(3, 3) == 1.0

    def test_normalized_off_diagonal(self):
        assert cylinder_basis(1).closed_form_inner(1, -1) == pytest.approx(math.exp(-2))


class TestCylinderBasis:
    def test_equal_arguments_give_equal_bases(self):
        for normalized in (True, False):
            a, b = cylinder_basis(3, normalized), cylinder_basis(3, normalized)
            assert a == b and hash(a) == hash(b)
        assert cylinder_basis(3) != cylinder_basis(4)

    def test_raw_and_normalized_bases_differ(self):
        raw, normalized = cylinder_basis(3, normalized=False), cylinder_basis(3)
        assert raw.labels == normalized.labels
        assert raw != normalized

    def test_raw_truncation_guard(self):
        with pytest.raises(ValidationError):
            cylinder_basis(7, normalized=False)

    def test_periodicity(self):
        basis = cylinder_basis(4)
        rng = np.random.default_rng(1)
        z = rng.uniform(-math.pi, math.pi, 8) + 1j * rng.uniform(-1, 1, 8)
        for k in basis.labels:
            a = basis.eval_fn(k, z)
            b = basis.eval_fn(k, z + 2 * math.pi)
            assert np.abs(a - b).max() < 1e-12 * np.abs(a).max()

    def test_state_periodicity(self):
        rng = np.random.default_rng(2)
        f = HoloState(cylinder_basis(4), rng.normal(size=9) + 1j * rng.normal(size=9))
        z = rng.uniform(-math.pi, math.pi, 10) + 1j * rng.uniform(-1, 1, 10)
        rel = np.abs(f.evaluate(z + 2 * math.pi) - f.evaluate(z)) / np.abs(f.evaluate(z))
        assert rel.max() < 1e-12

    def test_norm_of_raw_basis(self):
        # ||phi_k||^2 = e^{k^2}, so ||phi_k|| = e^{k^2/2}
        basis = cylinder_basis(4, normalized=False)
        g = grid_gram(basis, 64)
        for i, k in enumerate(basis.labels):
            norm = math.sqrt(float(np.real(g[i, i])))
            assert norm == pytest.approx(math.exp(k**2 / 2), rel=1e-10)


def heat_rho(t, M, x, z=0.0):
    """The periodic heat kernel as the mode sum at T = -i t."""
    return cylinder._mode_sum(np.asarray(x) - z, complex(0.0, -t), M)


class TestHeatRho:
    def test_large_time_only_zero_mode(self):
        for x in (0.0, 1.0, -2.5):
            assert heat_rho(50.0, 4, x) == pytest.approx(1 / (2 * math.pi), abs=1e-10)

    def test_evenness(self):
        xs = np.linspace(0.1, 3.0, 7)
        assert np.allclose(heat_rho(1.0, 12, xs), heat_rho(1.0, 12, -xs))

    def test_poisson_value_at_origin(self):
        winding = sum(
            math.exp(-((2 * math.pi * n) ** 2) / 2) for n in range(-10, 11)
        ) / math.sqrt(2 * math.pi)
        assert np.real(heat_rho(1.0, 12, 0.0)) == pytest.approx(winding, abs=1e-12)
        assert winding == pytest.approx(0.39894228, abs=1e-8)
        shared = cylinder._winding_sum(np.array(0.0), -1j, 10)
        assert shared == pytest.approx(winding, abs=1e-15)

    def test_real_for_real_arguments(self):
        val = heat_rho(1.0, 12, 1.2, 0.5)
        assert abs(complex(val).imag) < 1e-12
        assert abs(complex(cylinder._winding_sum(np.array(0.7), -1j, 20)).imag) < 1e-15

    def test_tail_guard(self):
        # the named cutoff is the smallest that passes
        for M in (2, 59):
            with pytest.raises(QuadratureError, match="mode-sum tail .* increase M to 60$"):
                heat_rho(0.01, M, 0.0)
        assert heat_rho(0.01, 60, 0.0) == pytest.approx(heat_rho(0.01, 200, 0.0), abs=1e-8)

    def test_theta_identity(self):
        xs = np.linspace(-math.pi, math.pi, 16, endpoint=False)
        for t in (0.5, 1.0, 2.0):
            mode = np.real(heat_rho(t, 24, xs))
            winding = np.real(cylinder._winding_sum(xs, complex(0.0, -t), 20))
            assert np.abs(mode - winding).max() < 1e-12

    @pytest.mark.parametrize("theta_sum", [cylinder._mode_sum, cylinder._winding_sum])
    def test_array_equals_scalar_calls(self, theta_sum):
        # complex differences, as the heat-kernel densities pass them
        d = np.linspace(-3, 3, 12).reshape(3, 4) + 0.4j * np.cos(np.arange(12)).reshape(3, 4)
        for T in (complex(0.0, -0.7), 1.3 - 0.4j):
            vals = theta_sum(d, T, 30)
            assert vals.shape == d.shape
            assert vals.ravel().tolist() == [complex(theta_sum(v, T, 30)) for v in d.ravel()]


@pytest.fixture(scope="module")
def kernel():
    basis = cylinder_basis(8)
    return reproducing_kernel(gram_matrix(basis))


class TestHeatKernelFormula:
    def test_hermitian_symmetry(self, kernel):
        params = HeatKernelParams()
        pts = [0.3, -1.0 + 0.4j, 2.1 - 0.2j]
        for z in pts:
            for w in pts:
                a = heat_kernel_formula(params, kernel, z, w)
                b = heat_kernel_formula(params, kernel, w, z)
                assert a == pytest.approx(np.conj(b), abs=1e-12 * abs(a))

    def test_array_w_equals_scalar_calls(self, kernel):
        params = HeatKernelParams(M=24)
        nodes = tangent_grid(8).z
        w = nodes.reshape(8, 8)
        vals = heat_kernel_formula(params, kernel, -1.2 + 0.5j, w)
        scalar = [heat_kernel_formula(params, kernel, -1.2 + 0.5j, complex(v)) for v in nodes]
        assert vals.shape == w.shape
        assert np.array_equal(vals.ravel(), np.array(scalar))
        assert isinstance(scalar[0], complex)

    def test_array_w_checks_every_tail(self, kernel):
        # the default M = 12 cannot bound e^{k |Im w|} at |Im w| = 7
        with pytest.raises(QuadratureError, match="mode-sum tail"):
            heat_kernel_formula(HeatKernelParams(), kernel, 0.3, np.array([0.1, 2.0 + 7j, -0.4]))

    def test_denominator_guard(self, kernel):
        # rho_t^0 is about e^{-pi^2 / 2t} = 4e-22 at x = +-pi, and its mode sum
        # cancels to round-off there, below the 1e-12 guard
        with pytest.raises(
            QuadratureError, match=r"denominator density below guard at x=2\.724350 "
        ):
            heat_kernel_formula(HeatKernelParams(t=0.1, M=100), kernel, 0.0, 0.0)

    @pytest.mark.parametrize(
        "params, points, blocks",
        [
            (HeatKernelParams(), 5, 1),
            (HeatKernelParams(), 16, 1),
            # 16,384 x-nodes bound a block of products to 4 points, so 6 w-points take two
            (HeatKernelParams(x_quad=16384), 6, 2),
        ],
    )
    def test_array_z_equals_row_calls(self, kernel, params, points, blocks):
        step = cylinder._BLOCK // params.x_quad
        assert -(-points // step) == blocks
        grid = np.linspace(-math.pi, math.pi, points, endpoint=False) + 0.1j
        rows = np.array([heat_kernel_formula(params, kernel, z, grid) for z in grid])
        vals = heat_kernel_formula(params, kernel, grid, grid)
        assert vals.shape == (points, points)
        assert np.array_equal(vals, rows)
        assert vals[2, 3] == heat_kernel_formula(params, kernel, grid[2], grid[3])

    def test_mode_sums_stay_in_blocks(self, kernel, monkeypatch):
        params = HeatKernelParams()
        terms = []
        row_sums = cylinder._row_sums

        def recording(d, width, block_terms):
            def record(col):
                out = block_terms(col)
                terms.append(out.size)
                return out

            return row_sums(d, width, record)

        monkeypatch.setattr(cylinder, "_row_sums", recording)
        grid = np.linspace(-math.pi, math.pi, 200, endpoint=False)
        heat_kernel_formula(params, kernel, grid, grid)
        # the denominator, which is also the base point's density (the calibration
        # adds no sum), then 200 z and 200 w times 256 x-nodes in blocks of 2,621 rows
        assert len(terms) == 1 + 20 + 20
        assert max(terms) <= cylinder._BLOCK

    def test_calibrated_at_base_point(self, kernel):
        value, ref = heat_kernel_formula(HeatKernelParams(), kernel, 0.0, 0.0), kernel.eval(0.0, 0.0)
        assert abs(value - ref) <= 1e-15 * abs(ref)

    def test_reproduction_through_formula(self, kernel):
        # the calibrated formula kernel reproduces a basis state under the
        # Gaussian measure; the integration visits nodes with |Im w| up to
        # ~7, so the mode cutoff must be raised to keep the tail bounded
        params = HeatKernelParams(M=24)
        grid = tangent_grid(32)
        nodes, w = grid.z, grid.w
        for z in (0.3, -1.2 + 0.5j):
            vals = heat_kernel_formula(params, kernel, z, nodes)
            total = np.sum(w * vals * np.exp(1j * nodes - 0.5))
            ref = np.exp(1j * z - 0.5)
            assert abs(total - ref) / abs(ref) < 1e-4

    def test_matches_gram_inverse_kernel_loosely(self, kernel):
        # agreement is limited by the N = 8 basis truncation, not by the
        # x-integration or the mode cutoff; test_acceptance.py's
        # test_criterion_06_heat_kernel_formula verifies that decomposition
        params = HeatKernelParams()
        grid = np.linspace(-math.pi, math.pi, 5, endpoint=False)
        worst = 0.0
        for zv in grid:
            for wv in grid:
                ref = kernel.eval(zv, wv)
                worst = max(worst, abs(heat_kernel_formula(params, kernel, zv, wv) - ref) / abs(ref))
        assert worst < 5e-3

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            HeatKernelParams(t=-1.0)
        with pytest.raises(ValidationError):
            HeatKernelParams(M=0)
        for t in (math.inf, math.nan, 0.0, -math.inf):  # t = inf would give nan kernel values
            with pytest.raises(ValidationError, match="finite and positive"):
                HeatKernelParams(t=t)
            with pytest.raises(ValidationError, match="time parameter must be finite|diverges"):
                cylinder._winding_sum(np.array(0.3), complex(0.0, -t), 20)
