import math

import numpy as np
import pytest

from holoflat import cylinder
from holoflat import (
    HeatKernelParams,
    HoloState,
    QuadratureError,
    ValidationError,
    calibrate_heat_kernel,
    cylinder_basis,
    gram_closed,
    gram_matrix,
    heat_kernel_formula,
    heat_rho,
    heat_rho_winding,
    reproducing_kernel,
    tangent_nodes,
)


class TestGramClosed:
    def test_raw_e(self):
        assert gram_closed(1, 1, normalized=False) == pytest.approx(math.e)

    def test_normalized_diagonal(self):
        assert gram_closed(3, 3, normalized=True) == 1.0

    def test_normalized_off_diagonal(self):
        assert gram_closed(1, -1, normalized=True) == pytest.approx(math.exp(-2))

    def test_raw_overflow_guard(self):
        with pytest.raises(ValidationError, match="overflow"):
            gram_closed(27, 27, normalized=False)


class TestCylinderBasis:
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
        g = gram_matrix(basis, 64)
        for i, k in enumerate(basis.labels):
            norm = math.sqrt(float(np.real(g.matrix[i, i])))
            assert norm == pytest.approx(math.exp(k**2 / 2), rel=1e-10)


class TestHeatRho:
    def test_large_time_only_zero_mode(self):
        params = HeatKernelParams(t=50.0, M=4)
        for x in (0.0, 1.0, -2.5):
            assert heat_rho(params, 0.0, x) == pytest.approx(1 / (2 * math.pi), abs=1e-10)

    def test_evenness(self):
        params = HeatKernelParams()
        xs = np.linspace(0.1, 3.0, 7)
        assert np.allclose(heat_rho(params, 0.0, xs), heat_rho(params, 0.0, -xs))

    def test_poisson_value_at_origin(self):
        params = HeatKernelParams(t=1.0, M=12)
        winding = sum(
            math.exp(-((2 * math.pi * n) ** 2) / 2) for n in range(-10, 11)
        ) / math.sqrt(2 * math.pi)
        assert np.real(heat_rho(params, 0.0, 0.0)) == pytest.approx(winding, abs=1e-12)
        assert winding == pytest.approx(0.39894228, abs=1e-8)

    def test_real_for_real_arguments(self):
        params = HeatKernelParams()
        val = heat_rho(params, 0.5, 1.2)
        assert abs(complex(val).imag) < 1e-12

    def test_tail_guard(self):
        params = HeatKernelParams(t=0.01, M=2)
        with pytest.raises(QuadratureError, match="increase M"):
            heat_rho(params, 0.0, 0.0)

    def test_theta_identity(self):
        xs = np.linspace(-math.pi, math.pi, 16, endpoint=False)
        for t in (0.5, 1.0, 2.0):
            params = HeatKernelParams(t=t, M=24)
            mode = np.real(heat_rho(params, 0.0, xs))
            winding = heat_rho_winding(t, xs)
            assert np.abs(mode - winding).max() < 1e-12


@pytest.fixture(scope="module")
def kernel():
    basis = cylinder_basis(8)
    return reproducing_kernel(gram_matrix(basis), basis)


class TestHeatKernelFormula:
    def test_hermitian_symmetry(self):
        params = HeatKernelParams()
        pts = [0.3, -1.0 + 0.4j, 2.1 - 0.2j]
        for z in pts:
            for w in pts:
                a = heat_kernel_formula(params, z, w)
                b = heat_kernel_formula(params, w, z)
                assert a == pytest.approx(np.conj(b), abs=1e-12 * abs(a))

    def test_array_w_equals_scalar_calls(self):
        params = HeatKernelParams(M=24)
        nodes, _ = tangent_nodes(8)
        w = nodes.reshape(8, 8)
        vals = heat_kernel_formula(params, -1.2 + 0.5j, w)
        scalar = [heat_kernel_formula(params, -1.2 + 0.5j, complex(v)) for v in nodes]
        assert vals.shape == w.shape
        assert np.array_equal(vals.ravel(), np.array(scalar))
        assert isinstance(scalar[0], complex)

    def test_array_w_checks_every_tail(self):
        # the default M = 12 cannot bound e^{k |Im w|} at |Im w| = 7
        with pytest.raises(QuadratureError, match="mode-sum tail"):
            heat_kernel_formula(HeatKernelParams(), 0.3, np.array([0.1, 2.0 + 7j, -0.4]))

    @pytest.mark.parametrize(
        "params, points, blocks",
        [
            (HeatKernelParams(), 5, 1),
            (HeatKernelParams(), 16, 1),
            # 5,000 x-nodes bound a block to 4 points, so 6 w-points take two blocks
            (HeatKernelParams(x_quad=5000), 6, 2),
        ],
    )
    def test_array_z_equals_row_calls(self, params, points, blocks):
        step = cylinder._CHUNK_ELEMENTS // (params.x_quad * (2 * params.M + 1))
        assert -(-points // step) == blocks
        grid = np.linspace(-math.pi, math.pi, points, endpoint=False) + 0.1j
        rows = np.array([heat_kernel_formula(params, z, grid) for z in grid])
        vals = heat_kernel_formula(params, grid, grid)
        assert vals.shape == (points, points)
        assert np.array_equal(vals, rows)
        assert vals[2, 3] == heat_kernel_formula(params, grid[2], grid[3])

    def test_mode_sums_stay_in_blocks(self, monkeypatch):
        params = HeatKernelParams()
        terms = []
        heat_rho = cylinder.heat_rho

        def recording(p, z, x):
            terms.append(np.size(z) * np.size(x) * (2 * p.M + 1))
            return heat_rho(p, z, x)

        monkeypatch.setattr(cylinder, "heat_rho", recording)
        grid = np.linspace(-math.pi, math.pi, 200, endpoint=False)
        heat_kernel_formula(params, grid, grid)
        assert len(terms) == 1 + 3 + 3  # the base point, then 200 z and 200 w in blocks of 81
        assert max(terms) <= cylinder._CHUNK_ELEMENTS

    def test_calibration_scalar(self, kernel):
        params = HeatKernelParams()
        c = calibrate_heat_kernel(params, kernel)
        assert c == pytest.approx(2 * math.pi, rel=1e-3)

    def test_reproduction_through_formula(self, kernel):
        # the calibrated formula kernel reproduces a basis state under the
        # Gaussian measure; the integration visits nodes with |Im w| up to
        # ~7, so the mode cutoff must be raised to keep the tail bounded
        params = HeatKernelParams(M=24)
        c = calibrate_heat_kernel(params, kernel)
        nodes, w = tangent_nodes(32)
        for z in (0.3, -1.2 + 0.5j):
            vals = c * heat_kernel_formula(params, z, nodes)
            total = np.sum(w * vals * np.exp(1j * nodes - 0.5))
            ref = np.exp(1j * z - 0.5)
            assert abs(total - ref) / abs(ref) < 1e-4

    def test_matches_gram_inverse_kernel_loosely(self, kernel):
        # agreement is limited by the N = 8 basis truncation, not by the
        # x-integration or the mode cutoff; test_acceptance.py's
        # test_criterion_06_heat_kernel_formula verifies that decomposition
        params = HeatKernelParams()
        c = calibrate_heat_kernel(params, kernel)
        grid = np.linspace(-math.pi, math.pi, 5, endpoint=False)
        worst = 0.0
        for zv in grid:
            for wv in grid:
                ref = kernel.eval(zv, wv)
                worst = max(
                    worst, abs(c * heat_kernel_formula(params, zv, wv) - ref) / abs(ref)
                )
        assert worst < 5e-3

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            HeatKernelParams(t=-1.0)
        with pytest.raises(ValidationError):
            HeatKernelParams(M=0)
        for t in (math.inf, math.nan, 0.0, -math.inf):  # t = inf would give nan kernel values
            with pytest.raises(ValidationError, match="finite and positive"):
                HeatKernelParams(t=t)
            with pytest.raises(ValidationError, match="finite and positive"):
                heat_rho_winding(t, 0.3)
