import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from holoflat import QuadratureError, ValidationError, plane_wave_moments, tangent_grid
import holoflat
from holoflat.quadrature import _hermite_rule_cached


def rule64(order):
    """The float64 rule of the float grid: the cached long-double rule, rounded."""
    x, w = _hermite_rule_cached(order)
    return x.astype(np.float64), w.astype(np.float64)


class TestHermiteRule:
    def test_order_one(self):
        x, w = rule64(1)
        assert x[0] == pytest.approx(0.0, abs=1e-15)
        assert w[0] == pytest.approx(math.sqrt(math.pi))

    def test_order_two(self):
        x, w = rule64(2)
        assert sorted(x) == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert w == pytest.approx([math.sqrt(math.pi) / 2] * 2)

    def test_second_moment(self):
        x, w = rule64(2)
        assert np.sum(w * x**2) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)

    def test_polynomial_exactness(self):
        # degree 2*order - 1 exactness: moments of e^{-x^2}
        x, w = rule64(6)
        for k in range(0, 12, 2):
            exact = math.gamma((k + 1) / 2)
            assert np.sum(w * x**k) == pytest.approx(exact, rel=1e-13)

    def test_nodes_increasing_weights_positive(self):
        x, w = rule64(32)
        assert np.all(np.diff(x) > 0)
        assert np.all(w > 0)

    def test_rejects_zero_order(self):
        with pytest.raises(ValidationError):
            tangent_grid(0)

    def test_rejects_order_with_nonfinite_nodes(self):
        assert np.all(np.isfinite(rule64(740)[0]))
        with pytest.raises(QuadratureError, match="not finite"):
            tangent_grid(741)

    def test_refuses_large_order_before_hermgauss(self, monkeypatch):
        # hermgauss builds an order x order companion matrix: 80 GB at order 100,000
        def no_hermgauss(order):
            raise AssertionError(f"hermgauss called at order {order}")

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", no_hermgauss)
        for order in (741, 10**6):
            msg = f"nodes of order {order} are not finite; lower the quadrature order"
            with pytest.raises(QuadratureError, match=msg):
                tangent_grid(order)

    def test_extended_matches_double(self):
        # the long-double rule against numpy's eigenvalue rule in float64
        x, w = np.polynomial.hermite.hermgauss(16)
        xe, we = _hermite_rule_cached(16)
        assert np.allclose(x, xe.astype(float))
        assert np.allclose(w, we.astype(float))


def mpmath_hermite_rule(order):
    """Independent reference: Newton in 40-digit arithmetic on the physicists'
    Hermite recurrence, one node at a time, from the ``hermgauss`` start."""
    mp = pytest.importorskip("mpmath").mp

    def hermite_pair(x):
        h0, h1 = mp.mpf(1), 2 * x
        if order == 1:
            return h1, 2 * h0
        for k in range(2, order + 1):
            h0, h1 = h1, 2 * x * h1 - 2 * (k - 1) * h0
        return h1, 2 * order * h0

    nodes, weights = [], []
    with mp.workdps(40):
        scale = 2 ** (order + 1) * mp.factorial(order) * mp.sqrt(mp.pi)
        for xi in np.polynomial.hermite.hermgauss(order)[0]:
            x = mp.mpf(float(xi))
            for _ in range(6):
                h, dh = hermite_pair(x)
                x = x - h / dh
            dh = hermite_pair(x)[1]
            nodes.append(x)
            weights.append(scale / (dh * dh))
    return nodes, weights


def long_double(values):
    """Round 40-digit values to long double via a double-double split."""
    hi = np.array([float(v) for v in values])
    lo = np.array([float(v - h) for v, h in zip(values, hi)])
    return hi.astype(np.longdouble) + lo.astype(np.longdouble)


class TestHermiteReference:
    @pytest.mark.parametrize("order", [1, 2, 5, 16, 32, 64, 128])
    def test_matches_multiprecision_newton(self, order):
        ref_x, ref_w = mpmath_hermite_rule(order)
        x, w = rule64(order)
        assert np.array_equal(x, [float(v) for v in ref_x])
        ref_w64 = np.array([float(v) for v in ref_w])
        assert np.all(np.abs(w - ref_w64) <= np.spacing(ref_w64))
        xe, we = _hermite_rule_cached(order)
        ref_xe, ref_we = long_double(ref_x), long_double(ref_w)
        assert np.all(np.abs(xe - ref_xe) <= 1e-16 * np.abs(ref_xe))
        assert np.all(np.abs(we - ref_we) <= 1e-16 * ref_we)

    def test_runs_without_mpmath(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(holoflat.__file__)))
        code = (
            "import math, sys; sys.modules['mpmath'] = None\n"
            "import holoflat\n"
            "x, w = holoflat.quadrature._hermite_rule_cached(128)\n"
            "assert abs(w.sum() - math.sqrt(math.pi)) < 1e-13\n"
            "assert abs(holoflat.tangent_grid(128).w.sum() - 1) < 1e-13\n"
            "basis = holoflat.cylinder_basis(2)\n"
            "g = holoflat.grid_gram(basis, 32)\n"
            "assert abs(g[2, 2] - 1) < 1e-12\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_rejects_double_precision_long_double(self, monkeypatch):
        finfo = np.finfo
        monkeypatch.setattr(
            np, "finfo", lambda t: SimpleNamespace(nmant=52) if t is np.longdouble else finfo(t)
        )
        with pytest.raises(QuadratureError, match="long double"):
            _hermite_rule_cached.__wrapped__(8)


def integrate(order, f):
    """Integral of ``f`` against the normalized Gaussian measure on the node set."""
    grid = tangent_grid(order)
    return complex(np.sum(grid.w * f(grid.z)))


class TestGaussianRule:
    def test_weights_normalized(self):
        assert np.sum(tangent_grid(24).w) == pytest.approx(1.0, rel=1e-12)


class TestTangentNodes:
    def test_matches_tensor_grid_reference(self):
        # node i * order + j sits at Hermite nodes (u_i, u_j): z = u_i - i u_j
        for order in (23, 24):
            u, wu = rule64(order)
            grid = tangent_grid(order)
            ref_z = [u[i] - 1j * u[j] for i in range(order) for j in range(order)]
            ref_w = [wu[i] * wu[j] for i in range(order) for j in range(order)]
            assert np.array_equal(grid.z, ref_z)
            assert np.allclose(grid.w, np.array(ref_w) / np.pi, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("order", [23, 24])
    def test_declared_reflections(self, order):
        # step_matrix folds node pairs under these permutations, so each must hold exactly
        grid = tangent_grid(order)
        z, w = grid.z, grid.w
        assert np.array_equal(z[grid.mirror], -z)
        assert np.array_equal(z[grid.conj], -np.conj(z))
        for perm in (grid.mirror, grid.conj):
            assert np.array_equal(w[perm], w)
            assert np.array_equal(perm[perm], np.arange(order**2))

    def test_equals_concatenated_blocks(self):
        # the flat grid is one block of `order` nodes per outer Hermite node u_i,
        # each block running over the whole inner axis
        order = 24
        u, wu = rule64(order)
        grid = tangent_grid(order)
        blocks = [(u[i] - 1j * u, wu[i] * wu) for i in range(order)]
        assert np.array_equal(grid.z, np.concatenate([zb for zb, _ in blocks]))
        assert np.allclose(grid.w, np.concatenate([wb for _, wb in blocks]) / np.pi, rtol=1e-15, atol=0)

    def test_weights_sum_to_one(self):
        assert np.sum(tangent_grid(24).w) == pytest.approx(1.0, rel=1e-12)

    def test_extended_precision(self):
        # long double lives in the plane-wave moments; the grid itself is double
        grid = tangent_grid(16)
        assert grid.z.dtype == np.complex128 and grid.w.dtype == np.float64
        X, Y = plane_wave_moments(16, 2)
        assert X.dtype == np.clongdouble and Y.dtype == np.longdouble
        assert X.shape == Y.shape == (9,)

    def test_order_and_precision_get_their_own_grid(self):
        assert tangent_grid(13).z.size == 13**2
        # the long-double moments and the double grid share one Hermite rule: the grid
        # integrates e^{imx} e^{sy}, z = x - i y, to X(m) Y(s) up to double rounding
        grid = tangent_grid(12)
        x, y = grid.z.real, -grid.z.imag
        X, Y = plane_wave_moments(12, 1)
        for m in range(-2, 3):
            for s in range(-2, 3):
                nodes = np.sum(grid.w * np.exp(1j * m * x) * np.exp(s * y))
                assert abs(nodes - complex(X[m + 2] * Y[s + 2])) <= 1e-15 * abs(nodes)

    def test_calls_build_fresh_writable_arrays(self):
        a, b = tangent_grid(6), tangent_grid(6)
        assert b.z is not a.z and b.w is not a.w
        a.z[0], a.w[0] = 0.0, 0.0
        assert b.z[0] != 0.0 and b.w[0] != 0.0


class TestPlaneWaveMoments:
    def test_closed_forms(self):
        # int e^{imx} e^{-x^2} dx / sqrt(pi) = e^{-m^2/4}, and e^{sy} gives e^{s^2/4}:
        # order 64 meets both to long-double rounding, far below double's 1.1e-16
        X, Y = plane_wave_moments(64, 4)
        j = np.arange(-8, 9).astype(np.longdouble)
        assert np.abs(X - np.exp(-(j**2) / 4)).max() < 1e-17
        assert np.max(np.abs(Y / np.exp(j**2 / 4) - 1)) < 1e-17

    def test_conjugate_pairs(self):
        X, Y = plane_wave_moments(33, 3)
        assert np.array_equal(X[::-1], np.conj(X))
        assert np.allclose(Y[::-1], Y, rtol=1e-18, atol=0)

    def test_rejects_order_like_the_grid(self):
        with pytest.raises(ValidationError):
            plane_wave_moments(0, 1)
        with pytest.raises(QuadratureError, match="not finite"):
            plane_wave_moments(741, 1)


class TestIntegrateTangent:
    """Integrals against the normalized Gaussian measure through the node set."""

    def test_constant(self):
        val = integrate(16, np.ones_like)
        assert val == pytest.approx(1.0, rel=1e-13)

    def test_basis_inner_product(self):
        # <phi_0, phi_1> = e^{0*1} = 1
        val = integrate(64, lambda z: np.exp(1j * z))
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_second_moment(self):
        val = integrate(32, lambda z: z * np.conj(z))
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_scalar_callback(self):
        # a callback of one complex node at a time, applied node by node
        second_moment = lambda v: v * v.conjugate()
        val = integrate(8, np.vectorize(second_moment))
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_order_doubling_stability(self):
        vals = []
        for order in (48, 96):
            f = lambda z: np.exp(1j * 4 * z - 8) * np.conj(np.exp(1j * -4 * z - 8))
            vals.append(integrate(order, f))
        assert abs(vals[0] - vals[1]) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = lambda z: np.exp(1j * z)
        g = lambda z: z**2
        lhs = integrate(24, lambda z: a * f(z) + b * g(z))
        rhs = a * integrate(24, f) + b * integrate(24, g)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_conjugation(self):
        f = lambda z: np.exp(1j * z) + 0.3j * z
        lhs = integrate(24, lambda z: np.conj(f(z)))
        rhs = np.conj(integrate(24, f))
        assert lhs == pytest.approx(rhs, rel=1e-13)
