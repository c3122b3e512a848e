import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from holoflat import QuadratureError, ValidationError, hermite_rule, tangent_nodes
import holoflat
from holoflat.quadrature import _hermite_rule_cached, _tangent_grid


class TestHermiteRule:
    def test_order_one(self):
        x, w = hermite_rule(1)
        assert x[0] == pytest.approx(0.0, abs=1e-15)
        assert w[0] == pytest.approx(math.sqrt(math.pi))

    def test_order_two(self):
        x, w = hermite_rule(2)
        assert sorted(x) == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert w == pytest.approx([math.sqrt(math.pi) / 2] * 2)

    def test_second_moment(self):
        x, w = hermite_rule(2)
        assert np.sum(w * x**2) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)

    def test_polynomial_exactness(self):
        # degree 2*order - 1 exactness: moments of e^{-x^2}
        x, w = hermite_rule(6)
        for k in range(0, 12, 2):
            exact = math.gamma((k + 1) / 2)
            assert np.sum(w * x**k) == pytest.approx(exact, rel=1e-13)

    def test_nodes_increasing_weights_positive(self):
        x, w = hermite_rule(32)
        assert np.all(np.diff(x) > 0)
        assert np.all(w > 0)

    def test_rejects_zero_order(self):
        with pytest.raises(ValidationError):
            hermite_rule(0)

    def test_rejects_order_with_nonfinite_nodes(self):
        assert np.all(np.isfinite(hermite_rule(740)[0]))
        with pytest.raises(QuadratureError, match="not finite"):
            hermite_rule(741)

    def test_refuses_large_order_before_hermgauss(self, monkeypatch):
        # hermgauss builds an order x order companion matrix: 80 GB at order 100,000
        def no_hermgauss(order):
            raise AssertionError(f"hermgauss called at order {order}")

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", no_hermgauss)
        for order in (741, 10**6):
            msg = f"nodes of order {order} are not finite; lower the quadrature order"
            with pytest.raises(QuadratureError, match=msg):
                hermite_rule(order)

    def test_extended_matches_double(self):
        x, w = hermite_rule(16)
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
        x, w = hermite_rule(order)
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
            "x, w = holoflat.hermite_rule(128)\n"
            "assert abs(w.sum() - math.sqrt(math.pi)) < 1e-13\n"
            "basis = holoflat.cylinder_basis(2)\n"
            "g = holoflat.gram_matrix(basis, 32)\n"
            "assert abs(g.matrix[2, 2] - 1) < 1e-12\n"
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
    z, w = tangent_nodes(order)
    return complex(np.sum(w * f(z)))


class TestGaussianRule:
    def test_weights_normalized(self):
        _, w = tangent_nodes(24)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-12)


class TestTangentNodes:
    def test_matches_tensor_grid_reference(self):
        # node i * order + j sits at Hermite nodes (u_i, u_j): z = u_i - i u_j
        for order in (23, 24):
            for extended in (False, True):
                u, wu = (_hermite_rule_cached if extended else hermite_rule)(order)
                z, w = tangent_nodes(order, extended)
                ref_z = [u[i] - 1j * u[j] for i in range(order) for j in range(order)]
                ref_w = [wu[i] * wu[j] for i in range(order) for j in range(order)]
                assert np.array_equal(z, ref_z)
                assert np.allclose(w, np.array(ref_w) / np.pi, rtol=1e-15, atol=0)
                assert np.array_equal(z[::-1], -z)  # the mirror fold of step_matrix needs this

    def test_equals_concatenated_blocks(self):
        # the flat grid is one block of `order` nodes per outer Hermite node u_i,
        # each block running over the whole inner axis
        order = 24
        for extended in (False, True):
            u, wu = (_hermite_rule_cached if extended else hermite_rule)(order)
            z, w = tangent_nodes(order, extended)
            blocks = [(u[i] - 1j * u, wu[i] * wu) for i in range(order)]
            assert np.array_equal(z, np.concatenate([zb for zb, _ in blocks]))
            assert np.allclose(w, np.concatenate([wb for _, wb in blocks]) / np.pi, rtol=1e-15, atol=0)

    def test_weights_sum_to_one(self):
        _, w = tangent_nodes(24)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-12)

    def test_extended_precision(self):
        z, w = tangent_nodes(16, extended=True)
        assert z.dtype == np.clongdouble
        assert w.dtype == np.longdouble


class TestTangentNodesCache:
    """Each grid is built once per (order, precision) and shared."""

    def test_repeated_calls_share_arrays(self):
        for extended in (False, True):
            z, w = tangent_nodes(12, extended)
            z2, w2 = tangent_nodes(12, extended)
            assert z2 is z and w2 is w

    def test_order_and_precision_get_their_own_grid(self):
        z, w = tangent_nodes(12)
        z_order, _ = tangent_nodes(13)
        z_ext, w_ext = tangent_nodes(12, extended=True)
        assert z_order.size == 13**2
        assert z_ext.dtype == np.clongdouble and w_ext.dtype == np.longdouble
        assert np.array_equal(z_ext.astype(complex), z)

    def test_arrays_are_read_only(self):
        for extended in (False, True):
            z, w = tangent_nodes(6, extended)
            with pytest.raises(ValueError):
                z[0] = 0.0
            with pytest.raises(ValueError):
                w *= 2.0
        z, w = tangent_nodes(6)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-14)  # the failed writes changed nothing

    def test_cache_stays_bounded(self):
        for order in range(1, 41):
            tangent_nodes(order)
        info = _tangent_grid.cache_info()
        assert info.currsize <= info.maxsize


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
