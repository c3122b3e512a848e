import math

import numpy as np
import pytest

from holoflat import (
    QuadratureError,
    ValidationError,
    gaussian_rule,
    hermite_rule,
    integrate_tangent,
    make_chart,
    tangent_blocks,
    tangent_nodes,
)
from holoflat.quadrature import hermite_rule_extended


def cylinder():
    return make_chart(1, [[1.0]], [2 * math.pi])


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

    def test_extended_matches_double(self):
        x, w = hermite_rule(16)
        xe, we = hermite_rule_extended(16)
        assert np.allclose(x, xe.astype(float))
        assert np.allclose(w, we.astype(float))


class TestGaussianRule:
    def test_weights_normalized(self):
        rule = gaussian_rule(2, 24)
        total = 0.0
        for _, w in tangent_blocks(cylinder(), rule):
            total += np.sum(w)
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_rejects_odd_dims(self):
        with pytest.raises(ValidationError):
            gaussian_rule(3)

    def test_dims_mismatch(self):
        rule = gaussian_rule(4, 8)
        with pytest.raises(ValidationError):
            next(tangent_blocks(cylinder(), rule))


class TestTangentNodes:
    def test_equals_concatenated_blocks(self):
        chart = make_chart(1, [[2.0]], [2 * math.pi])
        rule = gaussian_rule(2, 24)
        for extended in (False, True):
            blocks = list(tangent_blocks(chart, rule, extended))
            z, w = tangent_nodes(chart, rule, extended)
            assert np.array_equal(z, np.concatenate([Z[:, 0] for Z, _ in blocks]))
            assert np.array_equal(w, np.concatenate([wb for _, wb in blocks]))

    def test_weights_sum_to_one(self):
        _, w = tangent_nodes(cylinder(), gaussian_rule(2, 24))
        assert np.sum(w) == pytest.approx(1.0, rel=1e-12)

    def test_extended_precision(self):
        z, w = tangent_nodes(cylinder(), gaussian_rule(2, 16), extended=True)
        assert z.dtype == np.clongdouble
        assert w.dtype == np.longdouble

    def test_rejects_torus(self):
        torus = make_chart(2, np.eye(2), [2 * math.pi, 2 * math.pi])
        with pytest.raises(ValidationError):
            tangent_nodes(torus, gaussian_rule(4, 4))


class TestIntegrateTangent:
    def test_constant(self):
        rule = gaussian_rule(2, 16)
        val = integrate_tangent(cylinder(), rule, lambda Z: np.ones(Z.shape[0]), vectorized=True)
        assert val == pytest.approx(1.0, rel=1e-13)

    def test_basis_inner_product(self):
        # <phi_0, phi_1> = e^{0*1} = 1
        rule = gaussian_rule(2, 64)
        val = integrate_tangent(
            cylinder(), rule, lambda Z: np.exp(1j * Z[:, 0]), vectorized=True
        )
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_second_moment(self):
        rule = gaussian_rule(2, 32)
        val = integrate_tangent(
            cylinder(), rule, lambda Z: Z[:, 0] * np.conj(Z[:, 0]), vectorized=True
        )
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_scalar_callback(self):
        rule = gaussian_rule(2, 8)
        val = integrate_tangent(cylinder(), rule, lambda v: v.z[0] * np.conj(v.z[0]))
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_order_doubling_stability(self):
        chart = cylinder()
        vals = []
        for order in (48, 96):
            rule = gaussian_rule(2, order)
            f = lambda Z: np.exp(1j * 4 * Z[:, 0] - 8) * np.conj(np.exp(1j * -4 * Z[:, 0] - 8))
            vals.append(integrate_tangent(chart, rule, f, vectorized=True))
        assert abs(vals[0] - vals[1]) < 1e-12

    def test_linearity(self):
        chart = cylinder()
        rule = gaussian_rule(2, 24)
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        f = lambda Z: np.exp(1j * Z[:, 0])
        g = lambda Z: Z[:, 0] ** 2
        lhs = integrate_tangent(chart, rule, lambda Z: a * f(Z) + b * g(Z), vectorized=True)
        rhs = a * integrate_tangent(chart, rule, f, vectorized=True) + b * integrate_tangent(
            chart, rule, g, vectorized=True
        )
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_conjugation(self):
        chart = cylinder()
        rule = gaussian_rule(2, 24)
        f = lambda Z: np.exp(1j * Z[:, 0]) + 0.3j * Z[:, 0]
        lhs = integrate_tangent(chart, rule, lambda Z: np.conj(f(Z)), vectorized=True)
        rhs = np.conj(integrate_tangent(chart, rule, f, vectorized=True))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_nonfinite_node_error(self):
        rule = gaussian_rule(2, 8)
        with pytest.raises(QuadratureError, match="node"):
            integrate_tangent(
                cylinder(), rule, lambda Z: np.where(np.real(Z[:, 0]) > 0, np.nan, 1.0),
                vectorized=True,
            )

    def test_torus_lazy_grid(self):
        # dims = 4 exercises the chunked outer-axis enumeration
        chart = make_chart(2, np.eye(2), [2 * math.pi, 2 * math.pi])
        rule = gaussian_rule(4, 12)
        one = integrate_tangent(chart, rule, lambda Z: np.ones(Z.shape[0]), vectorized=True)
        assert one == pytest.approx(1.0, rel=1e-12)
        mom = integrate_tangent(
            chart, rule, lambda Z: Z[:, 1] * np.conj(Z[:, 1]), vectorized=True
        )
        assert mom == pytest.approx(1.0, rel=1e-12)

    def test_scaled_metric_measure(self):
        # with sigma = [4], |z|^2_sigma has Gaussian second moment 1/4 per axis pair
        chart = make_chart(1, [[4.0]], [None])
        rule = gaussian_rule(2, 32)
        val = integrate_tangent(
            chart, rule, lambda Z: 4.0 * Z[:, 0] * np.conj(Z[:, 0]), vectorized=True
        )
        assert val == pytest.approx(1.0, rel=1e-12)
