import math

import numpy as np
import pytest

from holoflat import ValidationError, make_chart


def cylinder():
    return make_chart(1, [[1.0]], [2 * math.pi])


class TestMakeChart:
    def test_cylinder(self):
        chart = cylinder()
        assert chart.n == 1
        assert chart.periods == (2 * math.pi,)

    def test_plane(self):
        chart = make_chart(1, [[1.0]], [None])
        assert chart.periods == (None,)

    def test_torus(self):
        chart = make_chart(2, np.eye(2), [2 * math.pi, 2 * math.pi])
        assert chart.n == 2
        assert chart.periods == (2 * math.pi, 2 * math.pi)

    def test_tangent_transform_whitens_metric(self):
        # x = T u turns the Gaussian e^{-|u|^2} into e^{-x^T sigma x}
        chart = make_chart(2, [[2.0, 0.3], [0.3, 1.0]], [None, None])
        T = chart.tangent_transform
        assert np.allclose(T.T @ chart.sigma @ T, np.eye(2), atol=1e-14)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValidationError):
            make_chart(2, [[1.0, 0.5], [0.0, 1.0]], [None, None])

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValidationError):
            make_chart(2, [[1.0, 2.0], [2.0, 1.0]], [None, None])

    def test_rejects_bad_period(self):
        with pytest.raises(ValidationError):
            make_chart(1, [[1.0]], [-1.0])

    def test_rejects_wrong_period_count(self):
        with pytest.raises(ValidationError):
            make_chart(2, np.eye(2), [None])
