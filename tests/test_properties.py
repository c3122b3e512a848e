"""Property tests over random truncations, points and states."""

import cmath
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflat import (
    GramData,
    HoloState,
    QuadratureError,
    bargmann_monomial_basis,
    cylinder_basis,
    gram_matrix,
    grid_gram,
    reproducing_kernel,
)
from holoflat import cylinder, tangent_grid
from holoflat.cli import run

# fixed examples, no example database, no per-example deadline
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)

finite = st.floats(-1.0, 1.0, allow_nan=False)
coefficient = st.builds(complex, finite, finite)
strip_point = st.builds(
    complex, st.floats(-math.pi, math.pi, allow_nan=False), st.floats(-1.0, 1.0, allow_nan=False)
)


@SETTINGS
@given(N=st.integers(1, 10), z=strip_point, w=strip_point, data=st.data())
def test_kernel_hermitian_and_reproducing(N, z, w, data):
    basis = cylinder_basis(N)
    gram = gram_matrix(basis)
    kernel = reproducing_kernel(gram)
    scale = math.sqrt(abs(kernel.eval(z, z)) * abs(kernel.eval(w, w)))
    assert abs(kernel.eval(w, z) - np.conj(kernel.eval(z, w))) <= 1e-12 * scale
    # <K(., w), f> = f(w) for every f in the span
    c = np.array(data.draw(st.lists(coefficient, min_size=basis.size, max_size=basis.size)))
    f = HoloState(basis, c)
    zeta = kernel.coherent_state(w)
    pairing = np.conj(zeta.coeffs) @ gram.matrix @ f.coeffs
    bound = np.sum(np.abs(c)) * np.abs(basis.design_matrix([w])).max()
    assert abs(pairing - f.evaluate(w)) <= 1e-11 * max(bound, 1.0)


@SETTINGS
@given(N=st.integers(0, 12), order=st.sampled_from([8, 16, 33, 64, 128]), normalized=st.booleans())
def test_grid_gram_factors(N, order, normalized):
    # G_q from the two 1-D sums against the sum over the float grid's order^2 nodes
    normalized = normalized or N > 6  # the raw basis stops at N = 6
    basis = cylinder_basis(N, normalized=normalized)
    grid = tangent_grid(order)
    Phi = basis.design_matrix(grid.z)
    nodes = np.conj(Phi).T @ (grid.w[:, None] * Phi)
    G = grid_gram(basis, order)
    assert np.abs(G - nodes).max() <= 1e-12 * np.abs(nodes).max()
    # exactly Hermitian for real c_k, so GramData's symmetrisation leaves it bit for bit
    assert np.array_equal(G, np.conj(G).T)


# T with Im T < 0, T = -i t (the heat kernel) among them
lower_half_plane = st.one_of(
    st.floats(0.05, 20.0).map(lambda t: complex(0.0, -t)),
    st.builds(cmath.rect, st.floats(0.05, 20.0), st.floats(-math.pi + 0.05, -0.05)),
)
angle_difference = st.one_of(
    st.floats(-math.pi, math.pi), st.builds(complex, st.floats(-math.pi, math.pi), finite)
)


@SETTINGS
@given(T=lower_half_plane, d=angle_difference, M=st.integers(1, 80), n_max=st.integers(0, 80))
def test_mode_and_winding_sums_agree_where_both_tails_pass(T, d, M, n_max):
    d = np.array(d)
    try:
        mode = cylinder._mode_sum(d, T, M)
        winding = cylinder._winding_sum(d, T, n_max)
    except QuadratureError as exc:
        assert "tail" in str(exc)
        return
    # each sum is within its tail bound of the theta function, up to round-off
    k, n = np.arange(-M, M + 1), np.arange(-n_max, n_max + 1)
    terms = np.abs(np.exp(1j * k * d - 1j * k**2 * T / 2)).sum() / (2 * math.pi)
    windings = np.abs(np.exp(1j * (d + 2 * math.pi * n) ** 2 / (2 * T))).sum()
    terms += windings / abs(2 * math.pi * T) ** 0.5
    assert abs(mode - winding) <= 2 * cylinder._TAIL_TOL + 1e-13 * terms


@SETTINGS
@given(d=st.integers(0, 12), z=coefficient.map(lambda v: 2 * v), data=st.data())
def test_monomial_state_evaluates_series(d, z, data):
    c = data.draw(st.lists(coefficient, min_size=d + 1, max_size=d + 1))
    terms = [c[m] * z**m / math.sqrt(math.factorial(m)) for m in range(d + 1)]
    value = HoloState(bargmann_monomial_basis(d), c).evaluate(z)
    assert abs(value - sum(terms)) <= 1e-13 * max(sum(abs(t) for t in terms), 1.0)


@SETTINGS
@given(flag=st.integers(0, 6), config=st.integers(0, 6))
def test_gram_truncation_flag_beats_config(flag, config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"truncation": config}, fh)
        outputs = []
        for name, extra in (("a", ["--config", cfg]), ("b", ["--config", cfg]), ("c", [])):
            path = os.path.join(tmp, name)
            assert run(["gram", "--truncation", str(flag), *extra, "--output", path]) == 0
            with open(path, "rb") as fh:
                outputs.append(fh.read())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count(b"\n") == 2 * flag + 2  # header and one row per label


@SETTINGS
@given(N=st.integers(1, 8), order=st.sampled_from([16, 24, 32]), data=st.data())
def test_quadrature_gram_factors_and_solves(N, order, data):
    # GramData raises FactorizationError when the Cholesky factorization fails
    basis = cylinder_basis(N)
    gram = GramData(basis, grid_gram(basis, order))
    rhs = np.array(data.draw(st.lists(coefficient, min_size=2 * N + 1, max_size=2 * N + 1)))
    x = gram.solve(rhs)
    residual = np.linalg.norm(gram.matrix @ x - rhs)
    assert residual <= 1e-13 * np.linalg.norm(gram.matrix, 2) * np.linalg.norm(x)
