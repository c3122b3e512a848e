"""Property tests over random truncations, points and states."""

import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflat import (
    HoloState,
    bargmann_monomial_basis,
    cylinder_basis,
    gram_matrix,
    reproducing_kernel,
)
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
    kernel = reproducing_kernel(gram, basis)
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
    # gram_matrix raises FactorizationError when the Cholesky factorization fails
    gram = gram_matrix(cylinder_basis(N), order)
    rhs = np.array(data.draw(st.lists(coefficient, min_size=2 * N + 1, max_size=2 * N + 1)))
    x = gram.solve(rhs)
    residual = np.linalg.norm(gram.matrix @ x - rhs)
    assert residual <= 1e-13 * np.linalg.norm(gram.matrix, 2) * np.linalg.norm(x)
