import builtins
import cmath
import ctypes
import functools
import itertools
import math
import os
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflat import (
    BasisSpec,
    GramData,
    HoloState,
    QuadratureError,
    ValidationError,
    cylinder_basis,
    evolve,
    evolve_exact,
    gram_matrix,
    hamiltonian_free,
    ladder_lower,
    state_norm,
    step_matrix,
)
from holoflat import cli, cylinder, propagator
from holoflat.cylinder import greens_spectral, greens_winding
from holoflat.quadrature import tangent_grid

N = 8
ORDER = 64
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.fixture(scope="module")
def gram():
    return gram_matrix(cylinder_basis(N))


def basis_state(k):
    c = np.zeros(2 * N + 1, dtype=complex)
    c[k + N] = 1.0
    return HoloState(cylinder_basis(N), c)


DELTAS = (0.1, 0.05, 0.025, 0.0125)


@pytest.fixture(scope="module")
def steps():
    """Step matrices S(delta) of the free Hamiltonian at N = 8, order 64, from one pass."""
    basis, H = cylinder_basis(N), hamiltonian_free(N)
    return dict(zip(DELTAS, step_matrix(basis, H, DELTAS, ORDER)))


def column_norms(M, gram):
    """Gram norm of every column of ``M``."""
    return np.sqrt(np.real(np.einsum("ik,ij,jk->k", np.conj(M), gram.matrix, M)))


@functools.lru_cache(maxsize=None)
def zero_step(n, order):
    basis = cylinder_basis(n)
    gram = gram_matrix(basis)
    S0 = step_matrix(basis, hamiltonian_free(n), 0.0, order)
    return S0, gram, basis


class TestInfinitesimalStep:
    """The short-time step S(delta), checked on every basis column at once."""

    @pytest.mark.parametrize("n, order", [(4, 64), (8, 64), (12, 64)])
    def test_zero_delta_is_quadrature_gram_squared(self, n, order):
        # S(0) = (G^-1 G_q)^2, G_q the grid's own Gram matrix: exact even where the
        # rule does not resolve the basis (N = 12 at order 64)
        S0, gram, basis = zero_step(n, order)
        grid = tangent_grid(order)
        z, w = grid.z, grid.w
        Phi = basis.design_matrix(z)
        A = gram.solve(np.conj(Phi).T @ (w[:, None] * Phi))
        assert np.abs(S0 - A @ A).max() < 1e-12

    def test_zero_delta_is_identity(self):
        # the order-64 rule resolves every mode of N = 4, so G_q = G and S(0) = I
        S0 = zero_step(4, 64)[0]
        assert np.abs(S0 - np.eye(9)).max() < 1e-12

    def test_first_order_consistency(self, gram, steps):
        # (S(delta) - I)/delta -> -iH column by column: the residual halves with delta
        # once delta * H_kk <= 1.  Before that, higher orders in delta k^2 / 2 dominate
        # (mode 8 gives ratios 1.36 and 1.68 from delta = 0.1, identically at order 128).
        H = hamiltonian_free(N)
        res = {d: column_norms((steps[d] - np.eye(2 * N + 1)) / d + 1j * H, gram) for d in DELTAS}
        h = np.real(np.diag(H))
        covered = np.zeros(2 * N + 1, dtype=bool)
        for d1, d2 in zip(DELTAS, DELTAS[1:]):
            asymptotic = d1 * h <= 1
            ratio = res[d1] / res[d2]
            assert np.all((1.7 < ratio) & (ratio < 2.6) | ~asymptotic), (d1, ratio)
            covered |= asymptotic
        assert covered.all()

    def test_norm_drift_second_order(self, gram, steps):
        norms = column_norms(np.eye(2 * N + 1), gram)
        drift = {d: np.abs(column_norms(steps[d], gram) - norms) for d in DELTAS}
        for d in DELTAS:
            assert drift[d].max() <= 2 * d**2, d  # O(delta^2) on every column
        e1 = N + 1
        for d1, d2 in zip(DELTAS[:2], DELTAS[1:3]):
            assert drift[d1][e1] / drift[d2][e1] > 3.0  # and the e_1 drift scales as delta^2

    def test_matches_step_matrix_column(self, steps):
        # one evolution step from e_1 is the e_1 column of S(delta), as its own float call
        S = step_matrix(cylinder_basis(N), hamiltonian_free(N), 0.05, ORDER)
        out = evolve(basis_state(1), S, 1)[-1]
        assert np.array_equal(steps[0.05][:, N + 1], out.coeffs)


def dense_step(gram, H, delta, order):
    # every node pair of the full grid: no tiles, no mirror fold and no pruning
    # (256 node rows at a time: about 50 MB at order 48 instead of 400)
    grid = tangent_grid(order)
    z, w = grid.z, grid.w
    Phi = gram.basis.design_matrix(z)
    mid = gram.inverse()
    b = 0
    for i in range(0, len(z), 256):
        r = slice(i, i + 256)
        K = Phi[r] @ mid @ np.conj(Phi).T
        KH = Phi[r] @ H @ mid @ np.conj(Phi).T
        E = K * (1 - 0.5j * delta * KH / K) / (1 + 0.5j * delta * KH / K)
        b = b + np.conj(Phi[r]).T @ (w[r, None] * E * w[None, :]) @ Phi
    return gram.solve(b)


CASES = ("free", "skew-H", "skew-gram", "mirror-only", "conj-only")
SKEW = {(0, 1): 0.1j, (1, 0): -0.1j}


def skew_inner(p, q):
    """The normalized circle's Gram entries e^{-(p-q)^2/2}, +0.1i at labels (0, 1) and
    -0.1i at (1, 0)."""
    return complex(math.exp(-((p - q) ** 2) / 2.0)) + SKEW.get((p, q), 0)


def step_case(case, n=N):
    """Basis and Hamiltonian at truncation ``n``: "free" is even under z -> -z and
    real, so the mirror and the conjugation folds both apply; "skew-H" adds d/dz to H and
    "skew-gram" takes a closed form that adds +0.1i at labels (0, 1) of G and -0.1i at
    (1, 0), so neither fold applies and the full pair sum must run.  "mirror-only" adds
    an imaginary diagonal even in k (only the mirror applies), "conj-only" a real
    diagonal odd in k (only the conjugation applies)."""
    basis = cylinder_basis(n)
    H = hamiltonian_free(n)
    k = np.arange(-n, n + 1)
    if case == "skew-H":
        H = H + ladder_lower(n)
    if case == "skew-gram":
        basis = BasisSpec(basis.labels, basis.eval_fn, skew_inner)
    if case == "mirror-only":
        H = H + 0.1j * np.diag(k**2)
    if case == "conj-only":
        H = H + 0.1 * np.diag(k)
    return basis, H


# the reflections each case admits: J is z -> -z, sigma is z -> -conj(z)
FOLDS = {"free": "J sigma", "skew-H": "", "skew-gram": "", "mirror-only": "J", "conj-only": "sigma"}


def no_grid(*args, **kwargs):
    raise RuntimeError("grid built")


def guarded_pairs(monkeypatch, basis, H, order):
    """The node pairs the division guard sees in one ``step_matrix`` call: it compares
    |K| with guard * |K_H| on every node pair that is summed."""
    guarded, less = [], np.less

    def spy(a, b, out):
        guarded.append(out.size)
        return less(a, b, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(np, "less", spy)
        step_matrix(basis, H, 0.05, order)
    return sum(guarded)


def blas_pair(monkeypatch):
    """The OpenBLAS thread-count getter and setter ``step_matrix`` finds; where the loaded
    BLAS has none, a stand-in pair it is made to find, so a worker count still applies."""
    pair = propagator._openblas_threads()
    if pair is None:
        threads = [4]
        pair = (lambda: threads[0], lambda n: threads.__setitem__(0, n))
        monkeypatch.setattr(propagator, "_openblas_threads", lambda: pair)
    return pair


def with_workers(monkeypatch, workers):
    """Let ``step_matrix`` sum its strips on ``workers`` workers, whatever the host's CPUs,
    and return the (workers, strips) of each sum it runs.  The thread-count pair it finds
    reports ``workers`` BLAS threads; its setter passes the hold to one thread, and then
    the restore of the count the hold read, on to the real pair."""
    get, set_ = blas_pair(monkeypatch)
    count, held = [workers], []

    def set_threads(n):
        if held:
            set_(held.pop())
        else:
            held.append(get())
            set_(1)
        count[0] = n

    monkeypatch.setattr(propagator, "_openblas_threads", lambda: (lambda: count[0], set_threads))
    return sums_run(monkeypatch)


def sums_run(monkeypatch):
    """The (workers, strips) of each strip sum ``step_matrix`` runs from here on."""
    seen, sum_in_order = [], propagator._sum_in_order

    def spy(strip, strips, pool):
        seen.append((len(pool), len(strips)))
        return sum_in_order(strip, strips, pool)

    monkeypatch.setattr(propagator, "_sum_in_order", spy)
    return seen


@pytest.fixture
def fast_switching():
    """Threads switch every microsecond, so workers interleave inside each strip."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestStepMatrix:
    @pytest.mark.parametrize("tile", [(7, 50), (50, 7), (144, 144), (256, 1024), (40, 30)])
    def test_matches_dense_reference(self, tile, monkeypatch):
        # order 12 gives M = 144 nodes: 7 x 50 tiles leave partial row and column tiles;
        # order 11 (M = 121) has an origin node; 40-row tiles straddle the fold row
        # ceil(M/2) at both orders (72 and 61)
        monkeypatch.setattr(propagator, "_TILE", tile)
        for order, case in itertools.product((12, 11), CASES):
            basis, H = step_case(case)
            ref = dense_step(gram_matrix(basis), H, 0.05, order)
            S = step_matrix(basis, H, 0.05, order)
            assert np.abs(S - ref).max() <= 1e-13 * np.abs(ref).max(), (order, case)

    @pytest.mark.parametrize(
        "case, order", [(case, order) for order in (32, 48) for case in CASES] + [("free", 64)]
    )
    def test_pruned_matches_full_grid(self, case, order):
        # 960 of 1,024, 1,824 of 2,304 and 2,808 of 4,096 nodes are summed; dense_step sums
        # them all.  The threshold, scaled by the sum of all pair bounds, drops few more
        # pairs than one scaled by the largest at orders 32 and 48, and 18% more at 64
        basis, H = step_case(case)
        ref = dense_step(gram_matrix(basis), H, 0.05, order)
        S = step_matrix(basis, H, 0.05, order)
        assert np.abs(S - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "case, order, pairs",
        [
            ("free", 12, 36 * 144),  # a quarter of the rows: 144 nodes in 36 orbits
            ("free", 11, 36 * 121),  # 121 nodes in 36 orbits
            ("skew-H", 12, 144 * 144),
            ("skew-gram", 12, 144 * 144),
            ("free", 24, 76800),  # of 144 * 576: pairs of two small nodes are dropped
            ("free", 23, 73296),
            ("free", 64, 1641056),  # 2,808 of 4,096 nodes in a summed pair, still folded
            ("skew-H", 64, 6377760),
        ],
    )
    def test_guarded_pairs_halved_when_even(self, case, order, pairs, monkeypatch):
        assert guarded_pairs(monkeypatch, *step_case(case), order) == pairs

    def test_quoted_pair_counts(self, monkeypatch):
        # the order-64 and order-128 counts quoted in step_matrix's docstring and in
        # README's Performance section are the guard's at N = 8
        with open(README) as fh:
            performance = fh.read().split("## Performance", 1)[1]
        basis, H = step_case("free")
        counts = [guarded_pairs(monkeypatch, basis, H, order) for order in (64, 128)]
        for text in (step_matrix.__doc__, performance):
            quoted = re.search(r"order 64 computes ([\d,]+) pairs\s+and order 128\s+([\d,]+)", text)
            assert [int(q.replace(",", "")) for q in quoted.groups()] == counts

    @pytest.mark.parametrize("order", [32, 33])
    @pytest.mark.parametrize("case", CASES)
    def test_guarded_pairs_brute_force(self, case, order, monkeypatch):
        # one node row per tile: the guard then sees exactly the pairs (orbit
        # representative a, node c) with sbar_a sbar_c > thr, counted here from w and Phi
        basis, H = step_case(case)
        grid = tangent_grid(order)
        z, w = grid.z, grid.w
        Phi = basis.design_matrix(z)
        s = w * np.sum(np.abs(Phi) ** 2, axis=1)
        M = len(s)
        x, y = np.divmod(np.arange(M), order)
        images = [np.arange(M)]
        if "J" in FOLDS[case]:
            images.append((order - 1 - x) * order + order - 1 - y)
        if "sigma" in FOLDS[case]:
            images += [(order - 1 - x) * order + y] + [x * order + order - 1 - y] * ("J" in FOLDS[case])
        images = np.array(images)
        sbar = s[images].max(axis=0)
        sbar /= sbar.max()
        representative = images.min(axis=0) == np.arange(M)
        thr = 2.0**-53 / M**2 * sbar.sum() ** 2
        pairs = np.count_nonzero(np.outer(sbar[representative], sbar) > thr)

        monkeypatch.setattr(propagator, "_TILE", (1, M))
        assert guarded_pairs(monkeypatch, basis, H, order) == pairs

    def test_nonfinite_scale_raises(self):
        # e^{400 k z} overflows at the outer nodes; an infinite or NaN largest scale
        # would drop every node and return S = 0
        basis = cylinder_basis(1)

        def eval_fn(k, z):
            with np.errstate(over="ignore"):
                return np.exp(400.0 * k * z)

        overflowing = BasisSpec(basis.labels, eval_fn, basis.closed_form_inner)
        with pytest.raises(QuadratureError, match="not finite"):
            step_matrix(overflowing, hamiltonian_free(1), 0.05, 12)

    def test_large_basis_values(self):
        # values 1e80 and Gram entries 1e160 times the circle's, all finite, but the
        # largest scale squared overflows: a threshold formed from it drops every pair
        # and gives S = 0.  The step is scale-invariant; a warning fails this test
        base = cylinder_basis(2)
        large = BasisSpec(
            base.labels,
            lambda k, z: 1e80 * np.exp(1j * k * z - k * k / 2),
            lambda p, q: 1e160 * math.exp(-((p - q) ** 2) / 2),
        )
        H = hamiltonian_free(2)
        ref = step_matrix(base, H, 0.05, 16)
        S = step_matrix(large, H, 0.05, 16)
        assert np.abs(S - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_division_guard_raises(self, monkeypatch):
        H = hamiltonian_free(N)
        monkeypatch.setattr(propagator, "DIVISION_GUARD", 1e3)
        with pytest.raises(QuadratureError, match="below guard"):
            step_matrix(cylinder_basis(N), H, 0.05, ORDER)

    def test_order_limit(self, monkeypatch):
        H = hamiltonian_free(N)
        monkeypatch.setattr(propagator, "tangent_grid", no_grid)
        assert propagator.MAX_STEP_ORDER == 256
        with pytest.raises(QuadratureError, match="above the step-matrix limit 256"):
            step_matrix(cylinder_basis(N), H, 0.05, 257)
        with pytest.raises(RuntimeError, match="grid built"):  # 256 itself is allowed
            step_matrix(cylinder_basis(N), H, 0.05, 256)

    @pytest.mark.parametrize(
        "H, message",
        [
            (np.ones((2 * N + 1, 5)), r"shape \(17, 5\) is not \(17, 17\)"),
            (np.eye(2 * N - 1), r"shape \(15, 15\) is not \(17, 17\)"),
            (np.diag([np.nan] + [0.0] * 2 * N), "entries must be finite"),
        ],
        ids=["not-square", "wrong-size", "nan-entry"],
    )
    def test_rejects_bad_hamiltonian(self, H, message, monkeypatch):
        # refused before the grid, not after the O(order^4) pair sum
        monkeypatch.setattr(propagator, "tangent_grid", no_grid)
        with pytest.raises(ValidationError, match=message):
            step_matrix(cylinder_basis(N), H, 0.05, ORDER)

    @pytest.mark.parametrize(
        "delta", [math.nan, math.inf, -math.inf, [0.05, math.nan]],
        ids=["nan", "inf", "-inf", "array-with-nan"],
    )
    def test_rejects_nonfinite_delta(self, delta, monkeypatch):
        # refused before the grid, not after the O(order^4) pair sum and a QuadratureError
        monkeypatch.setattr(propagator, "tangent_grid", no_grid)
        with pytest.raises(ValidationError, match="evolution time must be finite, got time step"):
            step_matrix(cylinder_basis(N), hamiltonian_free(N), delta, ORDER)

    def test_memory_bounded(self, monkeypatch):
        # order 64: M = 4096 nodes, so the full M x M complex pair matrix would be 268 MB;
        # as many workers as the cap allows, each with its own tile buffers, on any host
        seen = with_workers(monkeypatch, propagator._MAX_WORKERS)
        tracemalloc.start()
        try:
            step_matrix(cylinder_basis(N), hamiltonian_free(N), 0.05, ORDER)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seen[0][0] == propagator._MAX_WORKERS == 8
        assert peak < 40e6


class TestStepMatrices:
    """``step_matrix`` on a 1-D array of deltas: their steps from one pass over the tiles."""

    @pytest.mark.parametrize("order, tile", [(11, (7, 50)), (12, (40, 30)), (33, None)])
    @pytest.mark.parametrize("case", CASES)
    def test_bit_identical_to_one_call_per_delta(self, case, order, tile, monkeypatch):
        # every fold combination; small tiles leave partial row and column tiles, and an
        # odd order has nodes fixed by the reflections
        if tile:
            monkeypatch.setattr(propagator, "_TILE", tile)
        basis, H = step_case(case)
        deltas = (0.1, 0.0, -0.05, 0.025)
        shared = step_matrix(basis, H, deltas, order)
        assert shared.shape == (len(deltas), basis.size, basis.size)
        for delta, S in zip(deltas, shared):
            assert np.array_equal(S, step_matrix(basis, H, delta, order)), delta

    def test_float_gives_one_matrix(self):
        # a float, a 0-d array and a one-entry array: (nb, nb), (nb, nb) and (1, nb, nb)
        basis, H = cylinder_basis(N), hamiltonian_free(N)
        S = step_matrix(basis, H, 0.05, 12)
        assert S.shape == (2 * N + 1, 2 * N + 1)
        assert np.array_equal(step_matrix(basis, H, np.float64(0.05), 12), S)
        assert np.array_equal(step_matrix(basis, H, np.array(0.05), 12), S)
        assert np.array_equal(step_matrix(basis, H, [0.05], 12), S[None])

    @pytest.mark.parametrize("deltas", [[[0.05, 0.1]], [[0.05], [0.1]], []])
    def test_rejects_other_shapes(self, deltas, monkeypatch):
        # only a float or a nonempty 1-D array, refused before the grid
        monkeypatch.setattr(propagator, "tangent_grid", no_grid)
        shape = re.escape(str(np.shape(deltas)))
        with pytest.raises(ValidationError, match=f"nonempty, got shape {shape}$"):
            step_matrix(cylinder_basis(N), hamiltonian_free(N), deltas, ORDER)

    def test_division_guard_raises(self, monkeypatch):
        monkeypatch.setattr(propagator, "DIVISION_GUARD", 1e3)
        with pytest.raises(QuadratureError, match="below guard"):
            step_matrix(cylinder_basis(N), hamiltonian_free(N), DELTAS, 12)

    @pytest.mark.parametrize("deltas", [(0.05, 1e308), (1e308, 0.05)])
    def test_nonfinite_sum_names_its_delta(self, deltas):
        with pytest.raises(QuadratureError, match=r"not finite at time step delta=1\.000e\+308"):
            step_matrix(cylinder_basis(N), hamiltonian_free(N), deltas, 12)


class TestStripWorkers:
    """The row strips summed on several workers: the same bits, refusals and cleanup."""

    @pytest.mark.parametrize(
        "order, tile", [(11, None), (12, None), (33, None), (11, (7, 50)), (12, (40, 30))]
    )
    @pytest.mark.parametrize("case", CASES)
    def test_same_bits_for_any_worker_count(self, case, order, tile, monkeypatch, fast_switching):
        # 8 workers is more than the host's cores; small tiles leave partial strips and
        # give several strips at these orders.  A lost or reordered strip sum moves bits
        if tile:
            monkeypatch.setattr(propagator, "_TILE", tile)
        basis, H = step_case(case)
        results = {}
        for workers in (1, 2, 8):
            seen = with_workers(monkeypatch, workers)
            results[workers] = [step_matrix(basis, H, d, order) for d in (0.05, (0.1, 0.0, -0.05))]
            assert [n for n, strips in seen] == [min(workers, strips) for n, strips in seen]
        for workers in (2, 8):
            for S, ref in zip(results[workers], results[1]):
                assert np.array_equal(S, ref), workers

    @pytest.mark.parametrize("workers", [2, 8])
    def test_refusal_and_cleanup(self, workers, monkeypatch, fast_switching):
        # at guard 1e-4 only strip 10 of 11 fails at order 64 (|K| / |K_H| reaches 3.3e-5
        # there); the message is the serial sum's, every thread is joined and the BLAS
        # thread count is 1 inside the sum and restored after it, refused or not
        get, set_ = blas_pair(monkeypatch)
        threads, blas_threads = threading.active_count(), get()
        inside, less = [], np.less

        def spy(a, b, out):
            inside.append(get())
            return less(a, b, out=out)

        basis, H = cylinder_basis(N), hamiltonian_free(N)
        monkeypatch.setattr(propagator, "DIVISION_GUARD", 1e-4)
        with_workers(monkeypatch, 1)
        with pytest.raises(QuadratureError, match="below guard") as serial:
            step_matrix(basis, H, 0.05, ORDER)
        seen = with_workers(monkeypatch, workers)
        monkeypatch.setattr(np, "less", spy)
        set_(2)
        try:
            with pytest.raises(QuadratureError, match="below guard") as parallel:
                step_matrix(basis, H, 0.05, ORDER)
            assert (threading.active_count(), get()) == (threads, 2)
            monkeypatch.setattr(propagator, "DIVISION_GUARD", 1e-12)
            step_matrix(basis, H, 0.05, ORDER)
            assert (threading.active_count(), get()) == (threads, 2)
        finally:
            set_(blas_threads)
        assert seen == [(workers, 11)] * 2
        assert str(parallel.value) == str(serial.value)
        assert set(inside) == {1}

    def test_concurrent_calls_restore_blas_threads(self, monkeypatch):
        # two callers' sums take turns holding the BLAS thread count, so the second does
        # not read the first's 1 as the count to restore
        get, set_ = blas_pair(monkeypatch)
        basis, H = cylinder_basis(N), hamiltonian_free(N)
        blas_threads = get()
        set_(2)
        try:
            for _ in range(5):
                callers = [
                    threading.Thread(target=step_matrix, args=(basis, H, 0.05, 33))
                    for _ in range(2)
                ]
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(timeout=60)
                assert not any(caller.is_alive() for caller in callers)
                assert get() == 2
        finally:
            set_(blas_threads)

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
    def test_pair_is_the_mapped_openblas(self):
        # numpy's extension leads to the same functions as a scan of the mapped libraries
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}

        def address(f):
            return ctypes.cast(f, ctypes.c_void_p).value

        mapped = []
        for path in sorted(filter(os.path.isfile, libs)):
            lib = ctypes.CDLL(path)
            mapped += [
                [address(getattr(lib, name)) for name in names]
                for names in propagator._OPENBLAS_THREADS
                if all(hasattr(lib, name) for name in names)
            ]
        pair = propagator._openblas_threads()
        assert [address(f) for f in pair or ()] == (mapped[0] if mapped else [])

    @pytest.mark.parametrize("threads", [1, 3])
    def test_workers_follow_blas_threads(self, threads, monkeypatch):
        # W is numpy's OpenBLAS thread count, read with /proc refused; the sum still holds
        # the count to one thread
        pair = propagator._openblas_threads()
        if pair is None:
            pytest.skip("numpy links no OpenBLAS")
        get, set_ = pair
        inside, less, real_open = [], np.less, builtins.open

        def refuse_proc(file, *args, **kwargs):
            if str(file).startswith("/proc"):
                raise PermissionError(f"{file} refused")
            return real_open(file, *args, **kwargs)

        def spy(a, b, out):
            inside.append(get())
            return less(a, b, out=out)

        monkeypatch.setattr(builtins, "open", refuse_proc)
        monkeypatch.setattr(np, "less", spy)
        seen = sums_run(monkeypatch)
        blas_threads = get()
        set_(threads)
        try:
            step_matrix(cylinder_basis(N), hamiltonian_free(N), 0.05, 33)
            assert get() == threads
        finally:
            set_(blas_threads)
        assert seen == [(threads, 4)]
        assert set(inside) == {1}

    def test_hold_spans_the_whole_step(self, monkeypatch):
        # one BLAS thread from the grid on: in tangent_grid, at the Gram inverse that the
        # prep products follow, in the sum and in the solves; the count is restored after
        get, set_ = blas_pair(monkeypatch)
        inside = {}

        def spy(name, f):
            def wrapper(*args, **kwargs):
                inside.setdefault(name, set()).add(get())
                return f(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(propagator, "tangent_grid", spy("grid", tangent_grid))
        monkeypatch.setattr(GramData, "inverse", spy("inverse", GramData.inverse))
        monkeypatch.setattr(np, "less", spy("sum", np.less))
        monkeypatch.setattr(GramData, "solve", spy("solve", GramData.solve))
        blas_threads = get()
        set_(3)
        try:
            step_matrix(cylinder_basis(N), hamiltonian_free(N), 0.05, 33)
            assert get() == 3
        finally:
            set_(blas_threads)
        assert inside == dict.fromkeys(("grid", "inverse", "sum", "solve"), {1})

    @pytest.mark.parametrize("workers", [2, 8])
    def test_workers_under_the_command_hold(self, workers, monkeypatch, tmp_path):
        # the command's hold sets one thread first; the step's hold inside it yields the
        # count the command's read, so the sum still runs on W workers, not one
        seen = with_workers(monkeypatch, workers)
        argv = ["evolve", "--quad-order", str(ORDER), "--steps", "1"]
        assert cli.run(argv + ["--output", str(tmp_path / "out")]) == 0
        assert seen == [(workers, 11)]

    def test_sum_in_strip_order(self, fast_switching):
        # the later strips finish first and are still added in strip order: a serial
        # loop's bits (any other order rounds 1e16 + 1 differently)
        parts = [1e16, 1.0, -1e16, 1.0, 3.0, -2.5, 1e-3, 7.0]

        def strip(i, buffers):
            time.sleep(0.01 * (len(parts) - i))
            return np.array([parts[i]])

        total = propagator._sum_in_order(strip, range(len(parts)), [None] * 3)
        assert total.tolist() == [functools.reduce(lambda a, b: a + b, parts)]

    def test_first_failed_strip_is_raised(self):
        # strip 5 fails while strip 3 is still running; strip 3's exception, the one a
        # serial loop gives, is raised, and no strip after 5 is taken
        taken = []

        def strip(i, buffers):
            taken.append(i)
            if i == 3:
                time.sleep(0.05)
                raise KeyboardInterrupt("strip 3")
            if i == 5:
                raise ValueError("strip 5")
            return np.ones(1)

        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt, match="strip 3"):
            propagator._sum_in_order(strip, range(8), [None, None])
        assert sorted(taken) == [0, 1, 2, 3, 4, 5]
        assert threading.active_count() == threads

    def test_failure_stops_the_other_workers(self):
        # strip 0 fails at once; the worker still summing strip 1 takes no strip after it
        taken = []

        def strip(i, buffers):
            taken.append(i)
            if i == 0:
                raise ValueError("strip 0")
            time.sleep(0.05)
            return np.ones(1)

        with pytest.raises(ValueError, match="strip 0"):
            propagator._sum_in_order(strip, range(8), [None, None])
        assert sorted(taken) in ([0], [0, 1])

    def test_without_openblas_one_worker(self, monkeypatch):
        # no thread-count pair found: the strips run serially, in the calling thread.  The
        # BLAS is held to one thread here as the sum would hold it: a width-1 column tile
        # is a matrix-vector product, whose last bits move under two OpenBLAS threads
        basis, H = cylinder_basis(N), hamiltonian_free(N)
        get, set_ = blas_pair(monkeypatch)
        with_workers(monkeypatch, 2)
        S = step_matrix(basis, H, 0.05, 33)
        seen = with_workers(monkeypatch, 2)
        monkeypatch.setattr(propagator, "_openblas_threads", lambda: None)
        blas_threads = get()
        set_(1)
        try:
            assert np.array_equal(step_matrix(basis, H, 0.05, 33), S)
        finally:
            set_(blas_threads)
        assert seen == [(1, 4)]


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(delta=st.floats(0.0, 0.2), n=st.integers(1, 8), case=st.sampled_from(CASES))
def test_pruned_step_matches_full_grid(delta, n, case):
    # order 32 drops nodes at every n in 1..8 but 7
    basis, H = step_case(case, n)
    ref = dense_step(gram_matrix(basis), H, delta, 32)
    S = step_matrix(basis, H, delta, 32)
    assert np.abs(S - ref).max() <= 1e-13 * np.abs(ref).max()


def trajectory(phi, H, t, n, order=ORDER):
    """``n`` steps of length ``t / n`` under ``H`` from ``phi``."""
    return evolve(phi, step_matrix(phi.basis, H, t / n, order), n)


class TestEvolve:
    def test_zero_time_identity(self):
        phi = basis_state(2)
        out = trajectory(phi, hamiltonian_free(N), 0.0, 4)[-1]
        assert np.abs(out.coeffs - phi.coeffs).max() < 1e-11

    def test_zero_hamiltonian_identity(self):
        H = np.zeros((2 * N + 1, 2 * N + 1), dtype=complex)
        phi = basis_state(1)
        out = trajectory(phi, H, 2.0, 4)[-1]
        assert np.abs(out.coeffs - phi.coeffs).max() < 1e-11

    def test_first_order_convergence(self, gram):
        H = hamiltonian_free(N)
        c = basis_state(0).coeffs + basis_state(1).coeffs
        phi = HoloState(cylinder_basis(N), c)
        phi = HoloState(phi.basis, phi.coeffs / state_norm(phi, gram))
        exact = evolve_exact(phi, H, 0.5)
        errs = []
        for n in (16, 32):
            out = trajectory(phi, H, 0.5, n)[-1]
            errs.append(state_norm(HoloState(phi.basis, out.coeffs - exact.coeffs), gram))
        assert 1.7 < errs[0] / errs[1] < 2.3

    def test_history(self, steps):
        # n_steps + 1 states: the input coefficients, then S @ the previous state, bit for bit
        state = HoloState(cylinder_basis(N), np.arange(2 * N + 1) * (1 - 0.5j))
        history = evolve(state, steps[0.05], 4)
        assert len(history) == 5
        assert np.array_equal(history[0].coeffs, state.coeffs)
        for before, after in zip(history, history[1:]):
            assert after.basis is state.basis
            assert np.array_equal(after.coeffs, steps[0.05] @ before.coeffs)

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="n_steps must be >= 1, got 0"):
            evolve(basis_state(0), np.eye(2 * N + 1), 0)

    def test_rejects_state_size_mismatch(self, steps):
        # the step matrix of another basis size is refused before any step
        state = HoloState(cylinder_basis(N - 1), np.ones(2 * N - 1))
        with pytest.raises(ValidationError, match=r"step matrix shape \(17, 17\) is not \(15, 15\)"):
            evolve(state, steps[0.05], 4)

    @pytest.mark.parametrize(
        "shape", [(2 * N + 1, 2 * N), (2 * N + 1,), (1, 2 * N + 1, 2 * N + 1)],
        ids=["not-square", "vector", "stacked"],
    )
    def test_rejects_step_matrix_shape(self, shape):
        # a stack from an array of deltas is not one step matrix
        with pytest.raises(ValidationError, match=f"step matrix shape {re.escape(str(shape))} "):
            evolve(basis_state(0), np.ones(shape), 2)

    def test_divergence_names_its_step(self):
        # one error, and no numpy overflow warning before it
        S = 1e200 * np.eye(2 * N + 1)
        with pytest.raises(QuadratureError, match="evolution diverged at step 2$"):
            evolve(basis_state(0), S, 3)

    def test_accepts_state_on_equal_basis(self, steps):
        # a state built on its own cylinder_basis(N) call, as basis_state does, is stepped
        # with a step matrix built on another call
        state = basis_state(1)
        out = evolve(state, steps[0.05], 2)[-1]
        assert out.basis is state.basis
        assert np.abs(out.coeffs - steps[0.05] @ steps[0.05] @ state.coeffs).max() < 1e-12


# Gram-norm error at t = 0.5 in 16 steps of the random state below, measured when the
# step matrix was summed on the Gauss-Hermite grid: the error is the method's, not the
# quadrature's, so raising the order from 64 to 96 leaves it in place
METHOD_ERROR = {64: 0.43239, 96: 0.43248}


def test_method_bound_error():
    gram = gram_matrix(cylinder_basis(N))
    rng = np.random.default_rng(1)
    phi = HoloState(gram.basis, rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1))
    phi = HoloState(gram.basis, phi.coeffs / state_norm(phi, gram))
    H = hamiltonian_free(N)
    exact = evolve_exact(phi, H, 0.5)
    errs = {}
    for order, expected in METHOD_ERROR.items():
        out = trajectory(phi, H, 0.5, 16, order)[-1]
        errs[order] = state_norm(HoloState(gram.basis, out.coeffs - exact.coeffs), gram)
        assert errs[order] == pytest.approx(expected, rel=0.01), order
    assert errs[64] == pytest.approx(errs[96], rel=0.01)


class TestEvolveExact:
    def test_zero_time(self):
        phi = basis_state(3)
        out = evolve_exact(phi, hamiltonian_free(N), 0.0)
        assert np.array_equal(out.coeffs, phi.coeffs)

    def test_mode_one_phase(self):
        phi = basis_state(1)
        out = evolve_exact(phi, hamiltonian_free(N), math.pi)
        assert out.coeffs[N + 1] == pytest.approx(-1j)

    def test_moduli_preserved(self):
        rng = np.random.default_rng(13)
        phi = HoloState(cylinder_basis(N), rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1))
        out = evolve_exact(phi, hamiltonian_free(N), 1.3)
        assert np.abs(np.abs(out.coeffs) - np.abs(phi.coeffs)).max() < 1e-14

    def test_rejects_non_diagonal(self):
        from holoflat import ladder_raise

        with pytest.raises(ValidationError, match="use evolve"):
            evolve_exact(basis_state(0), ladder_raise(N), 1.0)


class TestGreensWinding:
    def test_single_term(self):
        T = 0.05 - 0.05j  # short enough that the nearest other windings add below 1e-80
        val = greens_winding(0.3, 0.3, T, n_max=0)
        assert val == pytest.approx(1 / cmath.sqrt(2 * math.pi * 1j * T))

    def test_shift_invariance(self):
        T = 1 - 0.05j
        a = greens_winding(0.7 + 2 * math.pi, 0.0, T, n_max=60)
        b = greens_winding(0.7, 0.0, T, n_max=60)
        assert abs(a - b) < 1e-8

    def test_heat_regime_matches_theta(self):
        # T = -i: the winding sum equals the t = 1 periodic heat kernel at 0, the mode sum
        val = greens_winding(0.0, 0.0, -1j, n_max=10)
        ref = np.real(cylinder._mode_sum(np.array(0.0), complex(0.0, -1.0), 12))
        assert abs(val - ref) < 1e-12

    def test_divergent_regime_error(self):
        with pytest.raises(ValidationError, match="regularize"):
            greens_winding(0.1, 0.0, 1.0, n_max=10)

    def test_tiny_time(self):
        # |T|^2 is 0 below |T| ~ 1.5e-162; the tail bound, which divided by it, raised
        # ZeroDivisionError.  Every winding but the nearest underflows to 0
        T = 1e-200 * (1 - 0.05j)
        at, off = greens_winding(np.array([0.0, 0.5]), 0.0, T, n_max=40)
        assert at == 1 / cmath.sqrt(2 * math.pi * 1j * T)
        assert abs(at) == pytest.approx(3.99e99, rel=1e-3) and off == 0

    @pytest.mark.parametrize("T", [complex(math.nan, -0.05), complex(1, -math.inf), math.inf])
    def test_rejects_nonfinite_time(self, T):
        with pytest.raises(ValidationError, match="finite"):
            greens_winding(0.1, 0.0, T, n_max=10)
        with pytest.raises(ValidationError, match="finite"):
            greens_spectral(0.1, 0.0, T, M=10)


GREEN_SUMS = [(greens_winding, "winding sum"), (greens_spectral, "mode sum")]


@pytest.mark.parametrize("sums, name", GREEN_SUMS, ids=["winding", "spectral"])
@pytest.mark.parametrize(
    "theta, theta0",
    [(0.1, math.nan), (0.1, math.inf), (0.1, -math.inf), (np.array([0.1, math.nan]), 0.0)],
    ids=["theta0-nan", "theta0-inf", "theta0-minus-inf", "theta-nan"],
)
def test_green_sums_refuse_nonfinite_angles(sums, name, theta, theta0):
    with pytest.raises(ValidationError, match="theta and theta0 must be finite"):
        sums(theta, theta0, 1 - 0.05j, 40)


@pytest.mark.parametrize("sums, name", GREEN_SUMS, ids=["winding", "spectral"])
@pytest.mark.parametrize(
    "theta0, T",
    [(1e308, 1 - 0.05j), (0.0, 1e308 * (1 - 0.05j))],
    ids=["theta0-1e308", "T-real-1e308"],
)
def test_green_sums_refuse_nonfinite_values(sums, name, theta0, T):
    # an overflow of the terms is one error, with no numpy warning (they are errors here)
    thetas = np.linspace(-math.pi, math.pi, 4, endpoint=False)
    with pytest.raises(QuadratureError, match=f"^{name} not finite at T="):
        sums(thetas, theta0, T, 40)


def winding_by_theta(theta, theta0, T, n_max):
    """The winding sum at one theta, as a scalar loop: the reference."""
    n = np.arange(-n_max, n_max + 1)
    pref = 1.0 / cmath.sqrt(2 * math.pi * 1j * T)
    return complex(pref * np.sum(np.exp(1j * (theta - theta0 + 2 * math.pi * n) ** 2 / (2 * T))))


def spectral_by_theta(theta, theta0, T, M):
    """The mode sum at one theta, as a scalar loop: the reference."""
    k = np.arange(-M, M + 1)
    return complex(
        np.sum(np.exp(1j * k * (theta - theta0) - 1j * k**2 * T / 2.0)) / (2 * math.pi)
    )


@pytest.mark.parametrize(
    "theta0, T", [(0.7312, 1 - 0.05j), (-2.9, (1 - 0.3j) * (1 - 0.05j)), (0.0, 3 * (1 - 0.2j))]
)
def test_green_sums_on_theta_array_equal_scalar_loop(theta0, T):
    # each row is summed on its own, so every value keeps its bits
    thetas = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    pairs = [(greens_winding, winding_by_theta), (greens_spectral, spectral_by_theta)]
    for sums, by_theta in pairs:
        got = sums(thetas, theta0, T, 40)
        assert got.shape == thetas.shape
        assert got.tolist() == [by_theta(float(th), theta0, T, 40) for th in thetas]
        scalar = sums(float(thetas[5]), theta0, T, 40)
        assert type(scalar) is complex and scalar == got[5]


@pytest.mark.parametrize(
    "sums, name, T, need",
    [
        (greens_spectral, "M", 1 - 0.001j, 194),
        (greens_spectral, "M", 1 - 0.05j, 26),
        (greens_winding, "n_max", 1000 * (1 - 0.05j), 128),
        (greens_winding, "n_max", 1 - 0.05j, 4),
    ],
)
def test_green_sum_tail_bound_from_both_sides(sums, name, T, need):
    # refused one below the named cutoff, accepted at it, and then within the tolerance
    # of the converged sum
    thetas = np.linspace(-math.pi, math.pi, 16, endpoint=False)
    message = f"tail .* above tolerance .*; increase {name} to {need}$"
    with pytest.raises(QuadratureError, match=message):
        sums(thetas, 0.3, T, need - 1)
    converged = sums(thetas, 0.3, T, 4 * need)
    assert np.abs(sums(thetas, 0.3, T, need) - converged).max() <= cylinder._TAIL_TOL


def test_winding_tail_counts_complex_differences():
    # Im d = 0.5 makes the bound on the windings rise up to |u| = 0.5 |Re T| / |Im T| = 10,
    # beyond the one winding of n_max = 0; at the named cutoff the sum meets the mode sum
    T, d = 1 - 0.05j, np.array([0.3 + 0.5j])
    with pytest.raises(QuadratureError, match="winding-sum tail inf .*; increase n_max to 6$"):
        cylinder._winding_sum(d, T, 0)
    winding = cylinder._winding_sum(d, T, 6)
    assert abs(winding - cylinder._mode_sum(d, T, 40))[0] <= 2 * cylinder._TAIL_TOL


class TestGreensSpectral:
    def test_matches_winding(self):
        T = 1 - 0.05j
        for th in np.linspace(-math.pi, math.pi, 8, endpoint=False):
            gw = greens_winding(float(th), 0.0, T, n_max=40)
            gs = greens_spectral(float(th), 0.0, T, M=40)
            assert abs(gw - gs) < 1e-8

    def test_theta_integral_is_one(self):
        # only the k = 0 mode survives integration over a period
        T = 1 - 0.05j
        thetas = np.linspace(-math.pi, math.pi, 128, endpoint=False)
        vals = np.array([greens_spectral(float(th), 0.0, T, M=40) for th in thetas])
        integral = vals.sum() * 2 * math.pi / len(thetas)
        assert integral == pytest.approx(1.0, abs=1e-10)

    def test_tail_error(self):
        with pytest.raises(QuadratureError, match="increase M"):
            greens_spectral(0.0, 0.0, 1 - 0.001j, M=5)

    def test_single_mode_phase_consistency(self):
        # mode k evolves by e^{-i k^2 t / 2}, the phase entering the mode sum
        t = 0.7
        phi = basis_state(3)
        out = evolve_exact(phi, hamiltonian_free(N), t)
        phase = out.coeffs[N + 3]
        assert phase == pytest.approx(cmath.exp(-1j * 9 * t / 2))
