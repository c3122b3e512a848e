"""Path-integral time evolution.

One short-time step multiplies the reproducing kernel by a bounded rational
approximation of the phase ``e^{-i Delta K_H / K}`` and projects back onto
the truncated span; finite-time evolution iterates the precomputed step
matrix.  The module imports nothing of the circle: the step takes any basis
with a closed-form Gram matrix, integrated on the tangent grid.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import threading

import numpy as np

from .errors import QuadratureError, ValidationError
from .hilbert import BasisSpec, HoloState, gram_matrix
from .quadrature import tangent_grid

__all__ = ["step_matrix", "evolve", "evolve_exact"]

DIVISION_GUARD = 1e-12  # a summed node pair needs |K| >= DIVISION_GUARD * |K_H|
_TILE = (64, 512)  # node-pair rows x columns per tile; 0.5 MB per complex buffer
_MAX_WORKERS = 8  # threads summing row strips, each with its own 2.1 MB of tile buffers
MAX_STEP_ORDER = 256  # the node-pair sum grows as order^4, even after pruning


def step_matrix(basis: BasisSpec, H: np.ndarray, delta, order: int) -> np.ndarray:
    """Coefficient-space matrix of one short-time step of length ``delta`` under the
    Hamiltonian matrix ``H`` on ``basis``, integrated on the order-``order`` tangent grid.

    The kernel ``K`` has ``mid = G^-1``, G the closed-form Gram matrix of ``basis``, and
    ``K_H`` has ``H @ mid``.  Column ``k`` is the projection of the step applied to basis
    element ``k``.  At ``delta = 0`` it is ``(G^-1 G_q)^2``, ``G_q`` the grid's Gram
    matrix: the identity only where the rule resolves the basis (max ``|G^-1 G_q - I|``
    is 4.5e-6 at N = 8 and 1.0 at N = 12, order 64).  Node pairs are summed in ``_TILE``
    blocks, one strip of ``_TILE[0]`` node rows at a time, by W workers: the calling thread
    and W - 1 threads.  W is the thread count of the OpenBLAS numpy links (its usable CPUs,
    or fewer if ``OPENBLAS_NUM_THREADS`` asks: ``OPENBLAS_NUM_THREADS=1`` gives one worker),
    at most the strips and ``_MAX_WORKERS`` = 8, and 1 where numpy links no OpenBLAS whose
    count can be held to one; it is read through numpy's own extension, no ``/proc`` file.
    The whole step, from the Gram matrix and the grid through the sum to the solves, runs
    in ``one_blas_thread``'s hold, so no BLAS helper woken by the prep spins on the
    workers' cores.  Each strip keeps its own sums, and they are added in strip order, so the
    result has the same bits for every W.  Each worker has its own buffers, projections
    included, allocated once: memory O(order^2 * basis size) plus 2.1 MB per worker.  A
    summed pair with ``|K| < DIVISION_GUARD * |K_H|`` raises QuadratureError (the first
    strip's to fail, as in a serial sum), and so does a non-finite sum.  Only the Pade
    factor below depends on ``delta``: a 1-D array of deltas shares the grid, folds,
    pruning and each tile's ``K``, ``K_H`` and guard, and gives the stacked matrices, each
    bit for bit its float call's.  A ``delta`` not finite, empty or above 1-D, and an ``H``
    not a finite square matrix of the basis size, raise ValidationError, an order above
    ``MAX_STEP_ORDER`` QuadratureError, before any grid is built.

    Symmetry.  The Gaussian measure is even under the mirror J: z -> -z and the
    conjugation sigma: z -> -conj(z), and the grid declares both as node permutations
    (``grid.mirror``, ``grid.conj``).  J applies if weights and basis are exactly even
    under it (labels k -> -k), and ``mid`` and ``H`` to 1e-14; sigma applies if
    ``w[sigma] == w`` and ``Phi[sigma] == conj(Phi)`` exactly, and ``mid`` and
    ``H @ mid`` are real to 1e-14.  The applicable reflections generate a group of 1, 2
    or 4 elements.  Pair ``(gi, gj)`` then adds what pair ``(i, j)`` adds, with labels
    permuted by J or conjugated with ``delta -> -delta`` by sigma, so only one node row
    per orbit is summed, weighted |orbit| / |group|: 1, except for nodes fixed by a
    reflection (at odd orders ½ on the axes, ¼ at the origin).  An image pair needs no
    guard: its |K| and |K_H| are those of the pair it mirrors.  Other inputs sum all M
    node rows.

    Pruning.  Only pairs with ``s_i s_j > thr = 2^-53 / M^2 * (sum_k s_k)^2`` are summed,
    ``s_i = w_i |Phi_i|^2`` maximised over the orbit of ``i`` and ``M = order^2``
    (pruned Gauss-Hermite quadrature, by pair).  A pair ``(i, j)`` adds at most
    ``s_i s_j ||mid||_2 |R_ij|`` to each entry of the pair sum before the Gram solve,
    ``R_ij`` the Pade factor below (unimodular for real arguments); so the at most
    ``M^2`` dropped pairs and their images add less than
    ``2^-53 (sum_k s_k)^2 ||mid||_2 |R|``, one unit round-off of the sum of all pairs'
    bounds.  That is the scale of the pair sum's own rounding error: recursive summation
    errs by up to about ``2^-53 sum |x_i|`` (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 4.2).  The rule is scale-free, so ``s`` is divided by its
    largest entry first and ``thr`` cannot overflow.  Rows and columns run in decreasing
    ``s``, and each row tile sums the column prefix that its first row needs.  A
    non-finite ``s_i`` raises QuadratureError.  At N = 8 order 64 computes 1,641,056 pairs
    and order 128 10,585,092.
    """
    deltas = np.asarray(delta, dtype=float)
    if deltas.ndim > 1 or not deltas.size:
        raise ValidationError(f"delta must be a float or 1-D and nonempty, got shape {deltas.shape}")
    if not np.isfinite(deltas).all():
        raise ValidationError(f"evolution time must be finite, got time step delta={delta}")
    if order > MAX_STEP_ORDER:
        raise QuadratureError(
            f"quadrature order {order} above the step-matrix limit {MAX_STEP_ORDER} "
            "(the node-pair sum grows as order^4)"
        )
    H = np.asarray(H, dtype=complex)
    if H.shape != (basis.size,) * 2:
        raise ValidationError(f"Hamiltonian shape {H.shape} is not ({basis.size}, {basis.size})")
    if not np.isfinite(H).all():
        raise ValidationError("Hamiltonian entries must be finite")
    with one_blas_thread() as blas_threads:  # from the first BLAS call to the solves
        gram = gram_matrix(basis)
        grid = tangent_grid(order)
        w, Phi = grid.w, basis.design_matrix(grid.z)
        s = w * np.einsum("ik,ik->i", Phi, np.conj(Phi)).real
        if not np.isfinite(s).all():
            raise QuadratureError(
                f"basis values or weights not finite on the order-{order} quadrature grid"
            )
        M, nb = Phi.shape
        mid = gram.inverse()
        Hmid = H @ mid
        # J maps label k to -k; the grid declares the node permutations of J and sigma.
        # Phi is compared column by column, so no second M x nb array
        J = [basis.labels.index(-k) if -k in basis.labels else None for k in basis.labels]
        mirror = (
            None not in J
            and np.array_equal(w[grid.mirror], w)
            and all(np.array_equal(Phi[grid.mirror, a], Phi[:, j]) for a, j in enumerate(J))
            and all(abs(m[J][:, J] - m).max() <= 1e-14 * abs(m).max() for m in (mid, H))
        )
        conj = (
            np.array_equal(w[grid.conj], w)
            and all(np.array_equal(Phi[grid.conj, a], np.conj(Phi[:, a])) for a in range(nb))
            and all(abs(m.imag).max() <= 1e-14 * abs(m).max() for m in (mid, Hmid))
        )
        # the images of every node under the group the applicable reflections generate
        images = [grid.mirror] * mirror + [grid.conj, grid.mirror[grid.conj]][: 1 + mirror] * conj
        group = [np.arange(M)] + images
        orbit = np.sort(group, axis=0)
        weight = (1 + np.count_nonzero(np.diff(orbit, axis=0), axis=0)) / len(group)
        s = s[orbit].max(axis=0)
        s /= s.max()  # in [0, 1], so the threshold cannot overflow
        thr = 2.0**-53 / M**2 * s.sum() ** 2
        cols = np.argsort(-s, kind="stable")
        cols = cols[s[cols] * s[cols[0]] > thr]  # the nodes in some summed pair, decreasing s
        rows = np.flatnonzero(orbit[0, cols] == cols)  # one per orbit, as positions in cols
        s, w, Phi, weight = s[cols], w[cols], Phi[cols], weight[cols]
        A, B = Phi[rows] @ mid, Phi[rows] @ Hmid
        wPhi = w[:, None] * Phi
        wPhiH = np.conj(wPhi[rows]).T * weight[rows]
        PhiT_conj = np.conj(Phi).T
        del Phi  # the pruned basis values: A, B, wPhi and PhiT_conj are all the sum reads
        steps = deltas.reshape(-1).tolist()

        def strip(i0, buffers):
            """Per delta, the sums of b and of its sigma image over the row strip at ``i0``."""
            K, KH, E, D, absK, absKH, bad, P, Q = buffers
            sums = np.zeros((2, len(steps), nb, nb), dtype=complex)
            n_cols = np.count_nonzero(s * s[rows[i0]] > thr)  # the first row's columns
            for j0 in range(0, n_cols, _TILE[1]):
                r, c = slice(i0, i0 + _TILE[0]), slice(j0, min(j0 + _TILE[1], n_cols))
                t = np.s_[: min(_TILE[0], len(rows) - i0), : c.stop - j0]
                k, kh, e, ak, akh, p = K[t], KH[t], E[t], absK[t], absKH[t], P[t[0]]
                np.matmul(A[r], PhiT_conj[:, c], out=k)
                np.matmul(B[r], PhiT_conj[:, c], out=kh)
                np.multiply(np.abs(kh, out=akh), DIVISION_GUARD, out=akh)
                if np.less(np.abs(k, out=ak), akh, out=bad[t]).any():
                    raise QuadratureError(
                        f"kernel magnitude |K|={ak[bad[t]][0]:.3e} below guard "
                        f"{DIVISION_GUARD:.1e}*|K_H|={akh[bad[t]][0]:.3e} at a node pair"
                    )
                for n, dt in enumerate(steps):
                    # K (K - a K_H) / (K + a K_H), a = i Delta / 2, is K times the Pade (1,1)
                    # approximant of e^{-ix} at x = Delta K_H / K: unimodular for real x,
                    # O(x^3) from the exponential, and bounded where x blows up near kernel
                    # zeros (the continuum phase integral diverges; the exponential overflows).
                    # the last scales K_H in place: one delta never writes D, so its
                    # memory is never paged in (evolve-128 peak RSS +0.65 MB otherwise)
                    d = D[t] if n < len(steps) - 1 else kh
                    np.multiply(kh, 0.5j * dt, out=d)
                    np.subtract(k, d, out=e)  # overwrites |K| and |K_H|, read only by the guard
                    d += k
                    e /= d
                    if conj:  # the sigma image: K over this factor is K times the one at -Delta
                        np.divide(k, e, out=d)
                        sums[1, n] += np.matmul(wPhiH[:, r], np.matmul(d, wPhi[c], out=p), out=Q)
                    e *= k  # then the step of each basis element, projected
                    sums[0, n] += np.matmul(wPhiH[:, r], np.matmul(e, wPhi[c], out=p), out=Q)
            return sums

        strips = range(0, len(rows), _TILE[0])  # never empty: the largest s heads an orbit
        workers = min(blas_threads, len(strips), _MAX_WORKERS)
        b, bimg = _sum_in_order(strip, strips, [_tile_buffers(nb) for _ in range(workers)])
        with np.errstate(over="ignore", invalid="ignore"):
            b += np.conj(bimg)
            if mirror:
                b += b[:, J][:, :, J]  # the rows not summed are mirror images of summed ones
        for dt, bd in zip(steps, b):
            if not np.isfinite(bd).all():
                raise QuadratureError(f"step matrix not finite at time step delta={dt:.3e}")
        return np.array([gram.solve(bd) for bd in b]) if deltas.ndim else gram.solve(b[0])


def _tile_buffers(nb: int) -> tuple:
    """One strip worker's buffers: K, K_H, the Pade factor E and D as complex tiles, |K| and
    |K_H| as the two float planes of E's bytes (E is written only after the guard has read
    them), the guard's mask and the two projection buffers."""
    K, KH, E, D = (np.empty(_TILE, dtype=complex) for _ in range(4))
    absK, absKH = E.view(float).reshape(2, *_TILE)
    P, Q = np.empty((_TILE[0], nb), dtype=complex), np.empty((nb, nb), dtype=complex)
    return K, KH, E, D, absK, absKH, np.empty(_TILE, dtype=bool), P, Q


def _sum_in_order(strip, strips, pool: list):
    """The sum of ``strip(i, buffers)`` over ``strips``, added in the order of ``strips``
    whichever worker computed each, so it has the same bits for any number of workers.
    The calling thread and ``len(pool) - 1`` threads take strips from a shared counter,
    each with its own entry of ``pool``; a strip computed ahead of an earlier one waits for
    it.  A strip that raises stops the workers taking new ones, and after the join the
    exception of the first strip that failed is raised: every strip before it was taken
    and finished, so it is the one a serial loop would raise."""
    lock, taken, done, failed = threading.Lock(), itertools.count(), {}, {}
    added, total = 0, 0.0

    def work(buffers):
        nonlocal added, total
        # numpy's error state is context-local: a thread does not inherit the caller's.
        # Overflow is not an error here; the caller checks the sum is finite
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while not failed:
                with lock:
                    n = next(taken)
                if n >= len(strips):
                    return
                try:
                    part = strip(strips[n], buffers)
                except BaseException as exc:  # re-raised after the join, interrupts too
                    failed[n] = exc
                    return
                with lock:
                    done[n] = part
                    while added in done:  # 0.0 + the first strip, then in place
                        total = np.add(total, done.pop(added), out=None if added == 0 else total)
                        added += 1

    threads = [threading.Thread(target=work, args=(buffers,)) for buffers in pool[1:]]
    try:
        for thread in threads:
            thread.start()
        work(pool[0])
    except BaseException as exc:  # a thread that did not start, or an interrupt: stop all
        failed[-1] = exc
        raise
    finally:
        for thread in threads:
            if thread.is_alive():
                thread.join()
    if failed:
        raise failed[min(failed)]
    return total


# the thread-count getter and setter of each OpenBLAS build numpy wheels link
_OPENBLAS_THREADS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS numpy links, or None where it
    links none: looked up on numpy's linear-algebra extension, already loaded, whose
    symbol lookup also searches the libraries it links."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for names in _OPENBLAS_THREADS:
        get, set_ = (getattr(lib, name, None) for name in names)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


# One hold at a time, re-entered by its own thread: the count is one per process, and two
# interleaved holds would restore one thread as the count
_BLAS_HELD = threading.RLock()
_held = []  # the count the outermost hold read, while a hold is on


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS to one thread inside the block and restore its count after;
    yield the count it read, or 1 where numpy links no OpenBLAS thread-count pair.  A hold
    inside a hold of the same thread yields the outermost hold's count and changes nothing,
    so ``step_matrix`` under ``cli.run``'s hold still reads the count it may use as
    workers.  Other threads wait for the hold to end: each strip sum fills the cores alone.

    Spinning OpenBLAS threads take the cores that the strip workers need: at order 128,
    two workers took 0.76 s under two BLAS threads and 0.34 s under one.  A helper thread
    also spins for a while after each threaded call and setting the count does not stop
    it, so the hold starts before the first BLAS call that could wake one: the whole step,
    and the whole command in the CLI.  Under a hold around the sum alone, an order-128 step
    that first built its cold Hermite rule (an eigensolve) lost 0.09-0.17 s of helper-thread
    CPU to that spin; under a hold from its start, none (``BENCH_34.json``).  Every
    product in the hold has the one-thread bits, so CLI output does not depend on the
    host's CPU count."""
    pair = _openblas_threads()
    if pair is None:
        yield 1
        return
    get, set_ = pair
    with _BLAS_HELD:
        if _held:
            yield _held[0]
            return
        _held.append(get())
        set_(1)
        try:
            yield _held[0]
        finally:
            set_(_held.pop())


def evolve(state: HoloState, S: np.ndarray, n_steps: int) -> list[HoloState]:
    """The holomorphic Feynman product: ``state`` and ``n_steps`` applications of the step
    matrix ``S`` of its basis, ``n_steps + 1`` states.  With ``S`` the step of length ``t /
    n_steps``, the error against the exact evolution to ``t`` falls like ``1/n_steps``.  An
    ``S`` not square of the basis size raises ValidationError, a non-finite state
    QuadratureError."""
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    if np.shape(S) != (state.basis.size,) * 2:
        raise ValidationError(f"step matrix shape {np.shape(S)} is not {(state.basis.size,) * 2}")
    c = state.coeffs
    trajectory = [HoloState(state.basis, c)]
    with np.errstate(over="ignore", invalid="ignore"):  # one error, no warning first
        for step in range(n_steps):
            c = S @ c
            if not np.all(np.isfinite(c)):
                raise QuadratureError(f"evolution diverged at step {step + 1}")
            trajectory.append(HoloState(state.basis, c))
    return trajectory


def evolve_exact(state: HoloState, H: np.ndarray, t: float) -> HoloState:
    """Spectral evolution ``c_k -> e^{-i H_kk t} c_k`` for a diagonal
    Hamiltonian matrix.

    Each mode coefficient keeps its modulus exactly, so the evolution is
    unitary in the mode-coefficient norm (the pullback of the physical
    circle norm).
    """
    if np.any(H - np.diag(np.diag(H))):
        raise ValidationError("Hamiltonian is not diagonal; use evolve instead")
    phases = np.exp(-1j * np.diag(H) * t)
    return HoloState(state.basis, phases * state.coeffs)
