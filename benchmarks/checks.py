"""Output checks for every CLI invocation the benchmark makes.

Each check parses the file the CLI wrote and raises :class:`CheckError` when
the output is not the expected result.  Values that have a closed form are
checked against it; the rest against ``reference.json``, recorded from the
program at the commit that introduced the benchmark (regenerate it with
``make_reference.py``).  Reference tolerances are normwise relative 1e-9:
loose enough for reordered floating-point sums, tight enough to catch a
changed result.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import re

import numpy as np

N = 8  # the CLI's default truncation, used by every workload
LABELS = list(range(-N, N + 1))
REF_RTOL = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Kernel grid indices whose values are recorded in reference.json.
KERNEL_POINTS = 256
KERNEL_SAMPLE = list(range(0, KERNEL_POINTS, 15))

# The acceptance criteria in `holoflat validate` order, with the expected
# verdict and, per reported deviation, a pattern for it and its tolerance
# (the tolerances of src/holoflat/validation.py).  heat-kernel-formula is the
# documented failure: truncation at N = 8 limits it to about 9.8e-4.
CRITERIA = (
    ("gram-closed-forms", True, [(r"max relative error (\S+) ", 1e-10)]),
    ("orthonormalization", True, [(r"\| (\S+) \(algebra\)", 1e-8), (r", (\S+) \(quadrature\)", 1e-8)]),
    ("kernel-reproduction", True, [(r"\| (\S+) \(tol", 1e-6)]),
    (
        "kernel-construction-equivalence",
        True,
        [(r"series vs inverse ([^,]+),", 1e-8), (r"permuted order (\S+) ", 1e-8)],
    ),
    (
        "kernel-properties",
        True,
        [
            (r"hermitian (\S+) ", 1e-10),
            (r"composition (\S+) ", 1e-6),
            (r"bound excess ([^,]+),", 1e-12),
            (r"coherent equality (\S+) ", 1e-8),
        ],
    ),
    ("heat-kernel-formula", False, [(r"max relative deviation (\S+) ", 1e-4)]),
    ("theta-identity", True, [(r"max abs difference (\S+) ", 1e-12)]),
    (
        "ladder-adjointness",
        True,
        [(r"central-block residual ([^,]+),", 1e-8), (r"pairing deviation (\S+) ", 1e-8)],
    ),
    ("greens-equivalence", True, [(r"spectral difference (\S+) ", 1e-8)]),
    ("trotter-convergence", True, [(r"unitarity drift (\S+) ", 1e-12)]),
    ("bargmann-sanity", True, [(r"series (\S+) ", 1e-8), (r"exponential (\S+) ", 1e-4)]),
)
CRITERION_NAMES = tuple(name for name, _, _ in CRITERIA)
_PATTERNS = {name: patterns for name, _, patterns in CRITERIA}
TROTTER_WINDOW = (1.7, 2.3)


class CheckError(Exception):
    """The CLI output is not the expected result."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


@functools.cache
def reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def pairs_to_array(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _close(got: np.ndarray, want: np.ndarray, what: str, rtol: float = REF_RTOL) -> None:
    _require(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    _require(bool(np.all(np.isfinite(got))), f"{what}: non-finite values")
    err = float(np.abs(got - want).max())
    scale = float(np.abs(want).max())
    _require(err <= rtol * scale, f"{what}: max deviation {err:.3e} > {rtol:g} x {scale:.3e}")


def gram_closed() -> np.ndarray:
    k = np.arange(-N, N + 1)
    return np.exp(-((k[:, None] - k[None, :]) ** 2) / 2.0)


# ---------------------------------------------------------------- parsing


def _cell(text: str) -> complex:
    re_part, im_part = text.split(",")
    return complex(float(re_part), float(im_part))


def parse_matrix_csv(rows: list[list[str]]) -> tuple[list[str], list[str], np.ndarray]:
    """Rows of ``io.matrix_csv`` output: header, then labelled complex rows."""
    cols = rows[0][1:]
    row_labels = [r[0] for r in rows[1:]]
    values = np.array([[_cell(c) for c in r[1:]] for r in rows[1:]])
    return row_labels, cols, values


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _labels_ok(labels, what: str) -> None:
    _require([int(x) for x in labels] == LABELS, f"{what}: labels {labels[:3]}..., expected -8..8")


def _trailing_value(rows: list[list[str]], key: str) -> float:
    _require(len(rows[-1]) == 2 and rows[-1][0] == key, f"missing trailing {key} row")
    return float(rows[-1][1])


# ---------------------------------------------------------------- checks


def criterion_values(detail: str, name: str) -> list[tuple[float, float]]:
    """(deviation, tolerance) pairs parsed from a criterion's detail string."""
    out = []
    for pattern, tol in _PATTERNS[name]:
        m = re.search(pattern, detail)
        _require(m is not None, f"{name}: cannot parse {pattern!r} in {detail!r}")
        out.append((float(m.group(1)), tol))
    if name == "trotter-convergence":
        m = re.search(r"= \[([^\]]+)\]", detail)
        _require(m is not None, f"{name}: no convergence ratios in {detail!r}")
        lo, hi = TROTTER_WINDOW
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        for r in m.group(1).split(","):
            out.append((abs(float(r) - mid), half))
    return out


def worst(pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """The deviation closest to (or furthest past) its tolerance."""
    return max(pairs, key=lambda p: p[0] / p[1])


def check_validate(path: str, rc: int, _inputs: dict) -> dict:
    """Exit code 1 with exactly one FAIL, heat-kernel-formula; every reported
    deviation agrees with its verdict.  Returns the worst deviation and its
    tolerance per criterion."""
    _require(rc == 1, f"validate exited {rc}, expected 1 (one known failure)")
    with open(path) as fh:
        results = json.load(fh)
    names = tuple(r["name"] for r in results)
    _require(names == CRITERION_NAMES, f"criteria {names} differ from the expected eleven")
    values = {}
    for (name, expect_pass, _), r in zip(CRITERIA, results):
        _require(r["passed"] is expect_pass, f"{name}: passed={r['passed']}, expected {expect_pass}")
        pairs = criterion_values(r["detail"], name)
        within = all(v <= tol for v, tol in pairs)
        _require(within == expect_pass, f"{name}: deviations {pairs} disagree with the verdict")
        values[name] = worst(pairs)
    return values


def check_evolve(path: str, rc: int, inputs: dict) -> dict:
    """Finite history whose rows match S^k c0 with the recorded step matrix."""
    _require(rc == 0, f"evolve exited {rc}")
    with open(path) as fh:
        out = json.load(fh)
    steps, t = inputs["steps"], inputs["t"]
    hist = out["history"]
    _require(len(hist) == steps + 1, f"history has {len(hist)} rows, expected {steps + 1}")
    G = gram_closed()
    c = pairs_to_array(inputs["initial"]["coeffs"])
    c = c / math.sqrt(float(np.real(np.conj(c) @ G @ c)))
    S = pairs_to_array(reference()["evolve_step_matrix"])
    for i, row in enumerate(hist):
        _require(row["step"] == i and row["N"] == N, f"row {i}: step/N mismatch")
        _require(abs(row["time"] - i * t / steps) <= 1e-12, f"row {i}: time {row['time']}")
        got = pairs_to_array(row["coeffs"])
        _require(bool(np.all(np.isfinite(got))) and math.isfinite(row["norm"]), f"row {i}: not finite")
        _close(got, c, f"history row {i}")
        norm = math.sqrt(float(np.real(np.conj(got) @ G @ got)))
        _require(abs(row["norm"] - norm) <= 1e-9 * norm, f"row {i}: norm {row['norm']} != {norm}")
        c = S @ c
    return {}


def check_gram(path: str, rc: int, _inputs: dict) -> dict:
    """Quadrature Gram entries equal e^{-(p-q)^2/2}."""
    _require(rc == 0, f"gram exited {rc}")
    rows_l, cols, G = parse_matrix_csv(read_csv(path))
    _labels_ok(rows_l, "gram rows")
    _labels_ok(cols, "gram columns")
    exact = gram_closed()
    _require(bool(np.all(np.isfinite(G))), "gram: non-finite entries")
    err = float(np.abs(G - exact).max())
    _require(err <= 1e-12, f"gram: max absolute error {err:.3e} > 1e-12")
    inner = np.abs(np.array(LABELS)) <= 4
    rel = float((np.abs(G - exact) / exact)[np.ix_(inner, inner)].max())
    _require(rel <= 1e-10, f"gram: relative error {rel:.3e} > 1e-10 for |p|,|q| <= 4")
    return {}


def check_orthonormalize(path: str, rc: int, _inputs: dict) -> dict:
    """C^H G C = I against the closed-form Gram matrix."""
    _require(rc == 0, f"orthonormalize exited {rc}")
    rows = read_csv(path)
    residual = _trailing_value(rows, "orthonormality_residual")
    rows_l, cols, C = parse_matrix_csv(rows[:-1])
    _labels_ok(rows_l, "orthonormalize rows")
    _require(cols == [f"beta_{j}" for j in range(len(LABELS))], "orthonormalize: column labels")
    dev = float(np.abs(np.conj(C).T @ gram_closed() @ C - np.eye(len(LABELS))).max())
    _require(dev <= 1e-8 and residual <= 1e-8, f"orthonormalize: residual {dev:.3e} / {residual:.3e}")
    return {}


def check_kernel(path: str, rc: int, _inputs: dict) -> dict:
    """Hermitian kernel grid; sampled values equal the recorded reference."""
    _require(rc == 0, f"kernel exited {rc}")
    with open(path) as fh:
        out = json.load(fh)
    grid = np.asarray(out["grid"])
    want = np.linspace(-math.pi, math.pi, KERNEL_POINTS, endpoint=False)
    _require(grid.shape == want.shape and float(np.abs(grid - want).max()) <= 1e-14, "kernel: grid")
    V = pairs_to_array(out["values"])
    _require(V.shape == (KERNEL_POINTS, KERNEL_POINTS), f"kernel: shape {V.shape}")
    herm = float(np.abs(V - np.conj(V).T).max())
    _require(herm <= 1e-12 * float(np.abs(V).max()), f"kernel: not Hermitian ({herm:.3e})")
    sample = V[np.ix_(KERNEL_SAMPLE, KERNEL_SAMPLE)]
    _close(sample, pairs_to_array(reference()["kernel_sample"]), "kernel sample")
    return {}


def check_heatkernel(path: str, rc: int, _inputs: dict) -> dict:
    """Calibrated heat-kernel values equal the recorded reference."""
    _require(rc == 0, f"heatkernel exited {rc}")
    _, _, V = parse_matrix_csv(read_csv(path))
    _close(V, pairs_to_array(reference()["heatkernel"]), "heatkernel")
    return {}


def check_ladder(path: str, rc: int, _inputs: dict) -> dict:
    """Lowering is diag(ik); raising equals the reference; the adjointness
    residual is within criterion 8's tolerance."""
    _require(rc == 0, f"ladder exited {rc}")
    rows = read_csv(path)
    residual = _trailing_value(rows, "adjointness_residual")
    split = rows.index(["raise"])
    _require(rows[0] == ["lower"], "ladder: missing lower section")
    _, _, lower = parse_matrix_csv(rows[1:split])
    _, _, raised = parse_matrix_csv(rows[split + 1 : -1])
    _require(bool(np.array_equal(lower, np.diag(1j * np.array(LABELS, dtype=float)))), "ladder: lower")
    _close(raised, pairs_to_array(reference()["ladder_raise"]), "ladder raise")
    _require(residual <= 1e-8, f"ladder: adjointness residual {residual:.3e} > 1e-8")
    return {}


def greens_spectral(thetas: np.ndarray, theta0: float, T: complex, modes: int) -> np.ndarray:
    k = np.arange(-modes, modes + 1)
    phase = np.exp(1j * np.outer(thetas - theta0, k) - 1j * k**2 * T / 2.0)
    return phase.sum(axis=1) / (2 * math.pi)


def check_greens(path: str, rc: int, inputs: dict) -> dict:
    """Winding and spectral sums agree; the spectral column equals an
    independent mode sum; the difference column is |winding - spectral|."""
    _require(rc == 0, f"greens exited {rc}")
    rows = read_csv(path)
    header = ["theta", "winding_re", "winding_im", "spectral_re", "spectral_im", "difference"]
    _require(rows[0] == header, f"greens: header {rows[0]}")
    data = np.array(rows[1:], dtype=float)
    points = inputs["points"]
    _require(data.shape == (points, 6), f"greens: shape {data.shape}")
    thetas = np.linspace(-math.pi, math.pi, points, endpoint=False)
    _require(float(np.abs(data[:, 0] - thetas).max()) <= 1e-11, "greens: theta grid")
    _require(bool(np.all(np.isfinite(data))), "greens: non-finite values")
    wind = data[:, 1] + 1j * data[:, 2]
    spec = data[:, 3] + 1j * data[:, 4]
    diff = float(data[:, 5].max())
    _require(diff <= 1e-8, f"greens: winding/spectral difference {diff:.3e} > 1e-8")
    _require(float(np.abs(np.abs(wind - spec) - data[:, 5]).max()) <= 1e-12, "greens: difference column")
    T = 1.0 * (1 - 0.05j)  # the CLI defaults T-real 1, T-imag 0, epsilon 0.05
    want = greens_spectral(thetas, inputs["theta0"], T, 40)
    _require(float(np.abs(spec - want).max()) <= 1e-12, "greens: spectral sum differs from mode sum")
    return {}
