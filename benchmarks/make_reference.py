"""Record the reference values the benchmark checks outputs against.

Run from the root of a checkout: ``python3 benchmarks/make_reference.py``.
It takes about 20 s and rewrites ``benchmarks/reference.json`` from the
current ``src/``.  Only rerun it when a change is meant to alter these
results; the point of the file is to catch changes that are not.

Recorded: the order-128 step matrix of ``holoflat evolve`` (its history for
any seeded initial state is ``S^k c0``), a sample of the 256-point kernel
grid, the 16-point heat-kernel grid and the raising matrix of ``ladder``.
"""

import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import holoflat.cli  # noqa: E402
from holoflat.cylinder import cylinder_basis, cylinder_chart  # noqa: E402
from holoflat.hilbert import gram_matrix, reproducing_kernel  # noqa: E402
from holoflat.operators import hamiltonian_free  # noqa: E402
from holoflat.propagator import step_matrix  # noqa: E402
from holoflat.quadrature import gaussian_rule  # noqa: E402

import workloads  # noqa: E402


def _pairs(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _cli(argv: list[str], path: str) -> None:
    rc = holoflat.cli.run(argv + ["--output", path])
    if rc != 0:
        raise SystemExit(f"holoflat {' '.join(argv)} exited {rc}")


def _src_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join("src", "holoflat")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def main() -> None:
    basis = cylinder_basis(checks.N)
    gram = gram_matrix(basis)
    S = step_matrix(
        reproducing_kernel(gram, basis),
        hamiltonian_free(checks.N),
        workloads.EVOLVE_T / workloads.EVOLVE_STEPS,
        cylinder_chart(),
        gaussian_rule(2, workloads.EVOLVE_ORDER),
    )
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        path = os.path.join(tmp, "out")
        _cli(["kernel", "--grid-points", str(checks.KERNEL_POINTS), "--format", "json"], path)
        with open(path) as fh:
            V = checks.pairs_to_array(json.load(fh)["values"])
        kernel_sample = V[np.ix_(checks.KERNEL_SAMPLE, checks.KERNEL_SAMPLE)]
        _cli(workloads.HEATKERNEL_ARGV, path)
        _, _, heat = checks.parse_matrix_csv(checks.read_csv(path))
        _cli(["ladder"], path)
        rows = checks.read_csv(path)
        _, _, raised = checks.parse_matrix_csv(rows[rows.index(["raise"]) + 1 : -1])
    ref = {
        "src_sha256": _src_digest(),
        "evolve_step_matrix": _pairs(S),
        "kernel_sample": _pairs(kernel_sample),
        "heatkernel": _pairs(heat),
        "ladder_raise": _pairs(raised),
    }
    with open(checks.REFERENCE_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in ref.items()) + "\n}\n")


if __name__ == "__main__":
    main()
