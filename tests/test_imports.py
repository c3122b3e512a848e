"""The package exports what it lists, and the CLI loads only numpy and the
standard library."""

import importlib
import json
import os
import re
import subprocess
import sys
from importlib import metadata

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs every subcommand but validate in one fresh interpreter and prints the
# top-level modules that importing and running the CLI added to sys.modules.
SCRIPT = """
import json, sys
before = {m.partition(".")[0] for m in sys.modules}
from holoflat.cli import run
out = sys.argv[1]
commands = [
    ["gram"], ["gram", "--quadrature", "--quad-order", "16"], ["orthonormalize"],
    ["kernel"], ["heatkernel"], ["ladder"], ["greens"],
    ["evolve", "--quad-order", "8", "--steps", "2"],
]
codes = [run(argv + ["--output", out]) for argv in commands]
after = {m.partition(".")[0] for m in sys.modules}
print(json.dumps({"codes": codes, "loaded": sorted(after - before)}))
"""


MODULES = ("errors", "quadrature", "hilbert", "cylinder", "operators", "propagator", "validation", "io")


@pytest.mark.parametrize("name", ("holoflat",) + tuple(f"holoflat.{m}" for m in MODULES))
def test_all_names_resolve(name):
    # a name left in __all__ after its object is deleted breaks star-imports
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing


def test_star_import():
    namespace = {}
    exec("from holoflat import *", namespace)
    assert set(importlib.import_module("holoflat").__all__) <= set(namespace)


# The package's public surface; edit it with the module __all__ that changes it.
PUBLIC = {
    "__version__",
    "ValidationError", "QuadratureError", "FactorizationError",
    "DEFAULT_ORDER", "hermite_rule", "tangent_nodes",
    "BasisSpec", "GramData", "KernelRep", "HoloState", "bargmann_monomial_basis",
    "inner_product", "gram_matrix", "orthonormalize", "alternating_ordering",
    "reproducing_kernel", "orthonormal_series_kernel", "project", "state_norm",
    "DEFAULT_N", "HeatKernelParams", "cylinder_basis", "gram_closed", "heat_rho",
    "heat_rho_winding", "heat_kernel_formula", "calibrate_heat_kernel",
    "ladder_lower", "ladder_raise", "hamiltonian_free", "to_orthonormal_frame",
    "adjointness_residual",
    "step_matrix", "evolve", "evolve_exact", "greens_winding", "greens_spectral",
    "CriterionResult", "run_criteria",
}


def test_public_surface():
    exported = importlib.import_module("holoflat").__all__
    assert len(PUBLIC) == 40
    assert len(exported) == len(set(exported))
    assert set(exported) == PUBLIC


def _declared_distributions() -> set[str]:
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("_", "-") for d in deps}


def test_cli_loads_only_declared_dependencies(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0] * 8
    loaded = set(report["loaded"])
    assert "scipy" not in loaded
    third_party = {m for m in loaded if m not in sys.stdlib_module_names and m != "holoflat"}
    owners = metadata.packages_distributions()
    declared = _declared_distributions()
    for module in sorted(third_party):
        dists = {d.lower().replace("_", "-") for d in owners.get(module, [module])}
        assert dists & declared, f"{module} is loaded but not declared in pyproject.toml"
