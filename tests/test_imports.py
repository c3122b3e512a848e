"""The package exports what it lists, and the CLI loads only numpy and the
standard library."""

import ast
import graphlib
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
    ["evolve", "--truncation", "1", "--quad-order", "8", "--steps", "2"],
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
    "DEFAULT_ORDER", "plane_wave_moments", "tangent_grid",
    "BasisSpec", "GramData", "KernelRep", "HoloState", "bargmann_monomial_basis",
    "gram_matrix", "grid_gram", "orthonormalize",
    "reproducing_kernel", "orthonormal_series_kernel", "state_norm",
    "DEFAULT_N", "HeatKernelParams", "cylinder_basis",
    "heat_kernel_formula",
    "ladder_lower", "ladder_raise", "hamiltonian_free",
    "adjointness_residual",
    "step_matrix", "evolve", "evolve_exact", "greens_winding", "greens_spectral",
    "CriterionResult", "run_criteria",
}


def test_public_surface():
    exported = importlib.import_module("holoflat").__all__
    assert len(PUBLIC) == 33
    assert len(exported) == len(set(exported))
    assert set(exported) == PUBLIC


def readme_code_figures() -> tuple[int, int]:
    """The README's two figures of the code: the library's line count and the number
    of names the package exports."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    lines = re.search(r"The library itself\s+is ([\d,]+) lines", text).group(1)
    names = re.search(r"exports exactly\s+its (\d+) listed names", text).group(1)
    return int(lines.replace(",", "")), int(names)


def test_readme_code_figures():
    package = os.path.join(ROOT, "src", "holoflat")
    count = 0
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename)) as fh:
                count += len(fh.readlines())
    assert readme_code_figures() == (count, len(PUBLIC))


def _package_trees() -> dict[str, ast.Module]:
    """The syntax tree of each module of the package, by module name."""
    package = os.path.join(ROOT, "src", "holoflat")
    trees = {}
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename)) as fh:
                trees[filename[:-3]] = ast.parse(fh.read())
    return trees


def _sibling_imports(tree: ast.Module) -> list[tuple[str | None, str]]:
    """(module, name) of every ``from .module import name`` and ``from . import name``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_no_private_name_crosses_a_module():
    # The benchmark's tracer wraps only the names in each module's __all__, so a call
    # through a private name taken from a sibling module would be invisible to it
    crossing = [
        (importer, module, name)
        for importer, tree in _package_trees().items()
        for module, name in _sibling_imports(tree)
        if module and name.startswith("_") and not name.startswith("__")
    ]
    assert not crossing, crossing


# The sibling modules each lower layer may import: the path integral takes any basis
# with a closed-form Gram matrix and knows neither the circle nor its operators.
LAYERS = {
    "errors": set(),
    "quadrature": {"errors"},
    "hilbert": {"errors", "quadrature"},
    "cylinder": {"errors", "hilbert"},
    "propagator": {"errors", "hilbert", "quadrature"},
}


def _import_graph() -> dict[str, set[str]]:
    """The sibling modules each module of the package imports, ``__init__`` left out."""
    trees = _package_trees()
    del trees["__init__"]
    return {
        importer: {module or name for module, name in _sibling_imports(tree)} & set(trees)
        for importer, tree in trees.items()
    }


def test_module_layering():
    graph = _import_graph()
    assert {m: graph[m] for m in LAYERS} == LAYERS
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert set(order) == set(graph)


def _loads_outside_definitions() -> set[str]:
    """Every name the package's modules load, as a name or an attribute, outside the
    top-level statement of the module that binds it."""
    loaded = set()
    for tree in _package_trees().values():
        for statement in tree.body:
            targets = getattr(statement, "targets", [getattr(statement, "target", None)])
            bound = {getattr(statement, "name", None)}
            bound |= {target.id for target in targets if isinstance(target, ast.Name)}
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in bound:
                    loaded.add(name)
    return loaded


def test_every_export_has_a_caller():
    # a public name that no program path uses is API that only tests call
    loaded = _loads_outside_definitions()
    unused = [
        f"{m}.{name}"
        for m in MODULES
        for name in importlib.import_module(f"holoflat.{m}").__all__
        if name not in loaded
    ]
    assert not unused, unused


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
