"""The three workloads: what each runs, with which seeded inputs, checked how.

One operation of a workload is a list of CLI invocations, each run in its
own fresh Python process, one at a time (closed loop, one client).

- ``validate``: the acceptance suite.  It touches every layer, and its
  criteria rebuild the same order-64 and order-128 grids, so caching node
  sets, Gram matrices or kernels shows here.  The criteria draw their sample
  points from their own pinned seed (``holoflat.validation._SEED``), so the
  benchmark seed does not change this workload's inputs.
- ``evolve-128``: path-integral evolution at quad order 128.  The O(order^4)
  step matrix is nearly all of its time and sets its peak memory; it builds
  one grid, so caching does almost nothing here.
- ``cli-sweep``: six short subcommands.  Start-up, one cold order-128
  Hermite rule, the extended-precision Gram and output writing dominate; the
  step matrix never runs, so this is the no-change control for propagator
  work and the workload where ``setup_s`` and ``io`` weigh most.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checks

EVOLVE_ORDER = 128
EVOLVE_STEPS = 16
EVOLVE_T = 0.5  # the CLI's default --t
GREENS_POINTS = 4096
HEATKERNEL_ARGV = ["heatkernel", "--grid-points", "16"]


@dataclass
class Invocation:
    """One CLI call: its arguments (``--output`` is appended), the exit code
    and output check, and the generated inputs the check needs."""

    label: str
    argv: list[str]
    check: Callable[[str, int, dict], dict]
    inputs: dict = field(default_factory=dict)


def _initial_state(rng: random.Random) -> dict:
    coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in checks.LABELS]
    norm = math.sqrt(sum(abs(c) ** 2 for c in coeffs))
    return {"N": checks.N, "coeffs": [[c.real / norm, c.imag / norm] for c in coeffs]}


def build(workload: str, seed: int, workdir: str) -> list[Invocation]:
    """The invocations of one operation; inputs depend only on ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "validate":
        return [Invocation("validate", ["validate", "--format", "json"], checks.check_validate)]
    if workload == "evolve-128":
        state = _initial_state(rng)
        path = os.path.join(workdir, "initial.json")
        with open(path, "w") as fh:
            json.dump(state, fh)
        argv = ["evolve", "--quad-order", str(EVOLVE_ORDER), "--steps", str(EVOLVE_STEPS)]
        argv += ["--format", "json", "--initial", path]
        inputs = {"initial": state, "steps": EVOLVE_STEPS, "t": EVOLVE_T}
        return [Invocation("evolve", argv, checks.check_evolve, inputs)]
    if workload == "cli-sweep":
        theta0 = rng.uniform(-math.pi, math.pi)
        greens = ["greens", "--points", str(GREENS_POINTS), f"--theta0={theta0!r}"]
        return [
            Invocation("gram", ["gram", "--quadrature", "--quad-order", "128"], checks.check_gram),
            Invocation("orthonormalize", ["orthonormalize"], checks.check_orthonormalize),
            Invocation(
                "kernel",
                ["kernel", "--grid-points", str(checks.KERNEL_POINTS), "--format", "json"],
                checks.check_kernel,
            ),
            Invocation("heatkernel", HEATKERNEL_ARGV, checks.check_heatkernel),
            Invocation("ladder", ["ladder"], checks.check_ladder),
            Invocation(
                "greens", greens, checks.check_greens, {"theta0": theta0, "points": GREENS_POINTS}
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("validate", "evolve-128", "cli-sweep")
