"""Per-layer metrics derived from the spans of one traced operation.

A layer is a ``holoflat`` module; a span's name is ``<module>.<function>``
(criteria are named after their result, ``validation.<criterion>``).  Self
time is a span's duration minus the durations of its direct children.
Metrics named ``*_computed`` (and the step matrix's node and basis sizes)
are computed from argument sizes, not measured.
"""

from __future__ import annotations

from collections import defaultdict

from checks import CRITERION_NAMES

SELF_LAYERS = ("quadrature", "hilbert", "cylinder", "operators", "propagator", "validation", "io")

# (name, unit, better) of every per-layer metric, in report order.
METRICS: list[tuple[str, str, str]] = [
    ("quadrature.hermite_rule.cold_s", "s", "lower"),
    ("quadrature.hermite_rule.cold_calls", "count", "lower"),
    ("quadrature.hermite_rule.hit_ratio", "ratio", "higher"),
    ("quadrature.tangent_blocks.nodes", "count", "lower"),
    ("quadrature.tangent_blocks.calls", "count", "lower"),
    ("quadrature.tangent_blocks.redundant_ratio", "ratio", "lower"),
    ("hilbert.gram_matrix.quad_s", "s", "lower"),
    ("hilbert.gram_matrix.quad_calls", "count", "lower"),
    ("hilbert.gram_matrix.closed_calls", "count", "lower"),
    ("hilbert.inner_product.s", "s", "lower"),
    ("hilbert.project.s", "s", "lower"),
    ("hilbert.orthonormalize.s", "s", "lower"),
    ("hilbert.KernelRep.eval.s", "s", "lower"),
    ("hilbert.KernelRep.eval.values", "count", "lower"),
    ("hilbert.KernelRep.eval_grid.s", "s", "lower"),
    ("hilbert.KernelRep.eval_grid.values", "count", "lower"),
    ("cylinder.heat_kernel_formula.s", "s", "lower"),
    ("cylinder.heat_kernel_formula.calls", "count", "lower"),
    ("operators.ladder_raise.s", "s", "lower"),
    ("operators.adjointness_residual.s", "s", "lower"),
    ("propagator.step_matrix.self_s", "s", "lower"),
    ("propagator.step_matrix.calls", "count", "lower"),
    ("propagator.step_matrix.node_pairs", "count", "lower"),
    ("propagator.step_matrix.bytes_computed", "bytes", "lower"),
    ("propagator.step_matrix.flops_computed", "flop", "lower"),
    ("propagator.step_matrix.nodes", "count", "lower"),
    ("propagator.step_matrix.basis_size", "count", "lower"),
    ("propagator.evolve.s", "s", "lower"),
    ("propagator.greens.s", "s", "lower"),
    *[(f"validation.{c}.s", "s", "lower") for c in CRITERION_NAMES],
    *[(f"validation.{c}.value", "1", "lower") for c in CRITERION_NAMES],
    ("io.write_output.s", "s", "lower"),
    ("io.write_output.bytes", "bytes", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.run.s", "s", "lower"),
    ("geometry.calls", "count", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in SELF_LAYERS],
    ("trace.coverage", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
# Computed from argument sizes, not measured.
COMPUTED = {
    f"propagator.step_matrix.{key}"
    for key in ("node_pairs", "bytes_computed", "flops_computed", "nodes", "basis_size")
}

_TOTALS = {
    "hilbert.inner_product.s": ("hilbert.inner_product",),
    "hilbert.project.s": ("hilbert.project",),
    "hilbert.orthonormalize.s": ("hilbert.orthonormalize",),
    "hilbert.KernelRep.eval.s": ("hilbert.KernelRep.eval",),
    "hilbert.KernelRep.eval_grid.s": ("hilbert.KernelRep.eval_grid",),
    "cylinder.heat_kernel_formula.s": ("cylinder.heat_kernel_formula",),
    "operators.ladder_raise.s": ("operators.ladder_raise",),
    "operators.adjointness_residual.s": ("operators.adjointness_residual",),
    "propagator.evolve.s": ("propagator.evolve",),
    "propagator.greens.s": ("propagator.greens_winding", "propagator.greens_spectral"),
    "io.write_output.s": ("io.write_output",),
    "cli.run.s": ("cli.run",),
    **{f"validation.{c}.s": (f"validation.{c}",) for c in CRITERION_NAMES},
}
_TOTAL_OF = {span: metric for metric, spans in _TOTALS.items() for span in spans}


def op_metrics(processes: list[list[list]], criterion_values: dict) -> dict[str, float]:
    """Metrics of one operation from the span lists of its processes.

    ``criterion_values`` maps a criterion name to its worst (deviation,
    tolerance) pair, from the checked ``validate`` output.
    """
    m: dict[str, float] = defaultdict(float)
    hermite_calls = 0
    grid_calls = 0
    distinct_grids = 0
    for spans in processes:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        grids = set()
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            attrs = attrs or {}
            dur = end - start
            own = dur - child[i]
            layer = name.split(".", 1)[0]
            m[f"{layer}.self_s"] += own
            m["trace.spans"] += 1
            if name in _TOTAL_OF:
                m[_TOTAL_OF[name]] += dur
            if layer == "geometry":
                m["geometry.calls"] += 1
            elif name.startswith("quadrature.hermite_rule"):
                hermite_calls += 1
                if attrs.get("cold"):
                    m["quadrature.hermite_rule.cold_s"] += dur
                    m["quadrature.hermite_rule.cold_calls"] += 1
            elif name == "quadrature.tangent_blocks":
                m["quadrature.tangent_blocks.nodes"] += attrs.get("nodes", 0)
                if attrs.get("call"):
                    m["quadrature.tangent_blocks.calls"] += 1
                    grid_calls += 1
                    grids.add(attrs.get("grid"))
            elif name == "hilbert.gram_matrix":
                kind = "quad" if attrs.get("quad") else "closed"
                m[f"hilbert.gram_matrix.{kind}_calls"] += 1
                if kind == "quad":
                    m["hilbert.gram_matrix.quad_s"] += dur
            elif name in ("hilbert.KernelRep.eval", "hilbert.KernelRep.eval_grid"):
                m[f"{name}.values"] += attrs.get("values", 0)
            elif name == "cylinder.heat_kernel_formula":
                m["cylinder.heat_kernel_formula.calls"] += 1
            elif name == "propagator.step_matrix":
                m["propagator.step_matrix.self_s"] += own
                m["propagator.step_matrix.calls"] += 1
                m["propagator.step_matrix.node_pairs"] += attrs.get("node_pairs", 0)
                m["propagator.step_matrix.bytes_computed"] += attrs.get("bytes", 0)
                m["propagator.step_matrix.flops_computed"] += attrs.get("flops", 0)
                for key in ("nodes", "basis_size"):
                    name_key = f"propagator.step_matrix.{key}"
                    m[name_key] = max(m[name_key], attrs.get(key, 0))
            elif name == "io.write_output":
                m["io.write_output.bytes"] += attrs.get("bytes", 0)
            elif name == "cli.run":
                m["cli.run.self_s"] += own
        distinct_grids += len(grids)
    cold = m["quadrature.hermite_rule.cold_calls"]
    m["quadrature.hermite_rule.hit_ratio"] = (hermite_calls - cold) / hermite_calls if hermite_calls else 0.0
    m["quadrature.tangent_blocks.redundant_ratio"] = 1 - distinct_grids / grid_calls if grid_calls else 0.0
    run_s = m["cli.run.s"]
    m["trace.coverage"] = 1 - m["cli.run.self_s"] / run_s if run_s else 0.0
    for name, (value, _tol) in criterion_values.items():
        m[f"validation.{name}.value"] = value
    return {name: float(m.get(name, 0.0)) for name, _, _ in METRICS}
