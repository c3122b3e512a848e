"""Command-line interface.

Subcommands cover the library surface: Gram matrices, orthonormalization,
kernel grids, the heat-kernel formula, ladder operators, Green functions,
time evolution, and the acceptance suite.  Output is deterministic CSV or
JSON, written atomically when a path is given.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .cylinder import (
    DEFAULT_EPSILON,
    DEFAULT_N,
    HeatKernelParams,
    cylinder_basis,
    greens_spectral,
    greens_winding,
    heat_kernel_formula,
)
from .errors import FactorizationError, QuadratureError, ValidationError
from .hilbert import (
    BasisSpec,
    GramData,
    HoloState,
    gram_matrix,
    grid_gram,
    orthonormalize,
    reproducing_kernel,
    state_norm,
)
from .io import matrix_csv, render_json, rows_csv, write_output
from .operators import adjointness_residual, hamiltonian_free, ladder_lower, ladder_raise
from .propagator import MAX_STEP_ORDER, evolve, one_blas_thread, step_matrix
from .quadrature import DEFAULT_ORDER
from .validation import run_criteria

# The largest value of each size flag, checked with its lower bound of 1
# (the subcommand's own bound for the flags of _OWN_LOWER_BOUND) before any
# work.  Measured at the cap with the other flags at their defaults, 2-vCPU VM
# (JSON is about 75 bytes per matrix entry):
SIZE_LIMITS = {
    # kernel/heatkernel: a dense G x G complex grid; at 1024, 5.2-8.5 s and
    # 370-415 MB peak RSS, writing 46 MB of CSV or 79 MB of JSON
    "grid_points": 1024,
    # greens: one row of 2 * windings + 1 terms per point; at 65,536, 1.5 s and
    # 94 MB peak RSS (CSV), JSON as fast and 117 MB, writing 17 MB of JSON
    "points": 65536,
    # greens: 2 * modes + 1 terms per point; heatkernel: 2 * modes + 1 terms per
    # x-node and point.  At 4096, heatkernel 1.3 s and 33 MB peak RSS, greens
    # 0.16 s and 32 MB (its mode sum converges down to epsilon = 2.6e-6 at T = 1)
    "modes": 4096,
    # heatkernel: two grid-points x x-nodes complex density arrays; at 4096,
    # 0.2 s and 34 MB peak RSS; 58 s and 415 MB with --grid-points 1024
    "x_nodes": 4096,
    # every subcommand but greens: a (2N + 1)-function basis.  At 100, gram
    # --quadrature 0.17 s and 35 MB peak RSS (exit 1, the order-64 Gram is singular;
    # 0.36 s and 50 MB at order 740), evolve 0.6-0.8 s and 47 MB (exit 1, no order up
    # to 256 resolves the basis), the rest under 0.8 s and 52 MB
    "truncation": 100,
    # evolve keeps and writes every state; at 10,000, 3.1 s and 139 MB peak RSS,
    # writing 16 MB of JSON
    "steps": 10000,
    # greens: one row of 2 * windings + 1 terms per point, in blocks; at
    # 100,000, 1.0 s and 41 MB peak RSS
    "windings": 100000,
}
# --truncation and --windings accept 0
_OWN_LOWER_BOUND = {"truncation", "windings"}

# evolve refuses a grid whose defect max |G^-1 G_q - I| exceeds this: the step S sums on
# the grid but solves with the closed-form G, so S(0) = (G^-1 G_q)^2 = I + 2 E + O(E^2).
# The step's own quadrature error is a few 1e-4 (at N = 8, delta = 1/32, order 128 is
# 2.7e-4 from order 256, order 64 6.9e-4), and a defect that adds less than that smallest
# floor, 2 * 1e-4, does not change what the step can resolve.
GRID_DEFECT_BOUND = 1e-4
_RESOLVING_ORDERS = (64, 96, 128, 192, 256)  # the orders the refusal names, up to the limit


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="output file path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument("--config", help="JSON file whose keys override flag defaults")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="holoflat",
        description="Holomorphic quantization on flat manifolds: "
        "kernels, ladder operators, and path-integral evolution.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", help="Gram matrix of the periodic basis")
    p.add_argument("--truncation", type=int, default=DEFAULT_N)
    p.add_argument("--raw", action="store_true", help="raw e^{ikz} basis, not e^{ikz - k^2/2}")
    p.add_argument("--quadrature", action="store_true", help="integrate instead of closed form")
    p.add_argument("--quad-order", type=int, help=f"--quadrature order (default {DEFAULT_ORDER})")
    _add_common(p)

    p = sub.add_parser("orthonormalize", help="Gram-Schmidt coefficient matrix")
    p.add_argument("--truncation", type=int, default=DEFAULT_N)
    _add_common(p)

    p = sub.add_parser("kernel", help="reproducing-kernel values on a real grid")
    p.add_argument("--truncation", type=int, default=DEFAULT_N)
    p.add_argument("--grid-points", type=int, default=5)
    _add_common(p)

    p = sub.add_parser("heatkernel", help="calibrated heat-kernel formula on a real grid")
    p.add_argument("--truncation", type=int, default=DEFAULT_N)
    p.add_argument("--t", type=float, default=HeatKernelParams.t)
    p.add_argument("--modes", type=int, default=HeatKernelParams.M)
    p.add_argument("--x-nodes", type=int, default=HeatKernelParams.x_quad)
    p.add_argument("--grid-points", type=int, default=5)
    _add_common(p)

    p = sub.add_parser("ladder", help="ladder operator matrices and adjointness residual")
    p.add_argument("--truncation", type=int, default=DEFAULT_N)
    _add_common(p)

    p = sub.add_parser("greens", help="circle Green function, both sum forms")
    p.add_argument("--theta0", type=float, default=0.0)
    p.add_argument("--T-real", type=float, default=1.0)
    p.add_argument("--T-imag", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--modes", type=int, default=40)
    p.add_argument("--windings", type=int, default=40)
    p.add_argument("--points", type=int, default=32, help="theta grid size on [-pi, pi)")
    _add_common(p)

    p = sub.add_parser("evolve", help="path-integral time evolution of a state")
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--truncation", type=int, default=DEFAULT_N)
    p.add_argument("--quad-order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--initial", help="JSON state file {N, coeffs: [[re, im], ...]}")
    _add_common(p)

    p = sub.add_parser("validate", help="run the acceptance suite")
    p.add_argument("--only", nargs="*", help="run only criteria whose name contains a token")
    _add_common(p)

    return parser, sub.choices


def _config_value_fits(action: argparse.Action, value) -> bool:
    # argparse type-converts string defaults only and checks no default against choices.
    if action.nargs == 0:
        return isinstance(value, bool)
    if action.nargs == "*":
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    if isinstance(value, str) and action.type is not None:  # argparse would exit 2 on a misfit
        try:
            action.type(value)
        except (ValueError, TypeError):
            return False
    kinds = (str, action.type, int if action.type is float else str)
    return type(value) in kinds and (action.choices is None or value in action.choices)


def _parse(argv: list[str]) -> argparse.Namespace:
    # --config supplies the subcommand's defaults; argparse then lets every
    # explicit flag, abbreviated or not, win over them.
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ValidationError("config file must hold a JSON object")
    # -h and --config itself are not defaults a config file can set
    actions = {
        a.dest: a for a in subparsers[args.command]._actions if a.dest not in ("help", "config")
    }
    defaults = {}
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            raise ValidationError(f"config key {key!r} unknown for this subcommand")
        if not _config_value_fits(actions[attr], value):
            raise ValidationError(f"config key {key!r} has an invalid value {value!r}")
        defaults[attr] = value
    subparsers[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


def _check_sizes(args: argparse.Namespace) -> None:
    for dest, limit in SIZE_LIMITS.items():
        value = getattr(args, dest, None)
        if value is not None and (value > limit or value < 1 and dest not in _OWN_LOWER_BOUND):
            bound = ">= 1" if value < 1 else f"<= {limit}"
            raise ValidationError(f"--{dest.replace('_', '-')} must be {bound}, got {value}")


def _cmd_gram(args) -> int:
    if args.quad_order is not None and not args.quadrature:
        raise ValidationError(
            "--quad-order needs --quadrature; without it gram prints the closed form"
        )
    order = DEFAULT_ORDER if args.quad_order is None else args.quad_order
    basis = cylinder_basis(args.truncation, normalized=not args.raw)
    g = GramData(basis, grid_gram(basis, order)) if args.quadrature else gram_matrix(basis)
    labels = list(basis.labels)
    if args.format == "json":
        text = render_json({"labels": labels, "matrix": g.matrix})
    else:
        text = matrix_csv(g.matrix, labels, labels)
    write_output(text, args.output)
    return 0


def _cmd_orthonormalize(args) -> int:
    basis = cylinder_basis(args.truncation)
    gram = gram_matrix(basis)
    C = orthonormalize(gram)
    residual = float(np.abs(np.conj(C).T @ gram.matrix @ C - np.eye(basis.size)).max())
    labels = list(basis.labels)
    if args.format == "json":
        text = render_json(
            {"labels": labels, "coefficients": C, "orthonormality_residual": residual}
        )
    else:
        text = matrix_csv(C, labels, [f"beta_{j}" for j in range(basis.size)])
        text += f"orthonormality_residual,{residual!r}\n"
    write_output(text, args.output)
    return 0


def _kernel_grid(args):
    basis = cylinder_basis(args.truncation)
    gram = gram_matrix(basis)
    kernel = reproducing_kernel(gram)
    grid = np.linspace(-math.pi, math.pi, args.grid_points, endpoint=False)
    return kernel, grid


def _emit_grid(values: np.ndarray, grid: np.ndarray, args) -> None:
    labels = [f"{v:.12g}" for v in grid]
    if args.format == "json":
        text = render_json({"grid": [float(v) for v in grid], "values": values})
    else:
        text = matrix_csv(values, labels, labels)
    write_output(text, args.output)


def _cmd_kernel(args) -> int:
    kernel, grid = _kernel_grid(args)
    values = kernel.eval_grid(grid, grid)
    _emit_grid(values, grid, args)
    return 0


def _cmd_heatkernel(args) -> int:
    kernel, grid = _kernel_grid(args)
    params = HeatKernelParams(t=args.t, M=args.modes, x_quad=args.x_nodes)
    _emit_grid(heat_kernel_formula(params, kernel, grid, grid), grid, args)
    return 0


def _cmd_ladder(args) -> int:
    N = args.truncation
    basis = cylinder_basis(N)
    lower = ladder_lower(N)
    raised = ladder_raise(N)
    residual = adjointness_residual(N)
    labels = list(basis.labels)
    if args.format == "json":
        text = render_json(
            {"labels": labels, "lower": lower, "raise": raised, "adjointness_residual": residual}
        )
    else:
        text = "lower\n" + matrix_csv(lower, labels, labels)
        text += "raise\n" + matrix_csv(raised, labels, labels)
        text += f"adjointness_residual,{residual!r}\n"
    write_output(text, args.output)
    return 0


def _cmd_greens(args) -> int:
    T = complex(args.T_real, args.T_imag) * (1 - 1j * args.epsilon)
    thetas = np.linspace(-math.pi, math.pi, args.points, endpoint=False)
    winding = greens_winding(thetas, args.theta0, T, args.windings).tolist()
    spectral = greens_spectral(thetas, args.theta0, T, args.modes).tolist()
    if args.format == "json":
        fields = [("theta", float), ("winding", complex), ("spectral", complex), ("difference", float)]
        rows = np.empty(len(thetas), dtype=fields)
        rows["theta"] = [float(f"{th:.12g}") for th in thetas]  # the rounding of the CSV column
        rows["winding"], rows["spectral"] = winding, spectral
        rows["difference"] = [abs(gw - gs) for gw, gs in zip(winding, spectral)]
        text = render_json({"T": [T.real, T.imag], "theta0": args.theta0, "rows": rows})
    else:
        header = ["theta", "winding_re", "winding_im", "spectral_re", "spectral_im", "difference"]
        rows = [
            [f"{th:.12g}", *map(repr, (gw.real, gw.imag, gs.real, gs.imag, abs(gw - gs)))]
            for th, gw, gs in zip(thetas, winding, spectral)
        ]
        text = rows_csv(header, rows)
    write_output(text, args.output)
    return 0


def _read_state(path: str, basis: BasisSpec) -> HoloState:
    """State from a ``{"N": int, "coeffs": [[re, im], ...]}`` file, whose
    coefficients run over the labels ``-N..N`` of ``basis``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read initial state {path}: {exc}") from exc
    try:
        N = data["N"]
        coeffs = np.array([complex(re, im) for re, im in data["coeffs"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed state description: {exc}") from exc
    if type(N) is not int:
        raise ValidationError(f"initial state N must be a JSON integer, got {N!r}")
    if 2 * N + 1 != basis.size:
        raise ValidationError(
            f"initial state truncation {N} does not match --truncation {basis.size // 2}"
        )
    return HoloState(basis, coeffs)


def _state_json(state: HoloState) -> dict:
    return {
        "N": state.basis.size // 2,
        "coeffs": [[float(c.real), float(c.imag)] for c in state.coeffs],
    }


def _grid_defect(gram: GramData, order: int) -> float:
    """max |G^-1 G_q - I| on the order-``order`` grid: column k of G^-1 G_q is the
    projection of basis element k."""
    return float(np.abs(gram.inverse() @ grid_gram(gram.basis, order) - np.eye(gram.basis.size)).max())


def _check_grid_resolves(gram: GramData, order: int) -> None:
    defect = _grid_defect(gram, order)
    if defect <= GRID_DEFECT_BOUND:
        return
    passing = (o for o in _RESOLVING_ORDERS if _grid_defect(gram, o) <= GRID_DEFECT_BOUND)
    smallest = next(passing, None)
    advice = f"--quad-order {smallest} does" if smallest else (
        f"no --quad-order of {', '.join(map(str, _RESOLVING_ORDERS))} does"
    )
    raise QuadratureError(
        f"quadrature order {order} does not resolve truncation {gram.basis.size // 2}: "
        f"grid defect max |G^-1 G_q - I| = {defect:.1e} above the bound "
        f"{GRID_DEFECT_BOUND:.0e}; {advice}"
    )


def _cmd_evolve(args) -> int:
    N = args.truncation
    basis = cylinder_basis(N)
    if args.initial:
        state = _read_state(args.initial, basis)
    else:
        coeffs = np.zeros(basis.size, dtype=complex)
        coeffs[N : N + 2] = 1.0  # e_0 + e_1, or e_0 alone at N = 0
        state = HoloState(basis, coeffs)
    gram = gram_matrix(basis)
    norm = state_norm(state, gram)
    if not 0 < norm < math.inf:
        raise ValidationError(f"initial state has zero or non-finite norm ({norm!r})")
    state = HoloState(basis, state.coeffs / norm)
    delta = args.t / args.steps
    if math.isfinite(delta) and args.quad_order <= MAX_STEP_ORDER:  # else step_matrix refuses
        _check_grid_resolves(gram, args.quad_order)
    S = step_matrix(basis, hamiltonian_free(N), delta, args.quad_order)
    trajectory = evolve(state, S, args.steps)
    times = [i * delta or 0.0 for i in range(args.steps + 1)]  # no -0.0 at step 0
    if args.format == "json":
        history = [
            {"step": i, "time": times[i], "norm": state_norm(s, gram), **_state_json(s)}
            for i, s in enumerate(trajectory)
        ]
        text = render_json({"t": args.t, "steps": args.steps, "history": history})
    else:
        header = ["step", "time", "norm"] + [f"c_{k}" for k in range(-N, N + 1)]
        rows = [
            [str(i), f"{times[i]:.12g}", repr(state_norm(s, gram))]
            + [complex(c) for c in s.coeffs]
            for i, s in enumerate(trajectory)
        ]
        text = rows_csv(header, rows)
    write_output(text, args.output)
    return 0


def _cmd_validate(args) -> int:
    results = run_criteria(args.only)
    if not results:
        raise ValidationError("no acceptance criteria match the requested names")
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name}: {r.detail}")
    text = "\n".join(lines) + "\n"
    if args.format == "json":
        payload = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        write_output(render_json(payload), args.output)
    else:
        write_output(text, args.output)
    if args.output is not None:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "gram": _cmd_gram,
    "orthonormalize": _cmd_orthonormalize,
    "kernel": _cmd_kernel,
    "heatkernel": _cmd_heatkernel,
    "ladder": _cmd_ladder,
    "greens": _cmd_greens,
    "evolve": _cmd_evolve,
    "validate": _cmd_validate,
}


def run(argv: list[str] | None = None) -> int:
    """Run one subcommand; its exit code.  The whole command runs with numpy's OpenBLAS
    held to one thread, so its output has the same bits on any number of CPUs, and no
    BLAS helper woken before a step matrix spins on the cores its strip workers use."""
    try:
        with one_blas_thread():
            args = _parse(list(sys.argv[1:] if argv is None else argv))
            _check_sizes(args)
            return _COMMANDS[args.command](args)
    except (ValidationError, QuadratureError, FactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
