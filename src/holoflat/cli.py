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
    DEFAULT_N,
    HeatKernelParams,
    calibrate_heat_kernel,
    cylinder_basis,
    heat_kernel_formula,
)
from .errors import FactorizationError, QuadratureError, ValidationError
from .hilbert import (
    BasisSpec,
    HoloState,
    gram_matrix,
    orthonormalize,
    reproducing_kernel,
    state_norm,
)
from .io import matrix_csv, rows_csv, write_output
from .operators import adjointness_residual, hamiltonian_free, ladder_lower, ladder_raise
from .propagator import (
    DEFAULT_EPSILON,
    evolve,
    greens_spectral,
    greens_winding,
)
from .quadrature import DEFAULT_ORDER, hermite_rule
from .validation import run_criteria

# Defaults shared by every subcommand (also documented in the README):
#   truncation N = 8, quadrature order 64, heat-kernel modes M = 12,
#   256 periodic x-nodes, regularization epsilon = 0.05.
DEFAULT_MODES = 12
DEFAULT_X_QUAD = 256

# The largest value of each size flag, checked with its lower bound of 1
# before any work.  Measured at the cap with the other flags at their
# defaults, 2-vCPU VM (JSON is about 75 bytes per matrix entry):
SIZE_LIMITS = {
    # kernel/heatkernel: a dense G x G complex grid; at 1024, 5.2-8.5 s and
    # 370-415 MB peak RSS, writing 46 MB of CSV or 79 MB of JSON
    "grid_points": 1024,
    # greens: one row of 2 * windings + 1 terms per point; at 65,536, 1.5 s and
    # 94 MB peak RSS (CSV) or 2.7 s and 205 MB, writing 17 MB of JSON
    "points": 65536,
    # greens: 2 * modes + 1 terms per point; heatkernel: 2 * modes + 1 terms per
    # x-node and point.  At 4096, heatkernel 2.3 s and 111 MB peak RSS, greens
    # 0.25 s and 32 MB (its mode sum converges down to epsilon = 2.1e-6 at T = 1)
    "modes": 4096,
    # heatkernel: two grid-points x x-nodes complex density arrays; at 4096,
    # 0.3-0.4 s and 50 MB peak RSS; 58 s and 415 MB with --grid-points 1024
    "x_nodes": 4096,
}


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
    p.add_argument("--quad-order", type=int, default=DEFAULT_ORDER)
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
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--modes", type=int, default=DEFAULT_MODES)
    p.add_argument("--x-nodes", type=int, default=DEFAULT_X_QUAD)
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
    actions = {a.dest: a for a in subparsers[args.command]._actions}
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
        if value is not None and not 1 <= value <= limit:
            bound = ">= 1" if value < 1 else f"<= {limit}"
            raise ValidationError(f"--{dest.replace('_', '-')} must be {bound}, got {value}")


def _cmd_gram(args) -> int:
    basis = cylinder_basis(args.truncation, normalized=not args.raw)
    g = gram_matrix(basis, args.quad_order if args.quadrature else None)
    labels = list(basis.labels)
    if args.format == "json":
        payload = {"labels": labels, "matrix": g.matrix}
        write_output(payload, args.output, "json")
    else:
        write_output(matrix_csv(g.matrix, labels, labels), args.output, "csv")
    return 0


def _cmd_orthonormalize(args) -> int:
    basis = cylinder_basis(args.truncation)
    gram = gram_matrix(basis)
    C = orthonormalize(gram)
    residual = float(np.abs(np.conj(C).T @ gram.matrix @ C - np.eye(basis.size)).max())
    labels = list(basis.labels)
    if args.format == "json":
        payload = {
            "labels": labels,
            "coefficients": C,
            "orthonormality_residual": residual,
        }
        write_output(payload, args.output, "json")
    else:
        text = matrix_csv(C, labels, [f"beta_{j}" for j in range(basis.size)])
        text += f"orthonormality_residual,{residual!r}\n"
        write_output(text, args.output, "csv")
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
        payload = {"grid": [float(v) for v in grid], "values": values}
        write_output(payload, args.output, "json")
    else:
        write_output(matrix_csv(values, labels, labels), args.output, "csv")


def _cmd_kernel(args) -> int:
    kernel, grid = _kernel_grid(args)
    values = kernel.eval_grid(grid, grid)
    _emit_grid(values, grid, args)
    return 0


def _cmd_heatkernel(args) -> int:
    kernel, grid = _kernel_grid(args)
    params = HeatKernelParams(t=args.t, M=args.modes, x_quad=args.x_nodes)
    c = calibrate_heat_kernel(params, kernel)
    values = c * heat_kernel_formula(params, grid, grid)
    _emit_grid(values, grid, args)
    return 0


def _cmd_ladder(args) -> int:
    N = args.truncation
    basis = cylinder_basis(N)
    lower = ladder_lower(N)
    raised = ladder_raise(N)
    residual = adjointness_residual(N)
    labels = list(basis.labels)
    if args.format == "json":
        payload = {
            "labels": labels,
            "lower": lower,
            "raise": raised,
            "adjointness_residual": residual,
        }
        write_output(payload, args.output, "json")
    else:
        text = "lower\n" + matrix_csv(lower, labels, labels)
        text += "raise\n" + matrix_csv(raised, labels, labels)
        text += f"adjointness_residual,{residual!r}\n"
        write_output(text, args.output, "csv")
    return 0


def _cmd_greens(args) -> int:
    T = complex(args.T_real, args.T_imag) * (1 - 1j * args.epsilon)
    thetas = np.linspace(-math.pi, math.pi, args.points, endpoint=False)
    winding = greens_winding(thetas, args.theta0, T, args.windings).tolist()
    spectral = greens_spectral(thetas, args.theta0, T, args.modes).tolist()
    if args.format == "json":
        rows = [
            {
                "theta": float(f"{th:.12g}"),  # the rounding of the CSV column
                "winding": [gw.real, gw.imag],
                "spectral": [gs.real, gs.imag],
                "difference": abs(gw - gs),
            }
            for th, gw, gs in zip(thetas, winding, spectral)
        ]
        payload = {"T": [T.real, T.imag], "theta0": args.theta0, "rows": rows}
        write_output(payload, args.output, "json")
    else:
        header = ["theta", "winding_re", "winding_im", "spectral_re", "spectral_im", "difference"]
        rows = [
            [f"{th:.12g}", *map(repr, (gw.real, gw.imag, gs.real, gs.imag, abs(gw - gs)))]
            for th, gw, gs in zip(thetas, winding, spectral)
        ]
        write_output(rows_csv(header, rows), args.output, "csv")
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
    hermite_rule(args.quad_order)  # a bad order fails here, before the step-matrix limit
    H = hamiltonian_free(N)
    _, history = evolve(state, H, args.t, args.steps, gram, args.quad_order, return_history=True)
    delta = args.t / args.steps
    if args.format == "json":
        payload = {
            "t": args.t,
            "steps": args.steps,
            "history": [
                {"step": i, "time": i * delta, "norm": state_norm(s, gram), **_state_json(s)}
                for i, s in enumerate(history)
            ],
        }
        write_output(payload, args.output, "json")
    else:
        header = ["step", "time", "norm"] + [f"c_{k}" for k in range(-N, N + 1)]
        rows = []
        for i, s in enumerate(history):
            rows.append(
                [str(i), f"{i * delta:.12g}", repr(state_norm(s, gram))]
                + [complex(c) for c in s.coeffs]
            )
        write_output(rows_csv(header, rows), args.output, "csv")
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
        payload = [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ]
        write_output(payload, args.output, "json")
    else:
        write_output(text, args.output, "csv")
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
    try:
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
