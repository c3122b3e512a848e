import argparse
import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoflat
from holoflat import HeatKernelParams, HoloState, cylinder_basis, gram_matrix, grid_gram
from holoflat import ValidationError, cli, cylinder, hilbert, propagator, reproducing_kernel
from holoflat.cylinder import greens_spectral, greens_winding
from holoflat.cli import _read_state, _state_json, run


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def parse_cell(text):
    """The complex number in a quoted "re,im" cell of a CSV output."""
    re_part, im_part = text.split(",")
    return complex(float(re_part), float(im_part))


# --format json outputs of small runs, recorded before the basis became the only
# carrier of the truncation; refactors must reproduce them
with open(os.path.join(os.path.dirname(__file__), "data", "cli_reference.json")) as fh:
    CLI_REFERENCE = json.load(fh)


def json_leaves(payload, path=""):
    """Every scalar of a JSON payload with its path, in document order."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from json_leaves(value, f"{path}.{key}")
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            yield from json_leaves(value, f"{path}[{i}]")
    else:
        yield path, payload


class TestGram:
    def test_csv_center_entry(self, tmp_path, capsys):
        out = tmp_path / "gram.csv"
        assert run(["gram", "--truncation", "2", "--output", str(out)]) == 0
        rows = read_csv(str(out))
        assert len(rows) == 6  # header + 5 rows
        center = parse_cell(rows[3][3])  # label 0 row/column
        assert center == pytest.approx(1.0)

    def test_json(self, tmp_path):
        out = tmp_path / "gram.json"
        assert run(["gram", "--truncation", "1", "--format", "json", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["labels"] == [-1, 0, 1]
        assert data["matrix"][1][1] == [1.0, 0.0]

    def test_quadrature_agrees(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["gram", "--truncation", "2", "--output", str(a)])
        run(["gram", "--truncation", "2", "--quadrature", "--output", str(b)])
        ra, rb = read_csv(str(a)), read_csv(str(b))
        for i in range(1, 6):
            for j in range(1, 6):
                va, vb = parse_cell(ra[i][j]), parse_cell(rb[i][j])
                assert abs(va - vb) < 1e-10

    @pytest.mark.parametrize(
        "argv", [["--truncation", "40"], ["--truncation", "100", "--quad-order", "740"]]
    )
    def test_quadrature_refuses_dependent_basis(self, argv, tmp_path, capsys):
        # the grid Gram of these truncations is not positive definite; it comes from the
        # grid's 1-D sums, so the refusal costs no order^2-node product
        out = tmp_path / "gram.csv"
        assert run(["gram", "--quadrature", *argv, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: basis numerically dependent at this truncation/precision\n"
        assert not out.exists()

    def test_quadrature_resolves_truncation_30(self, tmp_path):
        out = tmp_path / "gram.csv"
        assert run(["gram", "--quadrature", "--truncation", "30", "--output", str(out)]) == 0
        assert len(read_csv(str(out))) == 62  # header + 61 rows

    def test_raw_guard(self, capsys):
        assert run(["gram", "--truncation", "8", "--raw"]) == 1
        assert "error" in capsys.readouterr().err

    def test_quad_order_beyond_finite_nodes(self, capsys):
        assert run(["gram", "--quadrature", "--quad-order", "741", "--truncation", "1"]) == 1
        assert "error: Gauss-Hermite nodes of order 741 are not finite" in capsys.readouterr().err

    def test_quad_order_zero(self, capsys):
        assert run(["gram", "--quadrature", "--quad-order", "0"]) == 1
        assert capsys.readouterr().err == "error: quadrature order must be >= 1, got 0\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_quad_order_without_quadrature(self, source, tmp_path, capsys):
        # without --quadrature the closed form is printed, so an order would be ignored
        argv = ["gram", "--truncation", "1", "--output", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--quad-order", "3"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"quad-order": 3}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "error: --quad-order needs --quadrature; without it gram prints the closed form\n"
        )
        assert os.listdir(tmp_path) == (["cfg.json"] if source == "config" else [])

    def test_quadrature_alone_takes_default_order(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["gram", "--quadrature", "--output", str(a)]) == 0
        order = str(holoflat.DEFAULT_ORDER)
        assert run(["gram", "--quadrature", "--quad-order", order, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_normalized_flag_removed(self):
        # the normalized basis is the only default; there is no flag to ask for it
        with pytest.raises(SystemExit) as exc:
            run(["gram", "--normalized"])
        assert exc.value.code == 2


class TestOrthonormalize:
    def test_residual_line(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["orthonormalize", "--truncation", "4", "--output", str(out)]) == 0
        rows = read_csv(str(out))
        assert rows[-1][0] == "orthonormality_residual"
        assert float(rows[-1][1]) < 1e-10


class TestKernelCommands:
    def test_kernel_grid(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run(["kernel", "--truncation", "4", "--grid-points", "3", "--output", str(out)]) == 0
        rows = read_csv(str(out))
        assert len(rows) == 4
        diag = parse_cell(rows[1][1])
        assert diag.imag == pytest.approx(0.0, abs=1e-12)
        assert diag.real > 0

    def test_heatkernel_close_to_kernel(self, tmp_path):
        # the N = 8 kernel and the heat-kernel formula differ by basis
        # truncation only, not x-integration or mode cutoff; verified by
        # test_acceptance.py's test_criterion_06_heat_kernel_formula
        k, h = tmp_path / "k.csv", tmp_path / "h.csv"
        run(["kernel", "--grid-points", "3", "--output", str(k)])
        run(["heatkernel", "--grid-points", "3", "--output", str(h)])
        rk, rh = read_csv(str(k)), read_csv(str(h))
        for i in range(1, 4):
            for j in range(1, 4):
                va, vb = parse_cell(rk[i][j]), parse_cell(rh[i][j])
                assert abs(va - vb) / abs(va) < 5e-3

    def test_ladder_json(self, tmp_path):
        out = tmp_path / "l.json"
        assert run(["ladder", "--truncation", "3", "--format", "json", "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["adjointness_residual"] < 1e-8
        assert data["lower"][0][0] == [0.0, -3.0]  # ik at k = -3

    @pytest.mark.parametrize("N", ["0", "1"])
    def test_ladder_truncation_below_two(self, N, tmp_path, capsys):
        # the adjointness block drops two edge modes on each side
        out = tmp_path / "l.csv"
        assert run(["ladder", "--truncation", N, "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: adjointness needs truncation N >= 2, got N={N}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["kernel", "heatkernel"])
    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_grid_points_below_one(self, command, points, tmp_path, capsys):
        out = tmp_path / "k.csv"
        assert run([command, "--grid-points", points, "--output", str(out)]) == 1
        assert "error: --grid-points must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_kernel_json_equals_reference_rendering(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["kernel", "--grid-points", "64", "--format", "json", "--output", str(out)]) == 0
        grid = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        values = reproducing_kernel(gram_matrix(cylinder_basis(8))).eval_grid(grid, grid)
        payload = {
            "grid": [float(v) for v in grid],
            "values": [[[float(v.real), float(v.imag)] for v in row] for row in values],
        }
        want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert out.read_text().split("\n") == want.split("\n")  # lines: a short failure report

    @pytest.mark.parametrize("t", ["inf", "nan", "0"])
    def test_heatkernel_rejects_nonfinite_or_nonpositive_time(self, t, tmp_path, capsys):
        # --t inf used to exit 0 with rows of nan,nan
        out = tmp_path / "h.csv"
        assert run(["heatkernel", "--t", t, "--grid-points", "2", "--output", str(out)]) == 1
        assert "error: diffusion time must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_heatkernel_denominator_guard(self, tmp_path, capsys):
        # at t = 0.05 the base point's density cancels to round-off near x = +-pi
        out = tmp_path / "h.csv"
        assert run(["heatkernel", "--t", "0.05", "--modes", "200", "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: denominator density below guard at x=2.454369 (|rho|=0.000e+00)\n"
        )
        assert not out.exists()


class TestGreens:
    def test_equivalence_column(self, tmp_path):
        out = tmp_path / "g.csv"
        code = run(
            [
                "greens",
                "--T-real", "1", "--epsilon", "0.05",
                "--modes", "40", "--windings", "40",
                "--points", "8", "--output", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(str(out))
        assert rows[0][-1] == "difference"
        diffs = [float(r[-1]) for r in rows[1:]]
        assert max(diffs) <= 1e-8

    def test_json_and_csv_carry_the_same_numbers(self, tmp_path):
        argv = ["greens", "--points", "16", "--theta0", "0.3", "--T-imag", "-0.2"]
        assert run(argv + ["--format", "csv", "--output", str(tmp_path / "g.csv")]) == 0
        assert run(argv + ["--format", "json", "--output", str(tmp_path / "g.json")]) == 0
        rows = read_csv(str(tmp_path / "g.csv"))[1:]
        data = json.loads((tmp_path / "g.json").read_text())["rows"]
        assert len(rows) == len(data) == 16
        for row, item in zip(rows, data):
            numbers = [item["theta"], *item["winding"], *item["spectral"], item["difference"]]
            assert [float(cell) for cell in row] == numbers

    @pytest.mark.parametrize(
        "points, theta0, T_real, T_imag",
        [
            (1, 0.0, 1.0, 0.0),
            (2, 0.0, 1.0, 0.0),
            (4096, 0.3, 1.0, -0.2),
            (65536, 0.0, 1.0, 0.0),  # the --points cap
            (3, 1e-05, 0.05001, -1.0),  # floats printed with exponents: theta0, T and values
            (5, -3.3e-20, 2.5e-05, -0.75),
        ],
    )
    def test_json_equals_indent_encoder(self, points, theta0, T_real, T_imag, tmp_path):
        # the rows go through io's one-pass templates; the reference is the list of
        # row dicts through json.dumps's indent encoder
        out = tmp_path / "g.json"
        argv = ["greens", "--points", str(points), f"--theta0={theta0!r}", f"--T-real={T_real!r}"]
        argv += [f"--T-imag={T_imag!r}", "--epsilon", "0.05", "--modes", "40", "--windings", "40"]
        assert run(argv + ["--format", "json", "--output", str(out)]) == 0
        T = complex(T_real, T_imag) * (1 - 0.05j)
        thetas = np.linspace(-math.pi, math.pi, points, endpoint=False)
        winding = greens_winding(thetas, theta0, T, 40).tolist()
        spectral = greens_spectral(thetas, theta0, T, 40).tolist()
        rows = [
            {
                "theta": float(f"{th:.12g}"),
                "winding": [gw.real, gw.imag],
                "spectral": [gs.real, gs.imag],
                "difference": abs(gw - gs),
            }
            for th, gw, gs in zip(thetas, winding, spectral)
        ]
        payload = {"T": [T.real, T.imag], "theta0": theta0, "rows": rows}
        assert out.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "flags, need",
        [
            (["--T-real=1000"], "increase n_max to 128"),
            (["--theta0=1e-05", "--T-real=1e18"], "increase n_max to 4046322068"),
            (["--theta0=-3.3e20", "--T-real=2.5e-05", "--T-imag=-0.75"], "no n_max below 2^62"),
        ],
        ids=["T-real-1000", "T-real-1e18", "theta0-3.3e20"],
    )
    def test_unconverged_winding_sum_exit_1(self, flags, need, tmp_path, capsys):
        # 40 windings missed the Green function by 3.5e-3, 0.16 and 0.07 here, and exited 0
        assert run(["greens", "--points", "4", *flags, "--output", str(tmp_path / "g")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: winding-sum tail ") and need in line
        assert os.listdir(tmp_path) == []

    def test_divergent_inputs_exit_1(self, capsys):
        assert run(["greens", "--T-real", "1", "--epsilon", "0"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--T-real", "1e-200"], ["--T-imag=-1e-200", "--T-real=0"]])
    def test_tiny_time_exit_1(self, flags, capsys):
        # the winding sum's tail bound divided by |T|^2, 0 here: a ZeroDivisionError traceback
        assert run(["greens", *flags]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: mode-sum tail ") and "no M below 2^62 bounds it" in line

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one(self, points, capsys):
        assert run(["greens", "--points", points]) == 1
        assert "error: --points must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--T-real", "nan"], ["--epsilon", "nan"], ["--T-imag=-inf"]])
    def test_nonfinite_time_exit_1(self, flag, capsys):
        assert run(["greens", "--points", "2"] + flag) == 1
        assert "error: time parameter must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--theta0=nan", "theta and theta0 must be finite, got theta0=nan"),
            ("--theta0=inf", "theta and theta0 must be finite, got theta0=inf"),
            ("--theta0=1e308", "winding sum not finite at T=(1-0.05j), theta0=1e+308"),
            ("--T-real=1e308", "winding sum not finite at T=(1e+308-5.0000000000000006e+306j)"),
        ],
        ids=["theta0-nan", "theta0-inf", "theta0-1e308", "T-real-1e308"],
    )
    def test_nonfinite_angle_or_value_exit_1(self, flag, message, tmp_path, capsys):
        # one error line, no numpy warning before it and no output file
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["greens", "--points", "2", flag, "--output", str(tmp_path / "g")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: " + message)
        assert os.listdir(tmp_path) == []


class TestEvolve:
    def test_default_initial(self, tmp_path):
        out = tmp_path / "e.csv"
        code = run(
            ["evolve", "--t", "0.2", "--steps", "4", "--truncation", "4",
             "--quad-order", "32", "--output", str(out)]
        )
        assert code == 0
        rows = read_csv(str(out))
        assert len(rows) == 6  # header + initial + 4 steps
        assert float(rows[1][2]) == pytest.approx(1.0, abs=1e-10)  # normalized start

    def test_initial_state_file(self, tmp_path):
        state = {"N": 4, "coeffs": [[0.0, 0.0]] * 4 + [[1.0, 0.0]] + [[0.0, 0.0]] * 4}
        init = tmp_path / "init.json"
        init.write_text(json.dumps(state))
        out = tmp_path / "e.json"
        code = run(
            ["evolve", "--t", "0.1", "--steps", "2", "--truncation", "4",
             "--quad-order", "32", "--initial", str(init),
             "--format", "json", "--output", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["history"]) == 3

    def test_truncation_mismatch(self, tmp_path, capsys):
        state = {"N": 2, "coeffs": [[1.0, 0.0]] * 5}
        init = tmp_path / "init.json"
        init.write_text(json.dumps(state))
        assert run(["evolve", "--truncation", "4", "--initial", str(init)]) == 1

    def test_state_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        basis = cylinder_basis(3)
        f = HoloState(basis, rng.normal(size=7) + 1j * rng.normal(size=7))
        init = tmp_path / "init.json"
        init.write_text(json.dumps(_state_json(f)))
        assert _state_json(f)["N"] == 3
        assert np.array_equal(_read_state(str(init), basis).coeffs, f.coeffs)

    def test_malformed_initial_state(self, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"N": 1}))
        assert run(["evolve", "--truncation", "1", "--initial", str(init)]) == 1
        assert "error: malformed state description" in capsys.readouterr().err

    def test_zero_initial_state(self, tmp_path, capsys):
        # used to print a numpy RuntimeWarning, then blame non-finite coefficients
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"N": 1, "coeffs": [[0.0, 0.0]] * 3}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evolve", "--truncation", "1", "--initial", str(init)]) == 1
        assert "error: initial state has zero or non-finite norm" in capsys.readouterr().err

    @pytest.mark.parametrize("N", [8.7, 1.0, True, "1"])
    def test_initial_truncation_must_be_json_integer(self, N, tmp_path, capsys):
        # {"N": 8.7} used to be read as N = 8
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"N": N, "coeffs": [[1.0, 0.0]] * 3}))
        assert run(["evolve", "--truncation", "1", "--initial", str(init)]) == 1
        assert "error: initial state N must be a JSON integer" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_nonfinite_time_exit_1(self, t, capsys):
        assert run(["evolve", "--t", t, "--quad-order", "8"]) == 1
        assert "error: evolution time must be finite" in capsys.readouterr().err

    def test_overflowing_step_exit_1(self, capsys):
        # delta = 1e308 overflows the Pade factor: one error line naming delta, no
        # floating-point warnings before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["evolve", "--truncation", "1", "--quad-order", "8", "--t", "1e308", "--steps", "1"]
            assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: step matrix not finite at time step delta=1.000e+308"]

    @pytest.mark.parametrize(
        "N, order, defect, advice",
        [
            (12, 64, "1.0e+00", "--quad-order 128 does"),
            (8, 48, "3.0e-02", "--quad-order 64 does"),
            (40, 32, "1.0e+00", "no --quad-order of 64, 96, 128, 192, 256 does"),
        ],
    )
    def test_unresolved_grid_exit_1(self, N, order, defect, advice, monkeypatch, capsys):
        # the step solves with the closed-form G but sums on the grid, so S(0) is
        # (G^-1 G_q)^2: these exited 0 with a step off by up to 1
        monkeypatch.setattr(cli, "step_matrix", lambda *a: pytest.fail("step matrix built"))
        argv = ["evolve", "--truncation", str(N), "--quad-order", str(order)]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"error: quadrature order {order} does not resolve truncation {N}: grid defect "
            f"max |G^-1 G_q - I| = {defect} above the bound 1e-04; {advice}\n"
        )

    def test_resolved_grid_runs(self, tmp_path):
        out = tmp_path / "e.json"
        argv = ["evolve", "--truncation", "12", "--quad-order", "128", "--steps", "1"]
        assert run(argv + ["--format", "json", "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())["history"]) == 2

    def test_grid_defect_is_the_step_at_zero(self):
        # S(0) = (G^-1 G_q)^2, so the defect read from the 1-D sums is the step's
        basis = cylinder_basis(8)
        gram = gram_matrix(basis)
        for order in (16, 48):
            E = propagator.step_matrix(basis, np.zeros((17, 17)), 0.0, order)
            root = np.linalg.solve(gram.matrix, grid_gram(basis, order))
            assert np.abs(E - root @ root).max() <= 1e-10
            assert cli._grid_defect(gram, order) == pytest.approx(
                np.abs(root - np.eye(17)).max(), rel=1e-8
            )

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_steps_below_one_refused_before_work(self, steps, monkeypatch, capsys):
        # the time step is --t / --steps, so the size check refuses --steps 0 first
        monkeypatch.setitem(cli._COMMANDS, "evolve", lambda args: pytest.fail("subcommand ran"))
        assert run(["evolve", "--steps", steps]) == 1
        assert capsys.readouterr().err == f"error: --steps must be >= 1, got {steps}\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_time_starts_at_zero(self, fmt, tmp_path):
        # step 0 is at time 0, not -0; the later steps keep their sign
        out = tmp_path / f"e.{fmt}"
        argv = ["evolve", "--t=-0.5", "--steps", "2", "--truncation", "1", "--quad-order", "8"]
        assert run(argv + ["--format", fmt, "--output", str(out)]) == 0
        if fmt == "csv":
            times = [row[1] for row in read_csv(str(out))[1:]]
            assert times == ["0", "-0.25", "-0.5"]
        else:
            times = [h["time"] for h in json.loads(out.read_text())["history"]]
            assert times == [0.0, -0.25, -0.5]
            assert math.copysign(1.0, times[0]) == 1.0

    def test_quad_order_above_step_limit(self, capsys):
        # the step matrix costs O(order^4); the limit is checked before any node pair
        assert run(["evolve", "--quad-order", "257", "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "step-matrix limit 256" in err

    def test_quad_order_without_finite_nodes(self, capsys):
        # refused by the step-matrix limit, before any Hermite rule is built
        assert run(["evolve", "--quad-order", "741", "--steps", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: quadrature order 741 above the step-matrix limit 256 "
            "(the node-pair sum grows as order^4)\n"
        )

    def test_quad_order_zero(self, capsys):
        assert run(["evolve", "--quad-order", "0", "--steps", "1"]) == 1
        assert capsys.readouterr().err == "error: quadrature order must be >= 1, got 0\n"

    def test_negative_truncation(self, capsys):
        assert run(["evolve", "--truncation", "-1", "--quad-order", "8"]) == 1
        assert "error: truncation must be nonnegative" in capsys.readouterr().err

    def test_truncation_zero_default_initial(self, tmp_path):
        # the default initial state e_0 + e_1 keeps only e_0 when N = 0
        out = tmp_path / "e.json"
        argv = ["evolve", "--truncation", "0", "--quad-order", "8", "--steps", "2"]
        assert run(argv + ["--format", "json", "--output", str(out)]) == 0
        history = json.loads(out.read_text())["history"]
        assert history[0]["coeffs"] == [[1.0, 0.0]]


class TestValidate:
    def test_subset(self, tmp_path, capsys):
        assert run(["validate", "--only", "theta"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS theta-identity")

    def test_no_match(self, capsys):
        assert run(["validate", "--only", "nonexistent"]) == 1

    def test_only_by_printed_name(self, capsys):
        assert run(["validate", "--only", "kernel-construction-equivalence"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("PASS kernel-construction-equivalence: ")

    @pytest.mark.parametrize("token", ["criterion", "n_k"])
    def test_only_ignores_function_name(self, token, capsys):
        # neither token is part of a printed name, though both are of function names
        assert run(["validate", "--only", token]) == 1
        assert "no acceptance criteria match the requested names" in capsys.readouterr().err

    def test_only_reads_underscore_as_dash(self, capsys):
        assert run(["validate", "--only", "kernel_properties"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("PASS kernel-properties: ")

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(holoflat.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "holoflat.cli", "validate", "--only", "theta"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "PASS theta-identity" in proc.stdout


class TestBlasHold:
    """Each command runs with numpy's OpenBLAS held to one thread, its count restored after."""

    @pytest.fixture
    def blas(self):
        pair = propagator._openblas_threads()
        if pair is None:
            pytest.skip("numpy links no OpenBLAS")
        get, set_ = pair
        blas_threads = get()
        yield pair
        set_(blas_threads)

    def test_output_independent_of_blas_threads(self, blas, tmp_path):
        # at truncation 40 the ladder's products are large enough for OpenBLAS to split:
        # 6,037 floats moved by up to 5e-14 between one and two threads
        get, set_ = blas
        outputs = []
        for threads in (1, 2):
            set_(threads)
            out = tmp_path / f"ladder-{threads}.json"
            argv = ["ladder", "--truncation", "40", "--format", "json", "--output", str(out)]
            assert run(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["evolve", "--truncation", "3", "--quad-order", "33", "--steps", "1"], 0),
            (["evolve", "--truncation", "12"], 1),  # refused by the grid check
            (["validate", "--only", "orthonormalization"], 0),
        ],
    )
    def test_command_held_and_restored(self, argv, code, blas, monkeypatch, tmp_path):
        # the grid check's Hermite rule and the step's grid, or criterion 2's grid, see one
        # thread; the count set before the command is back after it, refused or not
        get, set_ = blas
        inside = []

        def spy(f):
            def wrapper(*args, **kwargs):
                inside.append(get())
                return f(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(propagator, "tangent_grid", spy(propagator.tangent_grid))
        monkeypatch.setattr(hilbert, "plane_wave_moments", spy(hilbert.plane_wave_moments))
        set_(3)
        assert run(argv + ["--output", str(tmp_path / "out")]) == code
        assert get() == 3
        assert inside and set(inside) == {1}

    def test_restored_after_an_exception(self, blas, monkeypatch):
        get, set_ = blas
        inside = []

        def fail(args):
            inside.append(get())
            raise RuntimeError("subcommand failed")

        monkeypatch.setitem(cli._COMMANDS, "gram", fail)
        set_(3)
        with pytest.raises(RuntimeError, match="subcommand failed"):
            run(["gram"])
        assert (inside, get()) == ([1], 3)


class TestPlumbing:
    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["greens", "--points", "4", "--modes", "40", "--windings", "20"]
        run(args + ["--output", str(a)])
        run(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["gram", "--no-such-flag"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_config_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"truncation": 1}))
        out = tmp_path / "g.csv"
        assert run(["gram", "--config", str(cfg), "--output", str(out)]) == 0
        assert len(read_csv(str(out))) == 4  # header + 3 rows

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"truncation": 1}))
        out = tmp_path / "g.csv"
        for flag in (["--truncation", "2"], ["--trunc", "2"], ["--trunc=2"]):
            assert run(["gram", "--config", str(cfg), *flag, "--output", str(out)]) == 0
            assert len(read_csv(str(out))) == 6

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["gram", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("config", [{"help": True}, {"config": "other.json"}])
    def test_parser_own_dests_are_no_config_keys(self, config, tmp_path, capsys):
        # -h and --config are parser actions too, but no default a config file sets
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(["gram", "--config", str(cfg)]) == 1
        key = next(iter(config))
        assert capsys.readouterr().err == f"error: config key {key!r} unknown for this subcommand\n"

    @pytest.mark.parametrize(
        "command, config",
        [
            ("gram", {"truncation": 2.5}),
            ("gram", {"truncation": [2]}),
            ("gram", {"truncation": True}),
            ("gram", {"quadrature": "yes"}),
            ("greens", {"epsilon": [0.1]}),
            ("validate", {"only": [1]}),
            ("validate", {"only": "theta"}),
            ("gram", {"format": "xml"}),
            ("evolve", {"initial": 3}),
            # strings the flag's type rejects: argparse would exit 2 on them
            ("kernel", {"truncation": "abc"}),
            ("gram", {"truncation": "7.0"}),
            ("kernel", {"grid_points": "0x10"}),
            ("greens", {"epsilon": "x"}),
        ],
    )
    def test_config_value_of_wrong_type_or_choice(self, command, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run([command, "--config", str(cfg)]) == 1
        key = next(iter(config))
        assert f"error: config key {key!r} has an invalid value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "error: cannot read config {path}: [Errno 2] "),
            ('{"raw": true "t": 1}', "error: cannot read config {path}: Expecting ',' delimiter"),
            ("[1, 2]", "error: config file must hold a JSON object\n"),
        ],
        ids=["missing", "malformed", "array"],
    )
    def test_unreadable_config(self, content, message, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        if content is not None:
            cfg.write_text(content)
        assert run(["gram", "--config", str(cfg), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(message.format(path=cfg))
        assert not out.exists()

    def test_config_values_of_the_flag_types(self, tmp_path, capsys):
        # JSON values that fit the flag: a bool switch, an int for a float flag,
        # a list of strings for --only, and a string argparse converts
        for command, config in [
            ("gram", {"quadrature": True, "quad_order": 16, "truncation": "1", "format": "json"}),
            ("greens", {"epsilon": 1, "points": 2}),
            ("validate", {"only": ["theta"]}),
        ]:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            assert run([command, "--config", str(cfg)]) == 0, config

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("kernel", "grid-points"),
            ("heatkernel", "grid-points"),
            ("heatkernel", "modes"),
            ("heatkernel", "x-nodes"),
            ("greens", "points"),
            ("greens", "modes"),
            ("greens", "windings"),
            ("gram", "truncation"),
            ("orthonormalize", "truncation"),
            ("kernel", "truncation"),
            ("heatkernel", "truncation"),
            ("ladder", "truncation"),
            ("evolve", "truncation"),
            ("evolve", "steps"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_size_above_limit_exits_before_work(
        self, command, flag, source, tmp_path, monkeypatch, capsys
    ):
        # one above the cap; the subcommand must not start, so nothing is allocated
        monkeypatch.setitem(cli._COMMANDS, command, lambda args: pytest.fail("subcommand ran"))
        limit = cli.SIZE_LIMITS[flag.replace("-", "_")]
        if source == "flag":
            argv = [command, f"--{flag}", str(limit + 1)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag: limit + 1}))
            argv = [command, "--config", str(cfg)]
        assert run(argv + ["--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: --{flag} must be <= {limit}, got {limit + 1}\n"
        assert os.listdir(tmp_path) == (["cfg.json"] if source == "config" else [])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gram", "--truncation", "-1"], "error: truncation must be nonnegative, got -1\n"),
            (["greens", "--windings", "-1"], "error: n_max must be nonnegative, got -1\n"),
        ],
    )
    def test_own_lower_bounds_keep_their_messages(self, argv, message, capsys):
        # only the upper bound of these flags is in SIZE_LIMITS
        assert run(argv) == 1
        assert capsys.readouterr().err == message

    def test_zero_windings_and_truncation_valid(self, tmp_path, capsys):
        # at T = -0.05i one winding converges; at the default T = 1 the tail refuses zero
        # windings, not the size cap
        argv = ["greens", "--windings", "0", "--output", str(tmp_path / "g")]
        assert run(argv + ["--T-real", "0", "--T-imag=-0.05"]) == 0
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("error: winding-sum tail ")
        assert run(["gram", "--truncation", "0", "--output", str(tmp_path / "t")]) == 0

    def test_size_limits_admit_the_limit(self):
        # checked without running: the work at each cap is what its comment measures
        for dest, limit in cli.SIZE_LIMITS.items():
            cli._check_sizes(argparse.Namespace(**{dest: limit}))

    @pytest.mark.parametrize("dest", sorted(cli.SIZE_LIMITS))
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(data=st.data())
    def test_size_check_refuses_exactly_outside_the_bounds(self, dest, data):
        # no subcommand runs, so no over-cap size is allocated
        limit = cli.SIZE_LIMITS[dest]
        near = st.integers(-3, 3)
        value = data.draw(
            st.one_of(near, near.map(lambda d: limit + d), st.integers(-2 * limit, 2 * limit))
        )
        args, flag = argparse.Namespace(**{dest: value}), "--" + dest.replace("_", "-")
        if value > limit:
            message = f"{flag} must be <= {limit}, got {value}"
        elif value < 1 and dest not in cli._OWN_LOWER_BOUND:
            message = f"{flag} must be >= 1, got {value}"
        else:
            cli._check_sizes(args)
            return
        with pytest.raises(ValidationError) as exc:
            cli._check_sizes(args)
        assert str(exc.value) == message

    def test_output_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "g.csv"
        assert run(["gram", "--truncation", "1", "--output", str(out)]) == 1
        assert f"error: cannot write {out}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_output_onto_directory(self, tmp_path, capsys):
        target = tmp_path / "dir"
        target.mkdir()
        assert run(["gram", "--truncation", "1", "--output", str(target)]) == 1
        assert f"error: cannot write {target}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["dir"]  # no .tmp- file left beside it
        assert os.listdir(target) == []

    def test_stdout_output(self, capsys):
        assert run(["gram", "--truncation", "1"]) == 0
        out = capsys.readouterr().out
        assert "1.0,0.0" in out


@pytest.mark.parametrize("command", sorted(CLI_REFERENCE))
def test_json_output_matches_reference(command, tmp_path):
    # numbers within 1e-12 of the largest recorded magnitude; everything else exact
    out = tmp_path / "out.json"
    assert run(command.split() + ["--format", "json", "--output", str(out)]) == 0
    got = list(json_leaves(json.loads(out.read_text())))
    want = list(json_leaves(CLI_REFERENCE[command]))
    assert [p for p, _ in got] == [p for p, _ in want]
    scale = max(abs(v) for _, v in want if type(v) is float)
    for (path, a), (_, b) in zip(got, want):
        assert type(a) is type(b), path
        if type(b) is float:
            assert abs(a - b) <= 1e-12 * scale, path
        else:
            assert a == b, path


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_examples():
    """The ``holoflat ...`` lines of the README's ``sh`` blocks, comments dropped."""
    with open(README) as fh:
        blocks = fh.read().split("```")
    lines = [
        line.split("#")[0].split()
        for block in blocks[1::2]
        if block.startswith("sh\n")
        for line in block.splitlines()
    ]
    return [argv[1:] for argv in lines if argv[:1] == ["holoflat"]]


@pytest.mark.parametrize(
    "argv",
    [argv for argv in readme_examples() if argv[0] != "validate"],  # covered by TestValidate
    ids=lambda argv: argv[0],
)
def test_readme_example(argv, tmp_path):
    assert run(argv + ["--output", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").stat().st_size > 0


def readme_defaults():
    """The README's Defaults table as {parameter: the number its value cell starts with}."""
    with open(README) as fh:
        section = fh.read().split("### Defaults\n")[1].strip().split("\n\n")[0]
    rows = [line.strip("|").split("|") for line in section.splitlines()[2:]]
    return {name.strip(): float(value.split()[0]) for name, value in rows}


def test_defaults_have_one_owner():
    params = HeatKernelParams()
    assert readme_defaults() == {
        "basis truncation N (modes -N..N)": holoflat.DEFAULT_N,
        "Gauss-Hermite order per real dimension": holoflat.DEFAULT_ORDER,
        "heat-kernel mode cutoff M": params.M,
        "heat-kernel diffusion time t": params.t,
        "periodic x-integration nodes": params.x_quad,
        "Green-function regularization epsilon": cylinder.DEFAULT_EPSILON,
        "kernel-ratio division guard": propagator.DIVISION_GUARD,
    }
    _, subparsers = cli._build_parser()
    defaults = {name: {a.dest: a.default for a in p._actions} for name, p in subparsers.items()}
    assert {d["truncation"] for d in defaults.values() if "truncation" in d} == {holoflat.DEFAULT_N}
    assert [c for c in defaults if "truncation" not in defaults[c]] == ["greens", "validate"]
    assert [c for c in defaults if "quad_order" in defaults[c]] == ["gram", "evolve"]
    # gram's --quad-order has no parser default, so it can tell when it is given without
    # --quadrature; _cmd_gram then takes the owner's value
    assert (defaults["gram"]["quad_order"], defaults["evolve"]["quad_order"]) == (
        None, holoflat.DEFAULT_ORDER
    )
    heat = defaults["heatkernel"]
    assert (heat["t"], heat["modes"], heat["x_nodes"]) == (params.t, params.M, params.x_quad)
    assert defaults["greens"]["epsilon"] == cylinder.DEFAULT_EPSILON
    assert defaults["greens"]["modes"] == 40  # its own mode cutoff, not the heat kernel's


def test_readme_examples_found():
    assert [argv[0] for argv in readme_examples()] == [
        "gram", "orthonormalize", "kernel", "heatkernel", "ladder", "greens", "evolve", "validate",
    ]
