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

import holoflat
from holoflat import HoloState, cylinder_basis, gram_matrix, reproducing_kernel
from holoflat import cli
from holoflat.cli import _read_state, _state_json, run
from holoflat.io import parse_complex


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


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
        center = parse_complex(rows[3][3])  # label 0 row/column
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
                va, vb = parse_complex(ra[i][j]), parse_complex(rb[i][j])
                assert abs(va - vb) < 1e-10

    def test_raw_guard(self, capsys):
        assert run(["gram", "--truncation", "8", "--raw"]) == 1
        assert "error" in capsys.readouterr().err

    def test_quad_order_beyond_finite_nodes(self, capsys):
        assert run(["gram", "--quadrature", "--quad-order", "741", "--truncation", "1"]) == 1
        assert "error: Gauss-Hermite nodes of order 741 are not finite" in capsys.readouterr().err

    def test_quad_order_zero(self, capsys):
        assert run(["gram", "--quadrature", "--quad-order", "0"]) == 1
        assert capsys.readouterr().err == "error: quadrature order must be >= 1, got 0\n"

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
        diag = parse_complex(rows[1][1])
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
                va, vb = parse_complex(rk[i][j]), parse_complex(rh[i][j])
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

    def test_divergent_inputs_exit_1(self, capsys):
        assert run(["greens", "--T-real", "1", "--epsilon", "0"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one(self, points, capsys):
        assert run(["greens", "--points", points]) == 1
        assert "error: --points must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--T-real", "nan"], ["--epsilon", "nan"], ["--T-imag=-inf"]])
    def test_nonfinite_time_exit_1(self, flag, capsys):
        assert run(["greens", "--points", "2"] + flag) == 1
        assert "error: time parameter must be finite" in capsys.readouterr().err


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
            assert run(["evolve", "--quad-order", "8", "--t", "1e308", "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: step matrix not finite at time step delta=1.000e+308"]

    def test_quad_order_above_step_limit(self, capsys):
        # the step matrix costs O(order^4); the limit is checked before any node pair
        assert run(["evolve", "--quad-order", "257", "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "step-matrix limit 256" in err

    def test_quad_order_without_finite_nodes(self, capsys):
        # the Hermite rule is refused by name before the step-matrix limit
        assert run(["evolve", "--quad-order", "741", "--steps", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: Gauss-Hermite nodes of order 741 are not finite; lower the quadrature order\n"
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
        ],
    )
    def test_config_value_of_wrong_type_or_choice(self, command, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run([command, "--config", str(cfg)]) == 1
        key = next(iter(config))
        assert f"error: config key {key!r} has an invalid value" in capsys.readouterr().err

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

    def test_size_limits_admit_the_limit(self):
        # checked without running: the work at each cap is what its comment measures
        for dest, limit in cli.SIZE_LIMITS.items():
            cli._check_sizes(argparse.Namespace(**{dest: limit}))

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
