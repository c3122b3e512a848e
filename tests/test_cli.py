import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import holoflat
from holoflat.cli import run
from holoflat.io import parse_complex


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


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

    @pytest.mark.parametrize("command", ["kernel", "heatkernel"])
    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_grid_points_below_one(self, command, points, tmp_path, capsys):
        out = tmp_path / "k.csv"
        assert run([command, "--grid-points", points, "--output", str(out)]) == 1
        assert "error: --grid-points must be >= 1" in capsys.readouterr().err
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

    def test_divergent_inputs_exit_1(self, capsys):
        assert run(["greens", "--T-real", "1", "--epsilon", "0"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one(self, points, capsys):
        assert run(["greens", "--points", points]) == 1
        assert "error: --points must be >= 1" in capsys.readouterr().err


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


class TestValidate:
    def test_subset(self, tmp_path, capsys):
        assert run(["validate", "--only", "theta"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS theta-identity")

    def test_no_match(self, capsys):
        assert run(["validate", "--only", "nonexistent"]) == 1

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

    def test_stdout_output(self, capsys):
        assert run(["gram", "--truncation", "1"]) == 0
        out = capsys.readouterr().out
        assert "1.0,0.0" in out
