import csv
import io
import os
import stat

import numpy as np
import pytest

from holoflat.errors import ValidationError
from holoflat.io import (
    atomic_write,
    format_complex,
    matrix_csv,
    parse_complex,
    rows_csv,
    write_output,
)


class TestComplexCells:
    def test_round_trip(self):
        vals = [1 + 2j, -0.5j, 3.0, complex(1e-300, -1e300)]
        for v in vals:
            assert parse_complex(format_complex(v)) == v

    def test_full_precision(self):
        v = complex(np.pi, -np.e)
        assert parse_complex(format_complex(v)) == v

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValidationError):
            parse_complex("1.0")


class TestMatrixCsv:
    def test_cells_quoted(self):
        text = matrix_csv(np.array([[1 + 2j]]), ["r"], ["c"])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["", "c"]
        assert parse_complex(rows[1][1]) == 1 + 2j


class TestRowsCsv:
    def test_mixed_types(self):
        text = rows_csv(["a", "b"], [["x", 1 + 1j]])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[1][0] == "x"
        assert parse_complex(rows[1][1]) == 1 + 1j


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write(str(target), "hello\n")
        assert target.read_text() == "hello\n"

    def test_overwrites(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write(str(target), "new")
        assert target.read_text() == "new"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_mode_follows_umask(self, umask, mode, tmp_path):
        # the mode a shell redirect gives, not mkstemp's 0o600
        old = os.umask(umask)
        try:
            atomic_write(str(tmp_path / "out.txt"), "x")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode) == mode

    def test_no_temp_leftovers(self, tmp_path):
        atomic_write(str(tmp_path / "out.txt"), "x")
        assert sorted(os.listdir(tmp_path)) == ["out.txt"]


class TestWriteOutput:
    def test_json_stable_key_order(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_output({"b": 1, "a": 2}, str(a), "json")
        write_output({"a": 2, "b": 1}, str(b), "json")
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format(self):
        with pytest.raises(ValidationError):
            write_output("x", None, "xml")

    def test_csv_requires_text(self):
        with pytest.raises(ValidationError):
            write_output({"a": 1}, None, "csv")
