import contextlib
import csv
import io
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflat.io import (
    atomic_write,
    format_complex,
    matrix_csv,
    render_json,
    rows_csv,
    write_output,
)


def parse_cell(text):
    """The complex number in a quoted "re,im" cell that ``format_complex`` wrote."""
    re_part, im_part = text.split(",")
    return complex(float(re_part), float(im_part))


# fixed examples, no example database, no per-example deadline
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)

SHAPES = [(0, 0), (1, 0), (1, 1), (3, 5), (17, 17)]
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e16, 1e-5]


@st.composite
def complex_matrices(draw):
    """Complex matrices of the listed shapes: standard normals, with a drawn
    share of the entries' parts replaced by the special values."""
    shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal(shape + (2,))
    special = rng.random(parts.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    parts[special] = rng.choice(SPECIAL, size=int(special.sum()))
    return parts.view(complex).reshape(shape)


FIELDS = [("theta", float), ("winding", complex), ("spectral", complex), ("difference", float)]


@st.composite
def record_tables(draw):
    """1-D structured arrays of 0 to 17 records of two float and two complex fields,
    declared in a drawn order, their parts drawn as in complex_matrices."""
    n = draw(st.sampled_from([0, 1, 3, 17]))
    fields = draw(st.permutations(FIELDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal((n, 6))
    special = rng.random(parts.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    parts[special] = rng.choice(SPECIAL, size=int(special.sum()))
    return parts.view(np.dtype(fields)).reshape(n)


def record_dicts(rec):
    """The reference JSON form of a record table: one dict per record, [re, im] lists."""
    return [
        {
            name: [float(r[name].real), float(r[name].imag)] if kind is complex else float(r[name])
            for name, kind in FIELDS
        }
        for r in rec
    ]


def nested_pairs(m):
    """The reference JSON form of a complex matrix: rows of [re, im] lists."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_csv_by_cell(m, row_labels, col_labels):
    """The reference CSV rendering, one format_complex call per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + [str(c) for c in col_labels])
    for label, row in zip(row_labels, m, strict=True):
        writer.writerow([str(label)] + [format_complex(v) for v in row])
    return buf.getvalue()


class TestComplexCells:
    def test_round_trip(self):
        vals = [1 + 2j, -0.5j, 3.0, complex(1e-300, -1e300)]
        for v in vals:
            assert parse_cell(format_complex(v)) == v

    def test_full_precision(self):
        v = complex(np.pi, -np.e)
        assert parse_cell(format_complex(v)) == v


class TestMatrixCsv:
    def test_cells_quoted(self):
        text = matrix_csv(np.array([[1 + 2j]]), ["r"], ["c"])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["", "c"]
        assert parse_cell(rows[1][1]) == 1 + 2j

    def test_label_count_must_match_rows(self):
        with pytest.raises(ValueError):
            matrix_csv(np.zeros((2, 1), dtype=complex), ["r"], ["c"])

    @SETTINGS
    @given(m=complex_matrices())
    def test_equals_per_cell_rendering(self, m):
        rows, cols = m.shape
        row_labels, col_labels = [f"r{i}" for i in range(rows)], [f"c,{j}" for j in range(cols)]
        got = matrix_csv(m, row_labels, col_labels)
        assert got.split("\n") == matrix_csv_by_cell(m, row_labels, col_labels).split("\n")


class TestRowsCsv:
    def test_mixed_types(self):
        text = rows_csv(["a", "b"], [["x", 1 + 1j]])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[1][0] == "x"
        assert parse_cell(rows[1][1]) == 1 + 1j


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
    TEXT = "a,b\n\"1,2\",x\u00e9\n\nno newline at the end"

    def test_writes_text_verbatim_to_path(self, tmp_path):
        out = tmp_path / "out.txt"
        write_output(self.TEXT, str(out))
        assert out.read_bytes() == self.TEXT.encode()

    def test_writes_text_verbatim_to_stdout(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            write_output(self.TEXT, None)
        assert out.getvalue() == self.TEXT

    def test_json_stable_key_order(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_output(render_json({"b": 1, "a": 2}), str(a))
        write_output(render_json({"a": 2, "b": 1}), str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "payload",
        [{}, [], {"b": [1, 2.5, None], "a": {"y": "x\u00e9\"", "x": [[]]}, "2": True}, "s", 0.1],
        ids=["empty-dict", "empty-list", "nested", "string", "float"],
    )
    def test_render_json_without_matrices_is_json_dumps(self, payload):
        assert render_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @SETTINGS
    @given(m=complex_matrices(), other=complex_matrices(), depth=st.sampled_from([1, 2]))
    def test_matrices_equal_json_dumps_of_nested_lists(self, m, other, depth):
        def payload(a, b):
            inner = {"m": a, "label": "x\u00e9\"", "list": [1, [2.5, None]], "empty": {}}
            if depth == 2:
                inner = {"outer": inner, "n": b, "0": [len(b)]}
            return {**inner, "b": b, "A": True}

        with contextlib.redirect_stdout(io.StringIO()) as out:
            write_output(render_json(payload(m, other)), None)
        want = json.dumps(payload(nested_pairs(m), nested_pairs(other)), indent=2, sort_keys=True)
        # as lines: a failure then reports the first differing line, not a diff
        assert out.getvalue().split("\n") == (want + "\n").split("\n")

    @SETTINGS
    @given(rec=record_tables(), m=complex_matrices(), depth=st.sampled_from([1, 2]))
    def test_records_equal_json_dumps_of_dicts(self, rec, m, depth):
        def payload(rows, matrix):
            inner = {"rows": rows, "T": [1.0, -0.05], "theta0": 1e-5}
            return {"outer": inner, "m": matrix} if depth == 2 else inner

        want = json.dumps(payload(record_dicts(rec), nested_pairs(m)), indent=2, sort_keys=True)
        assert render_json(payload(rec, m)).split("\n") == (want + "\n").split("\n")

    def test_non_string_keys_as_json_dumps(self, tmp_path):
        # a dict holding a matrix takes the same key conversion json.dumps makes
        def payload(m):
            return {"numbers": {2: m, -1.5: m}, "none": {None: m}, "bool": {False: m}}

        m = np.array([[1 + 2j]])
        out = tmp_path / "k.json"
        write_output(render_json(payload(m)), str(out))
        want = json.dumps(payload(nested_pairs(m)), indent=2, sort_keys=True)
        assert out.read_text() == want + "\n"
