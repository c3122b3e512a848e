"""Serialization helpers: complex-valued CSV/JSON tables and atomic writes.

Complex numbers serialize as two-element ``[re, im]`` arrays in JSON and as
quoted ``"re,im"`` cells in CSV, so every value round-trips unambiguously.

Complex matrices and record tables are rendered in one vectorised pass each:
their floats are formatted by one call of the C JSON encoder (``repr`` for
CSV) and laid out by row templates.  ``json.dumps`` with ``indent`` set runs CPython's
pure-Python encoder, one call per float; the templates give the same bytes
as that encoder would for the nested ``[re, im]`` lists.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import tempfile

import numpy as np

from .errors import ValidationError

__all__ = [
    "format_complex",
    "matrix_csv",
    "rows_csv",
    "atomic_write",
    "render_json",
    "write_output",
]


def format_complex(c: complex) -> str:
    c = complex(c)
    return f"{c.real!r},{c.imag!r}"


def matrix_csv(m: np.ndarray, row_labels, col_labels) -> str:
    """CSV text of a labelled complex matrix with quoted "re,im" cells."""
    m = np.ascontiguousarray(m, dtype=complex)
    reprs = list(map(repr, m.view(float).ravel().tolist()))
    cells = list(map(",".join, zip(reprs[0::2], reprs[1::2])))  # format_complex, per cell
    rows, cols = m.shape
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + [str(c) for c in col_labels])
    for label, i in zip(row_labels, range(rows), strict=True):
        writer.writerow([str(label)] + cells[i * cols : (i + 1) * cols])
    return buf.getvalue()


def rows_csv(header: list[str], rows: list[list]) -> str:
    """CSV text from a header and rows; complex entries become "re,im" cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format_complex(v) if isinstance(v, complex) else str(v) for v in row]
        )
    return buf.getvalue()


def atomic_write(path: str, text: str) -> None:
    """Write via a temporary file and rename, so readers never see a
    partial file.  The file gets mode ``0o666`` less the umask, as a shell
    redirect would give it.  An operating-system error becomes a ValidationError."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0o022)  # reading the umask means setting it: restore at once
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates it 0o600
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A JSON container of rendered ``items`` laid out as ``json.dumps(indent=2)``
    lays it out, its closing bracket after ``pad`` (a newline and indentation)."""
    if not items:
        return brackets
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _matrix_json(m: np.ndarray, pad: str) -> str:
    """A complex matrix as rows of ``[re, im]`` pairs, laid out by ``_block``."""
    m = np.ascontiguousarray(m, dtype=complex)
    rows, cols = m.shape
    # the C encoder formats each float as the indent encoder does (NaN, Infinity, -0.0)
    floats = json.dumps(m.view(float).ravel().tolist())[1:-1].split(", ")
    pair = _block(["%s", "%s"], pad + "    ")
    template = _block([_block([pair] * cols, pad + "  ")] * rows, pad)
    return template % tuple(floats[: 2 * m.size])  # an empty matrix leaves one ""


def _records_json(rec: np.ndarray, pad: str) -> str:
    """A 1-D structured array of float and complex fields as a list of objects with
    sorted keys, a complex field as ``[re, im]``, laid out by ``_block``."""
    names = sorted(rec.dtype.names)
    columns = [(rec[n].real, rec[n].imag) if rec.dtype[n].kind == "c" else (rec[n],) for n in names]
    pair = _block(["%s", "%s"], pad + "    ")
    fields = [f"{json.dumps(n)}: {pair if len(c) == 2 else '%s'}" for n, c in zip(names, columns)]
    template = _block([_block(fields, pad + "  ", "{}")] * len(rec), pad)
    values = np.column_stack([part for c in columns for part in c])
    floats = json.dumps(values.ravel().tolist())[1:-1].split(", ")
    return template % tuple(floats[: values.size])  # no records leave one ""


def _json(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` of a value closing after
    ``pad``, where dicts may hold complex matrices and records as ndarrays."""
    if isinstance(obj, np.ndarray):
        return _records_json(obj, pad) if obj.dtype.names else _matrix_json(obj, pad)
    if isinstance(obj, dict):
        inner = pad + "  "
        items = [
            # as json.dumps does, a key that is not a string becomes its JSON text
            f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: {_json(v, inner)}"
            for k, v in sorted(obj.items())
        ]
        return _block(items, pad, "{}")
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad)


def render_json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, where a dict
    in ``payload`` may also hold a 2-D complex ``ndarray``: it is written as
    ``json.dumps`` writes the matrix's nested ``[re, im]`` lists, byte for byte.  A
    1-D structured ``ndarray`` of float and complex fields is written likewise as
    its list of records, each a dict of its fields, complex ones as ``[re, im]``."""
    return _json(payload, "\n") + "\n"


def write_output(text: str, output: str | None) -> None:
    """Write ``text`` to the path ``output`` atomically, or to stdout."""
    if output is None:
        sys.stdout.write(text)
    else:
        atomic_write(output, text)
