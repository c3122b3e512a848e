"""Serialization helpers: complex-valued CSV/JSON tables and atomic writes.

Complex numbers serialize as two-element ``[re, im]`` arrays in JSON and as
quoted ``"re,im"`` cells in CSV, so every value round-trips unambiguously.
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
    "parse_complex",
    "complex_matrix_to_lists",
    "matrix_csv",
    "rows_csv",
    "atomic_write",
    "write_output",
]


def format_complex(c: complex) -> str:
    c = complex(c)
    return f"{c.real!r},{c.imag!r}"


def parse_complex(cell: str) -> complex:
    parts = cell.split(",")
    if len(parts) != 2:
        raise ValidationError(f"expected 're,im' cell, got {cell!r}")
    return complex(float(parts[0]), float(parts[1]))


def complex_matrix_to_lists(m: np.ndarray) -> list:
    """Nested [re, im] pairs, JSON-ready, row-major."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_csv(m: np.ndarray, row_labels, col_labels) -> str:
    """CSV text of a labelled complex matrix with quoted "re,im" cells."""
    m = np.asarray(m, dtype=complex)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + [str(c) for c in col_labels])
    for label, row in zip(row_labels, m, strict=True):
        writer.writerow([str(label)] + [format_complex(v) for v in row])
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


def write_output(payload, output: str | None, fmt: str) -> None:
    """Emit ``payload`` as CSV text or a JSON object to a path or stdout.

    ``payload`` must be a string for csv format and a JSON-serializable
    object for json format.
    """
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        if not isinstance(payload, str):
            raise ValidationError("csv output requires pre-rendered text")
        text = payload
    else:
        raise ValidationError(f"unknown format {fmt!r}; use csv or json")
    if output is None:
        sys.stdout.write(text)
    else:
        atomic_write(output, text)
