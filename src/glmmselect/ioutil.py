"""File input and output: atomic writes, and the one home of CSV reading and writing.

Every table the package reads or writes goes through :func:`read_csv`,
:func:`parse_floats` and :func:`write_csv`: data files, chain traces, and the
report, posterior predictive and study tables.
"""

import csv
import io
import os
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import DataError

__all__ = ["atomic_write_text", "read_csv", "parse_floats", "write_csv"]


def atomic_write_text(path: str, text: str) -> None:
    """Write via temp file + rename so readers never see a truncated file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def read_csv(path: str) -> tuple[list, list]:
    """The header and the data rows of a headed CSV file, as lists of cell strings.

    A file that cannot be read or decoded, an empty file, or a row whose cell
    count differs from the header's raises :class:`DataError`.  A file with a
    header and no data rows gives an empty row list.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if header is None:
        raise DataError(f"{path}: file is empty")
    ncol = len(header)
    for i, row in enumerate(rows):
        if len(row) != ncol:
            raise DataError(f"{path}: row {i + 2} has {len(row)} cells, header has {ncol}")
    return header, rows


def parse_floats(path: str, header: list, rows: list, names: list) -> np.ndarray:
    """The columns ``names`` of ``rows`` as a (rows, names) float matrix.

    A column missing from ``header``, or a cell that is empty or not a
    number, raises :class:`DataError` naming ``path``, the column and, for a
    cell, its row (the header is row 1).  "nan" and "inf" are numbers here;
    callers that reject them check the matrix.
    """
    position = {name: j for j, name in enumerate(header)}
    for name in names:
        if name not in position:
            raise DataError(f"{path}: missing column {name!r}")
    if not names:
        return np.empty((len(rows), 0))
    columns = [position[name] for name in names]
    take = itemgetter(*columns)
    try:
        return np.array([take(row) for row in rows], dtype=float).reshape(len(rows), len(columns))
    except ValueError:
        for i, row in enumerate(rows):
            for name, j in zip(names, columns):
                try:
                    float(row[j])
                except ValueError:
                    raise DataError(
                        f"{path}: column {name!r} has a missing or non-numeric value {row[j]!r} in row {i + 2}"
                    ) from None
        raise


def write_csv(path: str, header, rows) -> None:
    """Write a headed CSV file atomically, with exactly the bytes of ``csv.writer``.

    Cells are written as ``str`` gives them, which for a float is its shortest
    round-trip form.  A row is joined directly unless its text holds a comma,
    a quote, CR or LF, or is empty; only such rows go through ``csv.writer``,
    which quotes them.  Chain traces have tens of thousands of float cells,
    and joining them directly is faster than ``csv.writer``.
    """
    buf = io.StringIO()
    quoting = csv.writer(buf, lineterminator="\n")
    for row in chain([header], rows):
        line = ",".join(map(str, row))
        if line and line.count(",") == len(row) - 1 and '"' not in line and "\n" not in line and "\r" not in line:
            buf.write(line)
            buf.write("\n")
        else:
            quoting.writerow(row)
    atomic_write_text(path, buf.getvalue())
