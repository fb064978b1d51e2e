"""QMAT / RMAT text formats, version 1.

QMAT: line 1 ``QMAT 1``, line 2 ``<rows> <cols>``, then rows*cols lines of
four whitespace-separated floats ``w x y z`` in row-major order.  RMAT is
the same with header ``RMAT 1`` and one float per line.  Files are UTF-8
with LF line endings; lines starting with ``#`` are ignored.  Floats are
written with shortest round-trip formatting, so write/parse is bit-exact.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import FormatError
from .qmat import QMatrix, RMatrix

QMAT_MAGIC = "QMAT"
RMAT_MAGIC = "RMAT"
FORMAT_VERSION = 1


def write_qmatrix(matrix: QMatrix, path) -> None:
    values = map(repr, matrix.data.ravel().tolist())
    entries = map(" ".join, zip(values, values, values, values))
    _write_lines(path, chain([f"{QMAT_MAGIC} {FORMAT_VERSION}", f"{matrix.rows} {matrix.cols}"],
                             entries))


def write_rmatrix(matrix: RMatrix, path) -> None:
    _write_lines(path, chain([f"{RMAT_MAGIC} {FORMAT_VERSION}", f"{matrix.rows} {matrix.cols}"],
                             map(repr, matrix.data.ravel().tolist())))


def read_qmatrix(path) -> QMatrix:
    rows, cols, values = _read_body(path, QMAT_MAGIC, per_line=4)
    return QMatrix(values.reshape(rows, cols, 4))


def read_rmatrix(path) -> RMatrix:
    rows, cols, values = _read_body(path, RMAT_MAGIC, per_line=1)
    return RMatrix(values.reshape(rows, cols))


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _content_lines(raw_lines):
    """Yield (line_no, stripped_text) skipping comments and blank lines."""
    for line_no, raw in enumerate(raw_lines, start=1):
        text = raw.rstrip("\n").rstrip("\r")
        if not text.strip() or text.lstrip().startswith("#"):
            continue
        yield line_no, text


def _read_text(path) -> str:
    """The file as text mode reads it, but a byte that is not UTF-8 is a
    FormatError naming its line (no multibyte character holds CR or LF)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # a search for b"\r\n" alone costs more than the decode
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(data.count(b"\n", 0, err.start) + 1,
                          f"byte {data[err.start]:#04x} is not valid UTF-8") from None


def _read_body(path, magic, per_line):
    text = _read_text(path)
    raw = text.split("\n")
    return _regular_body(text, raw, magic, per_line) or _parse_lines(raw, magic, per_line)


def _regular_body(text, raw, magic, per_line):
    """(rows, cols, values) of a file laid out the way the writers lay it
    out, parsed in bulk; None for anything else, which the line loop then
    parses or rejects with a line number.

    Regular means: the header on line 1, the dimensions on line 2, no
    ``#`` anywhere, and exactly rows * cols further lines that np.loadtxt
    reads as `per_line` columns.  loadtxt converts each field with the
    same correctly rounded routine as float(), and refuses what float()
    takes beyond it (underscores, non-ASCII digits), so every file this
    accepts the loop accepts too, with bit-identical values.
    """
    if "#" in text or len(raw) < 3 or raw[0].split() != [magic, str(FORMAT_VERSION)]:
        return None
    dims = raw[1].split()
    body = raw[2:-1] if raw[-1] == "" else raw[2:]
    if len(dims) != 2:
        return None
    try:
        rows, cols = int(dims[0]), int(dims[1])
        # A first data line rules out an all-blank body, on which loadtxt warns.
        if rows < 1 or cols < 1 or len(body) != rows * cols or not body[0].strip():
            return None
        values = np.loadtxt(body, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (rows * cols, per_line):
        return None
    return rows, cols, values.ravel()


def _parse_lines(raw, magic, per_line):
    lines = _content_lines(raw)

    line_no, header = _next_line(lines, "missing header")
    parts = header.split()
    if parts != [magic, str(FORMAT_VERSION)]:
        raise FormatError(line_no, f"expected header '{magic} {FORMAT_VERSION}', got {header!r}")

    line_no, dims = _next_line(lines, "missing dimensions line")
    fields = dims.split()
    if len(fields) != 2:
        raise FormatError(line_no, f"expected '<rows> <cols>', got {dims!r}")
    try:
        rows, cols = int(fields[0]), int(fields[1])
    except ValueError:
        raise FormatError(line_no, f"dimensions must be integers, got {dims!r}") from None
    if rows < 1 or cols < 1:
        raise FormatError(line_no, f"dimensions must be positive, got {rows} x {cols}")

    count = rows * cols
    # Sized by the file too, so that no header allocates beyond it.
    values = np.empty(min(count, len(raw)) * per_line, dtype=np.float64)
    filled = 0
    last_line = line_no
    for line_no, text in lines:
        if filled >= count * per_line:
            raise FormatError(line_no, "unexpected extra data after matrix entries")
        tokens = text.split()
        if len(tokens) != per_line:
            raise FormatError(line_no, f"expected {per_line} value(s) per line, got {len(tokens)}")
        for tok in tokens:
            try:
                values[filled] = float(tok)
            except ValueError:
                raise FormatError(line_no, f"not a float: {tok!r}") from None
            filled += 1
        last_line = line_no
    if filled != count * per_line:
        raise FormatError(last_line, f"expected {count} entry line(s), file ended after "
                                     f"{filled // per_line}")
    return rows, cols, values


def _next_line(lines, missing_message):
    try:
        return next(lines)
    except StopIteration:
        raise FormatError(0, missing_message) from None


def matrix_file_kind(path) -> str:
    """Peek at the header magic of a matrix file ('QMAT' or 'RMAT')."""
    for _, text in _content_lines(_read_text(path).split("\n")):
        return text.split()[0]
    raise FormatError(0, "empty file")
