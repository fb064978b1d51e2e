"""QMAT / RMAT text formats, version 1.

QMAT: line 1 ``QMAT 1``, line 2 ``<rows> <cols>`` in ASCII decimal digits,
then rows*cols lines of four whitespace-separated floats ``w x y z`` in
row-major order.  RMAT is the same with header ``RMAT 1`` and one float
per line.  Files are UTF-8; the writers end lines with LF, and CRLF or a
lone CR reads as LF.  Blank lines are ignored, and so is a line whose
first non-blank character is ``#``; a ``#`` later in a line is a field.
Each field is read as np.loadtxt reads a float64, which takes neither the
digit-group underscores nor the non-ASCII digits that float() also reads.
Floats are written with shortest round-trip formatting, so write/parse is
bit-exact."""

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
    """Yield (line_no, text) of each line that is neither blank nor a comment."""
    for line_no, text in enumerate(raw_lines, start=1):
        if text.strip() and not text.lstrip().startswith("#"):
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
    """(rows, cols, values) of a file with `per_line` floats per entry.

    The header and the dimensions are parsed from the first two content
    lines.  Every entry is then read by one np.loadtxt call over the lines
    after the dimensions, full-line comments dropped first; loadtxt skips
    blank lines itself.  A body that loadtxt refuses, or reads to any shape
    but one row per entry, raises the error _first_bad_line names.
    """
    text = _read_text(path)
    raw = text.split("\n")
    lines = _content_lines(raw)

    _read_header(lines, (magic,))
    line_no, dims = _next_line(lines, "missing dimensions line")
    fields = dims.split()
    if len(fields) != 2:
        raise FormatError(line_no, f"expected '<rows> <cols>', got {dims!r}")
    try:
        # int() alone also reads a sign, digit-group underscores and
        # non-ASCII digits; it still raises past its limit on digits.
        if not all(f.isascii() and f.isdigit() for f in fields):
            raise ValueError
        rows, cols = int(fields[0]), int(fields[1])
    except ValueError:
        raise FormatError(line_no, f"dimensions must be integers, got {dims!r}") from None
    if rows < 1 or cols < 1:
        raise FormatError(line_no, f"dimensions must be positive, got {rows} x {cols}")

    body = raw[line_no:]
    if "#" in text:
        body = [line for line in body if not line.lstrip().startswith("#")]
    values = None
    # On a body with no data line loadtxt warns instead of raising.
    if any(map(str.strip, body)):
        try:
            values = np.loadtxt(body, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape != (rows * cols, per_line):
        raise _first_bad_line(lines, line_no, rows * cols, per_line)
    return rows, cols, values.ravel()


def _first_bad_line(lines, last_line, count, per_line):
    """The FormatError of the first content line in `lines` that breaks
    the layout of `count` entries of `per_line` fields, or of the file
    ending early after `last_line`.  Each field is judged by np.loadtxt
    alone, as the one read judged it, so every body that read refuses gets
    the error of its first bad line and no other."""
    entries = 0
    for last_line, text in lines:
        if entries == count:
            return FormatError(last_line, "unexpected extra data after matrix entries")
        tokens = text.split()
        if len(tokens) != per_line:
            return FormatError(last_line,
                               f"expected {per_line} value(s) per line, got {len(tokens)}")
        for tok in tokens:
            try:
                np.loadtxt([tok], dtype=np.float64, comments=None)
            except ValueError:
                return FormatError(last_line, f"not a float: {tok!r}")
        entries += 1
    return FormatError(last_line, f"expected {count} entry line(s), file ended after {entries}")


def _read_header(lines, magics) -> str:
    """The magic of the header, the first content line of `lines`: one of
    `magics` and version 1, or a FormatError on that line."""
    line_no, header = _next_line(lines, "missing header")
    if header.split() not in [[m, str(FORMAT_VERSION)] for m in magics]:
        expected = " or ".join(f"'{m} {FORMAT_VERSION}'" for m in magics)
        raise FormatError(line_no, f"expected header {expected}, got {header!r}")
    return header.split()[0]


def _next_line(lines, missing_message):
    try:
        return next(lines)
    except StopIteration:
        raise FormatError(0, missing_message) from None


def matrix_file_kind(path) -> str:
    """The header magic of a matrix file, 'QMAT' or 'RMAT', by the readers'
    rule: any other header is a FormatError on its line."""
    return _read_header(_content_lines(_read_text(path).split("\n")), (QMAT_MAGIC, RMAT_MAGIC))
