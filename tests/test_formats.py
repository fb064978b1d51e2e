import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatsvd.errors import FormatError
from quatsvd.formats import (matrix_file_kind, read_qmatrix, read_rmatrix,
                             write_qmatrix, write_rmatrix)
from quatsvd.qmat import QMatrix, RMatrix

finite = st.floats(allow_nan=False, allow_infinity=False)


def test_qmat_layout(tmp_path):
    path = tmp_path / "m.qmat"
    write_qmatrix(QMatrix.zeros(2, 3), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "QMAT 1"
    assert lines[1] == "2 3"
    assert len(lines) == 2 + 6
    assert all(len(line.split()) == 4 for line in lines[2:])


def test_rmat_layout(tmp_path):
    path = tmp_path / "m.rmat"
    write_rmatrix(RMatrix(np.array([[1.5, 2.0]])), path)
    assert path.read_text() == "RMAT 1\n1 2\n1.5\n2.0\n"


@given(rows=st.integers(1, 5), cols=st.integers(1, 5), data=st.data())
@settings(max_examples=50, deadline=None)
def test_qmat_round_trip_bit_exact(tmp_path_factory, rows, cols, data):
    comps = data.draw(st.lists(finite, min_size=rows * cols * 4, max_size=rows * cols * 4))
    m = QMatrix(np.array(comps).reshape(rows, cols, 4))
    path = tmp_path_factory.mktemp("qm") / "m.qmat"
    write_qmatrix(m, path)
    back = read_qmatrix(path)
    assert np.array_equal(m.data, back.data)
    # -0.0 and tiny denormals must survive byte-for-byte
    write_qmatrix(back, path.with_suffix(".2"))
    assert path.read_bytes() == path.with_suffix(".2").read_bytes()


@given(rows=st.integers(1, 5), cols=st.integers(1, 5), data=st.data())
@settings(max_examples=50, deadline=None)
def test_rmat_round_trip_bit_exact(tmp_path_factory, rows, cols, data):
    vals = data.draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols))
    m = RMatrix(np.array(vals).reshape(rows, cols))
    path = tmp_path_factory.mktemp("rm") / "m.rmat"
    write_rmatrix(m, path)
    assert np.array_equal(m.data, read_rmatrix(path).data)


def test_special_values_round_trip(tmp_path):
    vals = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1 / 3, -1e-200]
    m = RMatrix(np.array(vals).reshape(7, 1))
    path = tmp_path / "v.rmat"
    write_rmatrix(m, path)
    back = read_rmatrix(path).data
    assert np.array_equal(m.data, back)
    assert np.signbit(back[1, 0])


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "c.qmat"
    path.write_text("# generated fixture\n\nQMAT 1\n# dims next\n1 1\n\n1.0 2.0 3.0 4.0\n# trailing note\n")
    m = read_qmatrix(path)
    assert m.shape == (1, 1)
    assert list(m.data[0, 0]) == [1.0, 2.0, 3.0, 4.0]


def test_crlf_and_cr_line_ends_read_as_lf(tmp_path):
    path = tmp_path / "c.qmat"
    write_qmatrix(QMatrix(np.arange(8.0).reshape(2, 1, 4)), path)
    lf = path.read_bytes()
    for newline in (b"\r\n", b"\r"):
        path.write_bytes(lf.replace(b"\n", newline))
        assert np.array_equal(read_qmatrix(path).data, np.arange(8.0).reshape(2, 1, 4))
        assert matrix_file_kind(path) == "QMAT"


# content: (line number, message); every case fails with both.
PARSE_ERRORS = {
    "QMAT 2\n1 1\n1 0 0 0\n": (1, "expected header 'QMAT 1', got 'QMAT 2'"),
    "RMAT 1\n1 1\n1\n": (1, "expected header 'QMAT 1', got 'RMAT 1'"),  # wrong magic
    "QMAT 1\n1\n1 0 0 0\n": (2, "expected '<rows> <cols>', got '1'"),
    "QMAT 1\n0 4\n": (2, "dimensions must be positive, got 0 x 4"),
    "QMAT 1\na b\n": (2, "dimensions must be integers, got 'a b'"),
    # int() reads both of these as 10 and 1; the file is UTF-8, so the
    # Arabic-Indic digit one is written as its two bytes.
    "QMAT 1\n1_0 1\n": (2, "dimensions must be integers, got '1_0 1'"),
    "QMAT 1\n1 \xd9\xa1\n": (2, "dimensions must be integers, got '1 \u0661'"),
    "QMAT 1\n-1 1\n": (2, "dimensions must be integers, got '-1 1'"),
    "QMAT 1\n1 1\n1 0 0\n": (3, "expected 4 value(s) per line, got 3"),
    "QMAT 1\n1 1\n1 0 0 nope\n": (3, "not a float: 'nope'"),
    "QMAT 1\n1 1\n1 0 0 0\n9 9 9 9\n": (4, "unexpected extra data after matrix entries"),
    "QMAT 1\n# caf\xe9\n1 1\n1 0 0 0\n": (2, "byte 0xe9 is not valid UTF-8"),
    "QMAT 1\r1 1\r1 0 \xff 0\r": (3, "byte 0xff is not valid UTF-8"),  # lone CRs end lines
    # A comment takes a whole line; a mid-line # is two more fields.
    "QMAT 1\n1 1\n1 0 0 0 # note\n": (3, "expected 4 value(s) per line, got 6"),
    # No data line at all: an error, not loadtxt's "input contained no
    # data" warning, which filterwarnings = error would turn into a crash.
    "QMAT 1\n1 1\n": (2, "expected 1 entry line(s), file ended after 0"),
    "QMAT 1\n1 1\n\n  \n": (2, "expected 1 entry line(s), file ended after 0"),
    "QMAT 1\n1 1\n# only a note\n": (2, "expected 1 entry line(s), file ended after 0"),
}


@pytest.mark.parametrize("content, line_no", [(c, n) for c, (n, _) in PARSE_ERRORS.items()])
def test_parse_errors_carry_line_numbers(tmp_path, content, line_no):
    path = tmp_path / "bad.qmat"
    path.write_text(content, encoding="latin-1")  # one byte per character
    with pytest.raises(FormatError) as err:
        read_qmatrix(path)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {PARSE_ERRORS[content][1]}"


def test_truncated_file_reports_last_line(tmp_path):
    path = tmp_path / "short.qmat"
    path.write_text("QMAT 1\n2 2\n1 0 0 0\n")
    with pytest.raises(FormatError) as err:
        read_qmatrix(path)
    assert "expected 4 entry line(s)" in str(err.value)
    # Dimensions far beyond memory allocate nothing before the count.
    path.write_text("QMAT 1\n99999999999 99999999999\n1 0 0 0\n")
    with pytest.raises(FormatError) as err:
        read_qmatrix(path)
    assert err.value.line_no == 3 and "file ended after 1" in str(err.value)
    # Past int()'s limit on digits they are still a FormatError.
    path.write_text("QMAT 1\n" + "9" * 5000 + " 1\n1 0 0 0\n")
    with pytest.raises(FormatError, match="^line 2: dimensions must be integers"):
        read_qmatrix(path)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.qmat"
    path.write_text("")
    with pytest.raises(FormatError):
        read_qmatrix(path)
    with pytest.raises(FormatError):
        matrix_file_kind(path)
    path.write_bytes(b"\xffQMAT 1\n")
    with pytest.raises(FormatError, match="line 1: byte 0xff is not valid UTF-8"):
        matrix_file_kind(path)


def test_matrix_file_kind(tmp_path):
    q = tmp_path / "a.qmat"
    r = tmp_path / "b.rmat"
    write_qmatrix(QMatrix.identity(2), q)
    write_rmatrix(RMatrix.identity(2), r)
    assert matrix_file_kind(q) == "QMAT"
    assert matrix_file_kind(r) == "RMAT"


# --- large files -------------------------------------------------------------


def _special_matrix():
    """64 x 64 with -0.0, subnormals and the largest double among random
    entries of every magnitude."""
    rng = np.random.default_rng(11)
    data = rng.standard_normal((64, 64, 4)) * 10.0 ** rng.integers(-300, 300, (64, 64, 4))
    data.reshape(-1)[:8] = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            1.7976931348623157e308, -1.7976931348623157e308, 1 / 3]
    return QMatrix(data)


def _per_entry_text(magic, shape, rows_of_values):
    # The writers' layout, one repr(float) at a time.
    lines = [f"{magic} 1", f"{shape[0]} {shape[1]}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in rows_of_values]
    return "\n".join(lines) + "\n"


def test_bulk_writers_match_per_entry_formatting(tmp_path):
    m = _special_matrix()
    write_qmatrix(m, tmp_path / "m.qmat")
    assert (tmp_path / "m.qmat").read_text() == _per_entry_text(
        "QMAT", m.shape, m.data.reshape(-1, 4))
    r = RMatrix(m.data[..., 0])
    write_rmatrix(r, tmp_path / "m.rmat")
    assert (tmp_path / "m.rmat").read_text() == _per_entry_text(
        "RMAT", r.shape, r.data.reshape(-1, 1))


def test_large_special_matrix_reads_back_bit_for_bit(tmp_path):
    # The read agrees, byte for byte, with float() of every written field.
    m = _special_matrix()
    path = tmp_path / "m.qmat"
    write_qmatrix(m, path)
    entries = [float(tok) for tok in path.read_text().split()[4:]]
    assert np.array(entries).tobytes() == m.data.tobytes()
    assert read_qmatrix(path).data.tobytes() == m.data.tobytes()


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:1000] + ["# a note mid-body"] + lines[1000:],
    lambda lines: lines[:1000] + ["", "   "] + lines[1000:],
    lambda lines: ["# leading comment"] + lines,
    lambda lines: lines[:500] + [lines[500].replace(" ", "\t  ")] + lines[501:],
    lambda lines: lines[:500] + [lines[500].replace("e", "E")] + lines[501:],
])
def test_irregular_but_valid_layouts_parse(tmp_path, edit):
    m = _special_matrix()
    path = tmp_path / "m.qmat"
    write_qmatrix(m, path)
    lines = path.read_text().split("\n")[:-1]
    path.write_text("\n".join(edit(lines)) + "\n")
    assert read_qmatrix(path).data.tobytes() == m.data.tobytes()


def test_underscores_and_non_ascii_digits_are_errors(tmp_path):
    # float() reads both, as 10 and 1; np.loadtxt, the one reader, reads neither.
    path = tmp_path / "u.rmat"
    for tok in ("1_0", "\u0661"):
        path.write_text(f"RMAT 1\n1 2\n{tok}\n2.5\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_rmatrix(path)
        assert str(err.value) == f"line 3: not a float: {tok!r}"


@pytest.mark.parametrize("damage, message", [
    (lambda line: " ".join(line.split()[:3]), "expected 4 value(s) per line, got 3"),
    (lambda line: line + " 7", "expected 4 value(s) per line, got 5"),
    (lambda line: line.replace(line.split()[2], "x1"), "not a float: 'x1'"),
])
def test_error_deep_in_a_large_file_names_its_line(tmp_path, damage, message):
    m = _special_matrix()
    path = tmp_path / "m.qmat"
    write_qmatrix(m, path)
    lines = path.read_text().split("\n")
    lines[3000] = damage(lines[3000])
    path.write_text("\n".join(lines))
    with pytest.raises(FormatError) as err:
        read_qmatrix(path)
    assert err.value.line_no == 3001
    assert message in str(err.value)


def test_truncated_large_file_reports_last_line(tmp_path):
    m = _special_matrix()
    path = tmp_path / "m.qmat"
    write_qmatrix(m, path)
    lines = path.read_text().split("\n")[:2 + 4000]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        read_qmatrix(path)
    assert err.value.line_no == 4002
    assert "file ended after 4000" in str(err.value)
