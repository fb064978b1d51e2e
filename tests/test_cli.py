"""Command-line workflows over QMAT/RMAT files, driven in-process."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import quatsvd.cli
from quatsvd import (
    GroupingFailure,
    QMatrix,
    Quaternion,
    RMatrix,
    random_qmatrix,
    read_qmatrix,
    read_rmatrix,
    write_qmatrix,
    write_rmatrix,
)
from quatsvd.cli import main
from quatsvd.qsvd import QsvdResult, verify


def write_scalar(path, q):
    write_qmatrix(QMatrix.from_quaternions([[q]]), path)


def run_svd(tmp_path, matrix, name="a"):
    src = tmp_path / f"{name}.qmat"
    write_qmatrix(matrix, src)
    out = tmp_path / f"{name}_svd"
    assert main(["svd", str(src), "--out-dir", str(out)]) == 0
    return src, out


# --- gen ---------------------------------------------------------------------


def test_gen_is_deterministic(tmp_path):
    first = tmp_path / "one.qmat"
    second = tmp_path / "two.qmat"
    assert main(["gen", "--rows", "3", "--cols", "2", "--seed", "42", "--out", str(first)]) == 0
    assert main(["gen", "--rows", "3", "--cols", "2", "--seed", "42", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    lines = first.read_text().splitlines()
    assert lines[0] == "QMAT 1"
    assert lines[1] == "3 2"
    assert len(lines) == 2 + 6

    third = tmp_path / "three.qmat"
    assert main(["gen", "--rows", "3", "--cols", "2", "--seed", "43", "--out", str(third)]) == 0
    assert first.read_bytes() != third.read_bytes()


def test_gen_entries_lie_in_unit_box(tmp_path):
    path = tmp_path / "m.qmat"
    assert main(["gen", "--rows", "5", "--cols", "4", "--seed", "7", "--out", str(path)]) == 0
    data = read_qmatrix(path).data
    assert np.all(np.abs(data) <= 1.0)


def test_gen_rejects_bad_arguments(tmp_path, capsys):
    out = str(tmp_path / "m.qmat")
    assert main(["gen", "--rows", "0", "--cols", "2", "--seed", "1", "--out", out]) == 2
    assert main(["gen", "--rows", "2", "--cols", "2", "--seed", str(2**64), "--out", out]) == 2
    assert main(["gen", "--rows", "2", "--cols", "2", "--seed", "-1", "--out", out]) == 2
    capsys.readouterr()
    assert main(["gen", "--rows", "abc", "--cols", "2", "--seed", "1", "--out", out]) == 2
    assert "not an integer: 'abc'" in capsys.readouterr().err


# --- bidiag ------------------------------------------------------------------


def test_bidiag_writes_three_factors(tmp_path):
    src = tmp_path / "a.qmat"
    write_scalar(src, Quaternion(0, 2))
    out = tmp_path / "fact"
    assert main(["bidiag", str(src), "--out-dir", str(out)]) == 0

    b = read_rmatrix(out / "B.rmat").data
    assert abs(b[0, 0] - 2.0) <= 1e-14
    left = read_qmatrix(out / "L.qmat")
    right = read_qmatrix(out / "R.qmat")
    assert left.shape == (1, 1) and right.shape == (1, 1)
    # L A R must land on B: for a single entry, L = conj(a)/|a|
    assert abs(left[0, 0] - Quaternion(0, -1)) <= 1e-14


# --- svd + check -------------------------------------------------------------


def test_svd_of_zero_scalar(tmp_path):
    _, out = run_svd(tmp_path, QMatrix.zeros(1, 1))
    assert read_rmatrix(out / "S.rmat").data[0, 0] == 0.0


def test_svd_unit_k(tmp_path):
    src, out = run_svd(tmp_path, QMatrix.from_quaternions([[Quaternion(0, 0, 0, 1)]]))
    s = read_rmatrix(out / "S.rmat").data
    assert abs(s[0, 0] - 1.0) <= 1e-14
    u = read_qmatrix(out / "U.qmat")
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-14


def test_svd_values_only_writes_sigma_alone(tmp_path):
    src = tmp_path / "a.qmat"
    assert main(["gen", "--rows", "4", "--cols", "3", "--seed", "3", "--out", str(src)]) == 0
    out = tmp_path / "vals"
    assert main(["svd", str(src), "--out-dir", str(out), "--values-only"]) == 0
    assert (out / "S.rmat").exists()
    assert not (out / "U.qmat").exists()
    assert not (out / "V.qmat").exists()
    s = read_rmatrix(out / "S.rmat").data
    assert s.shape == (4, 3)
    d = np.diagonal(s)
    assert np.all(np.diff(d) <= 0.0) and np.all(d >= 0.0)


def test_check_round_trip_passes(tmp_path, capsys):
    src = tmp_path / "a.qmat"
    assert main(["gen", "--rows", "5", "--cols", "3", "--seed", "11", "--out", str(src)]) == 0
    out = tmp_path / "svd"
    assert main(["svd", str(src), "--out-dir", str(out)]) == 0
    capsys.readouterr()

    code = main(["check", str(src), "--u", str(out / "U.qmat"),
                 "--s", str(out / "S.rmat"), "--v", str(out / "V.qmat")])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out
    for name in ["reconstruction", "unitarity(U)", "unitarity(V)",
                 "nonnegativity", "ordering", "oracle", "diagonal(S)"]:
        assert name in captured.out


def test_check_default_tolerance_is_verify_default(tmp_path, capsys):
    """Without --tol, check prints the bounds that verify's own default gives."""
    a = random_qmatrix(4, 3, np.random.default_rng(17))
    src, out = run_svd(tmp_path, a)
    capsys.readouterr()
    files = [str(out / name) for name in ("U.qmat", "S.rmat", "V.qmat")]
    assert main(["check", str(src), "--u", files[0], "--s", files[1], "--v", files[2]]) == 0
    printed = capsys.readouterr().out
    s = read_rmatrix(files[1]).data
    report = verify(a, QsvdResult(read_qmatrix(files[0]), np.diagonal(s).copy(),
                                  read_qmatrix(files[2])))
    for check in report.checks:
        assert f"{check.name}: {check.value:.6e} (bound {check.bound:.6e}) pass" in printed


def test_check_flags_corrupted_factor(tmp_path, capsys):
    src = tmp_path / "a.qmat"
    assert main(["gen", "--rows", "3", "--cols", "3", "--seed", "13", "--out", str(src)]) == 0
    out = tmp_path / "svd"
    assert main(["svd", str(src), "--out-dir", str(out)]) == 0

    u = read_qmatrix(out / "U.qmat")
    u.data[:, 0, :] = 0.0
    write_qmatrix(u, out / "U.qmat")
    capsys.readouterr()

    code = main(["check", str(src), "--u", str(out / "U.qmat"),
                 "--s", str(out / "S.rmat"), "--v", str(out / "V.qmat")])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    assert "unitarity(U)" in captured.out


def test_check_flags_a_huge_factor_entry_without_warning(tmp_path, capsys):
    # 1e300 is finite, so it passes the file check and reaches verify.
    src, out = run_svd(tmp_path, random_qmatrix(4, 3, np.random.default_rng(8)))
    u = read_qmatrix(out / "U.qmat")
    u.data[2, 1, 3] = 1e300
    write_qmatrix(u, out / "U.qmat")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["check", str(src), "--u", str(out / "U.qmat"), "--s", str(out / "S.rmat"),
                     "--v", str(out / "V.qmat")])
    captured = capsys.readouterr()
    assert code == 1
    assert "unitarity(U)" in captured.out.splitlines()[-1].split("FAIL: ")[1].split(", ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in captured.err


def test_check_flags_off_diagonal_sigma(tmp_path, capsys):
    src = tmp_path / "a.qmat"
    assert main(["gen", "--rows", "4", "--cols", "3", "--seed", "1", "--out", str(src)]) == 0
    out = tmp_path / "svd"
    assert main(["svd", str(src), "--out-dir", str(out)]) == 0

    s = read_rmatrix(out / "S.rmat")
    s.data[2, 0] = 5.0
    write_rmatrix(s, out / "S.rmat")
    capsys.readouterr()

    code = main(["check", str(src), "--u", str(out / "U.qmat"),
                 "--s", str(out / "S.rmat"), "--v", str(out / "V.qmat")])
    captured = capsys.readouterr()
    assert code == 1
    assert "diagonal(S): 5.000000e+00 (bound 0.000000e+00) FAIL" in captured.out
    assert "FAIL: diagonal(S)" in captured.out


def test_check_accepts_rank_deficient_input(tmp_path, capsys):
    rng = np.random.default_rng(26)
    for i in range(50):
        src, out = run_svd(tmp_path, random_qmatrix(6, 2, rng) @ random_qmatrix(2, 5, rng),
                           name=f"rank2_{i}")
        code = main(["check", str(src), "--u", str(out / "U.qmat"),
                     "--s", str(out / "S.rmat"), "--v", str(out / "V.qmat")])
        captured = capsys.readouterr()
        assert code == 0, captured.out


def test_check_rejects_wrong_shape_factor(tmp_path, capsys):
    src = tmp_path / "a.qmat"
    assert main(["gen", "--rows", "3", "--cols", "2", "--seed", "17", "--out", str(src)]) == 0
    out = tmp_path / "svd"
    assert main(["svd", str(src), "--out-dir", str(out)]) == 0
    files = {"--u": out / "U.qmat", "--s": out / "S.rmat", "--v": out / "V.qmat"}
    for flag, wrong, message in [
            ("--v", QMatrix.identity(3), "V is 3x3, expected 2x2"),
            ("--u", QMatrix.identity(2), "U is 2x2, expected 3x3"),
            ("--s", RMatrix.identity(2), "singular value matrix is 2x2, expected 3x2")]:
        path = tmp_path / "wrong"
        (write_rmatrix if isinstance(wrong, RMatrix) else write_qmatrix)(wrong, path)
        args = [str(part) for pair in {**files, flag: path}.items() for part in pair]
        assert main(["check", str(src), *args]) == 2
        assert f"error: {message}" in capsys.readouterr().err


def test_check_rejects_bad_tolerance(tmp_path, capsys):
    src = tmp_path / "a.qmat"
    write_scalar(src, Quaternion(1))
    code = main(["check", str(src), "--u", str(src), "--s", str(src),
                 "--v", str(src), "--tol", "-1"])
    capsys.readouterr()
    assert code == 2
    code = main(["check", str(src), "--u", str(src), "--s", str(src),
                 "--v", str(src), "--tol", "x"])
    assert code == 2
    assert "not a number: 'x'" in capsys.readouterr().err


# --- adjoint-svs ---------------------------------------------------------------


def test_adjoint_svs_prints_values(tmp_path, capsys):
    src = tmp_path / "two.qmat"
    write_scalar(src, Quaternion(2))
    assert main(["adjoint-svs", str(src)]) == 0
    assert capsys.readouterr().out == "2.0\n"


def test_adjoint_svs_zero_matrix(tmp_path, capsys):
    src = tmp_path / "z.qmat"
    write_qmatrix(QMatrix.zeros(2, 3), src)
    assert main(["adjoint-svs", str(src)]) == 0
    assert capsys.readouterr().out == "0.0\n0.0\n"


def test_adjoint_svs_agrees_with_svd_command(tmp_path, capsys):
    src = tmp_path / "a.qmat"
    assert main(["gen", "--rows", "4", "--cols", "4", "--seed", "19", "--out", str(src)]) == 0
    out = tmp_path / "svd"
    assert main(["svd", str(src), "--out-dir", str(out), "--values-only"]) == 0
    capsys.readouterr()

    assert main(["adjoint-svs", str(src)]) == 0
    oracle = np.array([float(line) for line in capsys.readouterr().out.split()])
    sigma = np.diagonal(read_rmatrix(out / "S.rmat").data)
    assert np.max(np.abs(sigma - oracle)) <= 1e-10 * max(oracle[0], 1.0)


def test_adjoint_svs_grouping_failure_exits_three(tmp_path, capsys, monkeypatch):
    def unresolved(a):
        raise GroupingFailure("fourfold multiplicity not resolved")

    monkeypatch.setattr(quatsvd.cli, "adjoint_singular_values", unresolved)
    src = tmp_path / "a.qmat"
    write_scalar(src, Quaternion(2))
    code = main(["adjoint-svs", str(src)])
    captured = capsys.readouterr()
    assert code == 3
    assert "error:" in captured.err
    assert captured.out == ""


def test_band_svd_failure_exits_three_with_its_counters(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    src = tmp_path / "a.qmat"
    write_qmatrix(random_qmatrix(3, 2, np.random.default_rng(4)), src)
    code = main(["svd", str(src), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    # The band's order and its norm, a positive float, are on stderr.
    assert "n=2" in err
    norm = re.search(r"band norm (\S+):", err)
    assert norm is not None and float(norm.group(1)) > 0.0


# --- failure modes ----------------------------------------------------------------


def test_malformed_header_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.qmat"
    bad.write_text("QMAT 2\n1 1\n1.0 0.0 0.0 0.0\n")
    code = main(["svd", str(bad), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 1" in captured.err


@pytest.mark.parametrize("content, message", [
    (b"QMAT 1\n1 1\n1 0 \xff 0\n", "line 3: byte 0xff is not valid UTF-8"),
    (b"QMAT 1\n99999999999 99999999999\n1 0 0 0\n", "line 3: expected"),
], ids=["not-utf8", "huge-dimensions"])
def test_unreadable_input_exits_two_naming_the_path(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.qmat"
    bad.write_bytes(content)
    code = main(["svd", str(bad), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{bad}: {message}" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_missing_input_exits_two(tmp_path, capsys):
    code = main(["svd", str(tmp_path / "absent.qmat"), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "no such file" in captured.err


def test_non_finite_input_exits_two(tmp_path, capsys):
    for name, bad in [("nan", np.nan), ("inf", np.inf)]:
        a = random_qmatrix(3, 2, np.random.default_rng(4))
        a.data[1, 0, 2] = bad
        src = tmp_path / f"{name}.qmat"
        write_qmatrix(a, src)
        code = main(["svd", str(src), "--out-dir", str(tmp_path / name)])
        captured = capsys.readouterr()
        assert code == 2
        assert "(1, 0)" in captured.err and "not finite" in captured.err


def test_non_finite_input_exits_two_in_every_command(tmp_path, capsys):
    for name, bad in [("nan", np.nan), ("inf", -np.inf)]:
        a = random_qmatrix(3, 2, np.random.default_rng(4))
        a.data[2, 1, 3] = bad
        src = tmp_path / f"{name}.qmat"
        write_qmatrix(a, src)
        eye = tmp_path / "eye.qmat"
        write_qmatrix(QMatrix.identity(3), eye)
        runs = {
            "bidiag": ["bidiag", str(src), "--out-dir", str(tmp_path / f"{name}_b")],
            "adjoint-svs": ["adjoint-svs", str(src)],
            "check": ["check", str(src), "--u", str(eye), "--s", str(eye), "--v", str(eye)],
        }
        for command, argv in runs.items():
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2, command
            assert "(2, 1)" in captured.err and "not finite" in captured.err, command
        # Nothing is written for a rejected input.
        assert not (tmp_path / f"{name}_b" / "B.rmat").exists()


def write_real(path, rows, cols, value):
    data = np.zeros((rows, cols, 4))
    data[..., 0] = value
    write_qmatrix(QMatrix(data), path)


@pytest.mark.parametrize("command", [["svd"], ["svd", "--values-only"], ["bidiag"],
                                     ["adjoint-svs"]])
def test_result_beyond_the_float_range_exits_three(tmp_path, capsys, command):
    # The column's norm, sqrt(8) * 1e308, is its singular value and its B.
    src = tmp_path / "big.qmat"
    write_real(src, 8, 1, 1e308)
    out = tmp_path / "out"
    argv = command[:1] + [str(src)] + command[1:]
    if command[0] != "adjoint-svs":
        argv += ["--out-dir", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert "beyond the float range" in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_band_that_fits_is_written_when_sigma_does_not(tmp_path, capsys):
    # A real 2 x 2 of 1e308 has B = [[r, r], [0, 0]], r = sqrt(2) * 1e308,
    # and sigma_max = 2e308.
    src = tmp_path / "big.qmat"
    write_real(src, 2, 2, 1e308)
    assert main(["bidiag", str(src), "--out-dir", str(tmp_path / "b")]) == 0
    band = read_rmatrix(tmp_path / "b" / "B.rmat").data
    assert band[0] == pytest.approx([np.sqrt(2.0) * 1e308] * 2, rel=1e-15)
    assert main(["svd", str(src), "--out-dir", str(tmp_path / "s")]) == 3
    assert "beyond the float range" in capsys.readouterr().err


@pytest.mark.parametrize("factor", ["U", "S", "V"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_rejects_non_finite_factor_entries(tmp_path, capsys, factor, bad):
    src, out = run_svd(tmp_path, random_qmatrix(4, 3, np.random.default_rng(8)))
    if factor == "S":
        path = out / "S.rmat"
        s = read_rmatrix(path)
        s.data[2, 1] = bad
        write_rmatrix(s, path)
    else:
        path = out / f"{factor}.qmat"
        m = read_qmatrix(path)
        m.data[2, 1, 3] = bad
        write_qmatrix(m, path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["check", str(src), "--u", str(out / "U.qmat"), "--s", str(out / "S.rmat"),
                     "--v", str(out / "V.qmat")])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{path}: entry (2, 1) is not finite" in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in captured.err


def test_module_runs_as_a_script(tmp_path):
    paths = [str(Path(quatsvd.cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = tmp_path / "m.qmat"
    run = [sys.executable, "-m", "quatsvd.cli", "gen", "--cols", "3", "--seed", "5"]
    done = subprocess.run(run + ["--rows", "2", "--out", str(out)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert read_qmatrix(out).shape == (2, 3)
    done = subprocess.run(run + ["--rows", "0", "--out", str(tmp_path / "bad.qmat")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
