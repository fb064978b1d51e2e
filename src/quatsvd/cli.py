"""Command-line front end for batch work on QMAT/RMAT files.

Commands: ``gen`` (seeded random matrix), ``bidiag`` (real bidiagonal
reduction), ``svd`` (full decomposition), ``check`` (verify stored
factors against the source matrix), ``adjoint-svs`` (oracle singular
values).  Exit codes: 0 success/pass, 1 verification failure, 2 parse
or shape problems or a non-finite input entry, 3 numerical failure
(non-convergence, oracle pairs that do not resolve, or a result beyond
the float range).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import (FormatError, GroupingFailure, NoConvergence, NonFiniteInput,
                     ShapeMismatch)
from .formats import read_qmatrix, read_rmatrix, write_qmatrix, write_rmatrix
from .oracle import adjoint_singular_values
from .bidiag import bidiagonalize
from .qmat import RMatrix, _check_finite, random_qmatrix
from .qsvd import _DEFAULT_TOL, CheckResult, QsvdResult, VerifyReport, qsvd, verify

__all__ = ["main", "entry"]


class _CommandError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _argument(convert, valid, complaint: str):
    """An argparse type: `convert` the text, then check it with `valid`."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            noun = "an integer" if convert is int else "a number"
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(complaint.format(value))
        return value
    return parse


_positive_int = _argument(int, lambda v: v >= 1, "must be >= 1, got {}")
_seed = _argument(int, lambda v: 0 <= v < 2 ** 64, "seed must fit in an unsigned 64-bit integer")
_tolerance = _argument(float, lambda v: v > 0.0, "tolerance must be positive")


def _read(path: str, reader):
    """The matrix `reader` reads from `path`; a missing or malformed file,
    or a NaN or infinite entry, exits 2 with the path named."""
    try:
        matrix = reader(path)
        _check_finite(matrix.data, not isinstance(matrix, RMatrix))
        return matrix
    except FileNotFoundError:
        raise _CommandError(2, f"{path}: no such file") from None
    except (FormatError, NonFiniteInput, OSError) as err:
        raise _CommandError(2, f"{path}: {err}") from None


def _out_dir(ns) -> Path:
    directory = Path(ns.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _run_gen(ns) -> int:
    rng = np.random.Generator(np.random.PCG64(ns.seed))
    matrix = random_qmatrix(ns.rows, ns.cols, rng)
    Path(ns.out).parent.mkdir(parents=True, exist_ok=True)
    write_qmatrix(matrix, ns.out)
    return 0


def _run_bidiag(ns) -> int:
    a = _read(ns.input, read_qmatrix)
    result = bidiagonalize(a)
    directory = _out_dir(ns)
    write_qmatrix(result.left, directory / "L.qmat")
    write_rmatrix(result.bidiagonal, directory / "B.rmat")
    write_qmatrix(result.right, directory / "R.qmat")
    return 0


def _run_svd(ns) -> int:
    a = _read(ns.input, read_qmatrix)
    result = qsvd(a, want_vectors=not ns.values_only)
    directory = _out_dir(ns)
    sig = np.zeros(a.shape)
    n = len(result.sigma)
    sig[:n, :n] = np.diag(result.sigma)
    write_rmatrix(RMatrix(sig), directory / "S.rmat")
    if not ns.values_only:
        write_qmatrix(result.u, directory / "U.qmat")
        write_qmatrix(result.v, directory / "V.qmat")
    return 0


def _sigma_from_file(s: RMatrix, rows: int, cols: int) -> tuple[np.ndarray, CheckResult]:
    """Sigma, the diagonal of S, and the check that S is zero off it."""
    if s.shape != (rows, cols):
        raise ShapeMismatch(
            f"singular value matrix is {s.rows}x{s.cols}, expected {rows}x{cols}")
    off = s.data.copy()
    np.fill_diagonal(off, 0.0)
    return (np.diagonal(s.data)[: min(rows, cols)].copy(),
            CheckResult("diagonal(S)", float(np.abs(off).max()), 0.0))


def _run_check(ns) -> int:
    a = _read(ns.input, read_qmatrix)
    u = _read(ns.u, read_qmatrix)
    s = _read(ns.s, read_rmatrix)
    v = _read(ns.v, read_qmatrix)
    r, c = a.shape
    if u.shape != (r, r):
        raise ShapeMismatch(f"U is {u.rows}x{u.cols}, expected {r}x{r}")
    if v.shape != (c, c):
        raise ShapeMismatch(f"V is {v.rows}x{v.cols}, expected {c}x{c}")
    sigma, diagonal = _sigma_from_file(s, r, c)

    report = verify(a, QsvdResult(u=u, sigma=sigma, v=v), tol=ns.tol)
    report = VerifyReport(report.checks + (diagonal,))
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{check.name}: {check.value:.6e} (bound {check.bound:.6e}) {status}")
    if report.passed:
        print("PASS")
        return 0
    print("FAIL: " + ", ".join(c.name for c in report.failures()))
    return 1


def _run_adjoint_svs(ns) -> int:
    a = _read(ns.input, read_qmatrix)
    for value in adjoint_singular_values(a):
        print(repr(float(value)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatsvd",
        description="Quaternion matrix SVD toolbox over QMAT/RMAT text files.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a seeded random quaternion matrix")
    gen.add_argument("--rows", type=_positive_int, required=True)
    gen.add_argument("--cols", type=_positive_int, required=True)
    gen.add_argument("--seed", type=_seed, required=True)
    gen.add_argument("--out", required=True, help="output QMAT path")
    gen.set_defaults(func=_run_gen)

    bid = sub.add_parser("bidiag", help="reduce to a real bidiagonal matrix")
    bid.add_argument("input", help="input QMAT path")
    bid.add_argument("--out-dir", required=True, help="directory for L.qmat, B.rmat, R.qmat")
    bid.set_defaults(func=_run_bidiag)

    svd = sub.add_parser("svd", help="full singular value decomposition")
    svd.add_argument("input", help="input QMAT path")
    svd.add_argument("--out-dir", required=True, help="directory for U.qmat, S.rmat, V.qmat")
    svd.add_argument("--values-only", action="store_true",
                     help="skip singular vectors; write S.rmat only")
    svd.set_defaults(func=_run_svd)

    chk = sub.add_parser("check", help="verify stored factors against a matrix")
    chk.add_argument("input", help="source QMAT path")
    chk.add_argument("--u", required=True, help="U.qmat path")
    chk.add_argument("--s", required=True, help="S.rmat path")
    chk.add_argument("--v", required=True, help="V.qmat path")
    chk.add_argument("--tol", type=_tolerance, default=_DEFAULT_TOL)
    chk.set_defaults(func=_run_check)

    adj = sub.add_parser("adjoint-svs", help="singular values via the complex adjoint oracle")
    adj.add_argument("input", help="input QMAT path")
    adj.set_defaults(func=_run_adjoint_svs)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except _CommandError as err:
        code, message = err.code, str(err)
    except (ShapeMismatch, FormatError, OSError) as err:
        code, message = 2, str(err)
    except (NoConvergence, GroupingFailure, OverflowError) as err:
        code, message = 3, str(err)
    print(f"error: {message}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
