"""Singular value decomposition of a quaternion matrix.

Pipeline: reduce A to a real bidiagonal B with quaternion Householder
reflectors (L A R = B), take the SVD of the real band with LAPACK, and
lift the real factors back through the quaternion ones:

    A = U Sigma conj(V).T,   U = conj(L).T W,   V = R X

with W, X embedded into identities when A is not square.  The real core
never sees quaternions and the lift is four real gemms per factor, so
values and vectors inherit the real SVD's accuracy.  A is first scaled
by an exact power of two, so that no intermediate overflows or
underflows, and sigma is scaled back at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bidiag import bidiagonalize, extract_band
from .errors import GroupingFailure, NoConvergence, ShapeMismatch
from .oracle import adjoint_error_bound, adjoint_singular_values
from .qmat import QMatrix, _CONJ, _check_range
from .rsvd import bidiag_svd

__all__ = ["QsvdResult", "qsvd", "reconstruct", "verify", "CheckResult", "VerifyReport"]


@dataclass(frozen=True)
class QsvdResult:
    """Factors with ``A == u @ Sigma @ conj(v).T``; sigma descending >= 0."""
    u: QMatrix | None
    sigma: np.ndarray
    v: QMatrix | None


def _exponent(data: np.ndarray) -> int:
    """e with max |entry| * 2**-e in [1/2, 1); 0 for the zero matrix."""
    return int(np.frexp(np.abs(data).max())[1])


def _lift(q: np.ndarray, core: np.ndarray) -> QMatrix:
    """``q @ diag(core, I)`` for a quaternion component array q and a real
    n x n core: one real gemm per component on the leading n columns, the
    rest copied."""
    n = core.shape[0]
    out = q.copy()
    out[:, :n, :] = np.matmul(q[:, :n, :].transpose(2, 0, 1), core).transpose(1, 2, 0)
    return QMatrix(out)


def qsvd(a: QMatrix, want_vectors: bool = True) -> QsvdResult:
    """SVD of an arbitrary quaternion matrix.

    Returns square unitary factors U (r x r) and V (c x c);
    ``want_vectors=False`` skips forming the factors and returns
    sigma alone.  Raises NonFiniteInput from ``bidiagonalize``, naming the
    first NaN or infinite entry (the prescale leaves such entries as they
    are), NoConvergence if the real SVD fails, and OverflowError when the
    largest singular value is beyond the float range.

    One power of two scales the whole matrix, so an entry more than
    2**1074 below the largest is flushed to zero before the reduction, as
    LAPACK's scaling would flush it: diag(2**1000, 2**-1000) gives sigma
    [2**1000, 0], although 2**-1000 is a normal double.  The error is
    below the rounding of the largest value, but the small one is lost.

    The reduction stops once its trailing block is below
    tau = max(r, c) * eps * m, m the largest component of A (see
    ``bidiagonalize``).  A sigma below tau is then accurate to tau in
    absolute terms only, which is all the two-sided reduction promises
    for general input anyway, and input of exact rank r costs about
    r + 1 reduction steps instead of min(r, c).
    """
    exponent = _exponent(a.data)
    bd = bidiagonalize(QMatrix(np.ldexp(a.data, -exponent)), accumulate=want_vectors)
    w, sigma, x = bidiag_svd(*extract_band(bd.bidiagonal, lower=not bd.upper),
                             want_vectors=want_vectors)
    _check_range("largest singular value", sigma[0], exponent)
    sigma = np.ldexp(sigma, exponent)
    if not want_vectors:
        return QsvdResult(u=None, sigma=sigma, v=None)

    # B is lower bidiagonal when A is wide: the band was transposed on the
    # way in, so the roles of the real factors swap on the way out.
    w, x = (w, x) if bd.upper else (x, w)
    # U = conj(L).T W: lift from the plain transpose of L and conjugate the
    # product, which commutes with the real W.
    u = _lift(bd.left.data.swapaxes(0, 1), w)
    u.data *= _CONJ
    v = _lift(bd.right.data, x)
    return QsvdResult(u=u, sigma=sigma, v=v)


def reconstruct(res: QsvdResult, r: int, c: int) -> QMatrix:
    """``U @ Sigma_{r x c} @ conj(V).T``, formed as ``(U[:, :n] diag(sigma))
    @ conj(V[:, :n]).T``, n = min(r, c), so full and sliced factors alike."""
    if res.u is None or res.v is None:
        raise ShapeMismatch("result has no singular vectors to reconstruct from")
    if res.u.rows != r or res.v.rows != c:
        raise ShapeMismatch(
            f"factors are {res.u.rows}x{res.u.cols} and {res.v.rows}x{res.v.cols}, "
            f"expected them to span {r} rows and {c} columns")
    n = len(res.sigma)
    if n != min(r, c) or res.u.cols < n or res.v.cols < n:
        raise ShapeMismatch("sigma length is inconsistent with the factor shapes")
    us = QMatrix(res.u.data[:, :n] * np.asarray(res.sigma)[:, np.newaxis])
    return us @ QMatrix(res.v.data[:, :n]).conj_transpose()


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.value <= self.bound


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _unitarity_residual(m: QMatrix) -> float:
    """``||M* M - I||_F``: orthonormal columns, for every shape.  A square
    M = P S Q* needs no second product: M* M - I = Q (S^2 - I) Q* and
    M M* - I = P (S^2 - I) P* have the same norm."""
    return ((m.conj_transpose() @ m) - QMatrix.identity(m.cols)).frobenius_norm()


def verify(a: QMatrix, res: QsvdResult, tol: float = 1e-10,
           with_oracle: bool = True) -> VerifyReport:
    """Bundle of named residual checks for a decomposition of `a`.

    Residuals are normalized (by max(r, c) and the relevant norms) so
    every check passes iff its value is at most `tol`; the structural
    checks (nonnegativity, ordering) must hold outright.  Unitarity of
    each factor is checked with one Gram, ``M* M``.  The oracle
    check allows `tol` plus the oracle's own relative error bound.  The
    reconstruction runs on A and sigma scaled by the same exact power of
    two, which leaves its ratio unchanged but keeps the products clear of
    overflow and of the subnormal range.  Its bound adds the float64
    floor: each sigma is stored to at best half the smallest subnormal
    spacing, so a subnormal-scale A cannot be rebuilt to better than
    sqrt(n) * 2**-1075 in absolute terms; the bound allows n * 2**-1074.
    """
    r, c = a.shape
    scale = float(max(r, c))
    sigma = np.asarray(res.sigma, dtype=np.float64)
    exponent = _exponent(a.data)
    a_scaled = QMatrix(np.ldexp(a.data, -exponent))
    norm_a = a_scaled.frobenius_norm()

    checks = []
    rec_denom = scale * norm_a if norm_a > 0.0 else 1.0
    floor = len(sigma) * float(np.ldexp(1.0, -1074 - exponent)) / rec_denom
    # A huge or non-finite factor or sigma entry makes its check inf or NaN: a failure.
    with np.errstate(over="ignore", invalid="ignore"):
        recon = reconstruct(QsvdResult(res.u, np.ldexp(sigma, -exponent), res.v), r, c)
        checks.append(CheckResult(
            "reconstruction", (a_scaled - recon).frobenius_norm() / rec_denom, tol + floor))
        for name, m in (("unitarity(U)", res.u), ("unitarity(V)", res.v)):
            checks.append(CheckResult(name, _unitarity_residual(m) / scale, tol))
        checks.append(CheckResult(
            "nonnegativity", float(np.maximum(0.0, -sigma.min())) if sigma.size else 0.0, 0.0))
        ascent = np.diff(sigma).max() if sigma.size > 1 else 0.0
        checks.append(CheckResult("ordering", float(np.maximum(0.0, ascent)), 0.0))

    if with_oracle:
        try:
            ref = adjoint_singular_values(a)
            denom = float(ref.max()) if ref.size and ref.max() > 0.0 else 1.0
            dev = float(np.abs(sigma - ref).max()) if sigma.shape == ref.shape else np.inf
            floor = adjoint_error_bound(a, denom) / denom
            checks.append(CheckResult("oracle", dev / denom, tol + floor))
        except (GroupingFailure, NoConvergence, OverflowError):
            # Oracle breakdown, or a sigma no float can hold, is a failed check.
            checks.append(CheckResult("oracle", np.inf, tol))

    return VerifyReport(tuple(checks))
