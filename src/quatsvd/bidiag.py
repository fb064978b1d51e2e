"""Reduction of a quaternion matrix to a real bidiagonal matrix.

``bidiagonalize`` alternates left and right Householder reflectors: the
left one sends the trailing part of column k to ``alpha * e1`` (alpha a
nonnegative real), the right one does the same to the trailing part of
row k.  Every value the construction guarantees to vanish — entries
below/right of the band and the vector parts of band entries — is then
written as exact zero, with the discarded magnitude folded into a
diagnostic, so the returned B is real and banded by construction rather
than up to rounding noise.

The work runs on planar (rows, 4, cols) copies: the four components of
a row sit in four consecutive real rows, so any row-and-column block
reshapes without a copy to a (4 * rows, cols) real matrix.  Each
reflector then costs two real gemms against the real form of u and a
4x4 mix for the unit scalar z, on the work block and on both factors.

Tall-or-square input yields an upper bidiagonal B; a wide matrix is
handled by reducing its conjugate transpose and transposing back, which
gives a lower bidiagonal B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotBidiagonal
from .householder import HouseholderReflector, _z4, left_householder, right_householder
from .qmat import QMatrix, QVector, RMatrix, _conj

__all__ = ["BidiagResult", "bidiagonalize", "check_bidiagonal", "extract_band"]


@dataclass(frozen=True)
class BidiagResult:
    """Factors with ``left @ A @ right == bidiagonal`` (promoted to quaternion)."""
    left: QMatrix | None
    bidiagonal: RMatrix
    right: QMatrix | None
    upper: bool
    snap_residue: float


# Real 4x4 matrices of quaternion multiplication: component l of q * p is
# sum_k _lmat(q)[l, k] p[k], and of p * q it is sum_k _rmat(q)[l, k] p[k].
_IDX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_SIGN_L = np.array([[1, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1]], dtype=float)
_SIGN_R = np.array([[1, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]], dtype=float)


def _lmat(q: np.ndarray) -> np.ndarray:
    return q[..., _IDX] * _SIGN_L


def _rmat(q: np.ndarray) -> np.ndarray:
    return q[..., _IDX] * _SIGN_R


# Structure constants e_k e_p = sum_l _MUL[k, p, l] e_l, regrouped for the
# right apply: _TO_T contracts (k, p) -> l, _FROM_T expands l -> (k, p).
_MUL = _lmat(np.eye(4)).transpose(0, 2, 1)
_TO_T = _MUL.reshape(16, 4)
_FROM_T = _MUL.transpose(0, 2, 1).reshape(4, 16)


def _unit_target(n: int) -> np.ndarray:
    v = np.zeros(n)
    v[0] = 1.0
    return v


def _reflect_left(h: HouseholderReflector, block: np.ndarray) -> None:
    """``block <- z (block - u (u* block))`` in place; `block` is planar
    (m, 4, n), so its (4m, n) reshape is a view and each contraction over
    the m quaternion rows is one real gemm against the 4m x 4 real form
    N of u (the real form of conj(u).T is N.T)."""
    if h.is_identity:
        return
    m, _, n = block.shape
    flat = block.reshape(4 * m, n)
    nmat = _lmat(h.u.data).reshape(4 * m, 4)
    flat -= nmat @ (nmat.T @ flat)
    block[...] = np.matmul(_lmat(np.array(_z4(h))), block)


def _reflect_right(h: HouseholderReflector, block: np.ndarray) -> None:
    """``block <- (block - (block u) u*) z`` in place on a planar (m, 4, n)
    block: t = block u is one gemm over the columns followed by a 16 -> 4
    contraction with the structure constants, and the rank-4 update is
    one gemm against conj(u).T."""
    if h.is_identity:
        return
    m, _, n = block.shape
    flat = block.reshape(4 * m, n)
    u = h.u.data
    t = (flat @ u).reshape(m, 16) @ _TO_T
    flat -= (t @ _FROM_T).reshape(4 * m, 4) @ _conj(u).T
    block[...] = np.matmul(_rmat(np.array(_z4(h))), block)


def bidiagonalize(a: QMatrix, accumulate: bool = True) -> BidiagResult:
    """Compute unitary L (r x r) and R (c x c) with L A R real bidiagonal.

    With ``accumulate=False`` the factors are skipped (returned as None)
    and only the band and the snap diagnostic are produced.
    """
    r, c = a.shape
    if c > r:
        flipped = bidiagonalize(a.conj_transpose(), accumulate=accumulate)
        return BidiagResult(
            left=flipped.right.conj_transpose() if accumulate else None,
            bidiagonal=RMatrix(flipped.bidiagonal.data.T.copy()),
            right=flipped.left.conj_transpose() if accumulate else None,
            upper=False,
            snap_residue=flipped.snap_residue,
        )

    work = _planar(a)
    lacc = _planar(QMatrix.identity(r)) if accumulate else None
    racc = _planar(QMatrix.identity(c)) if accumulate else None
    residue = 0.0

    for k in range(c):
        h = left_householder(QVector(work[k:, :, k]), _unit_target(r - k))
        _reflect_left(h, work[k:, :, k:])
        if accumulate:
            _reflect_left(h, lacc[k:])

        # The reflector sent this column to a real multiple of e1; anything
        # left over is rounding noise.  Measure it, then zero it.
        residue = max(residue, float(np.linalg.norm(work[k, 1:, k])),
                      _max_entry_norm(work[k + 1:, :, k]))
        work[k, 1:, k] = 0.0
        work[k + 1:, :, k] = 0.0

        if k <= c - 2:
            g = right_householder(QVector(work[k, :, k + 1:].T), _unit_target(c - 1 - k))
            _reflect_right(g, work[k:, :, k + 1:])
            if accumulate:
                _reflect_right(g, racc[:, :, k + 1:])

            residue = max(residue, float(np.linalg.norm(work[k, 1:, k + 1])),
                          _max_entry_norm(work[k, :, k + 2:].T))
            work[k, 1:, k + 1] = 0.0
            work[k, :, k + 2:] = 0.0

    return BidiagResult(
        left=QMatrix(lacc.transpose(0, 2, 1)) if accumulate else None,
        bidiagonal=RMatrix(work[:, 0, :]),
        right=QMatrix(racc.transpose(0, 2, 1)) if accumulate else None,
        upper=True,
        snap_residue=residue,
    )


def _planar(a: QMatrix) -> np.ndarray:
    return a.data.transpose(0, 2, 1).copy()


def _max_entry_norm(block: np.ndarray) -> float:
    if block.size == 0:
        return 0.0
    return float(np.linalg.norm(block, axis=-1).max())


def check_bidiagonal(b: RMatrix, upper: bool, tol: float = 0.0) -> bool:
    """True iff every entry outside the diagonal and the adjacent
    off-diagonal (super for upper, sub for lower) has magnitude <= tol."""
    m = b.data
    rows, cols = m.shape
    i, j = np.indices((rows, cols))
    band = (j == i) | ((j == i + 1) if upper else (j == i - 1))
    outside = m[~band]
    return bool(outside.size == 0 or np.abs(outside).max() <= tol)


def extract_band(b: RMatrix, lower: bool = False):
    """Compact (d, e) form of a bidiagonal matrix: d the diagonal of the
    leading n x n block (n = min(r, c)), e the adjacent off-diagonal,
    length n - 1.  A lower bidiagonal input is transposed first."""
    m = b.data.T if lower else b.data
    rows, cols = m.shape
    if not check_bidiagonal(RMatrix(m), upper=True):
        raise NotBidiagonal("matrix has entries outside the bidiagonal band")
    n = min(rows, cols)
    return np.diagonal(m).copy(), np.diagonal(m, 1)[:n - 1].copy()
