"""Reduction of a quaternion matrix to a real bidiagonal matrix.

``bidiagonalize`` alternates left and right Householder reflectors: the
left one sends the trailing part of column k to ``alpha * e1`` (alpha a
nonnegative real), the right one does the same to the trailing part of
row k.  Every value the construction guarantees to vanish — entries
below/right of the band and the vector parts of band entries — is
written as exact zero, with the largest discarded magnitude reported as
``snap_residue``, so the returned B is real and banded by construction
rather than up to rounding noise.  The snap happens once, after the
loop: no later step reads a value it drops, since after step k the left
reflectors act on rows and columns >= k+1 and the right ones on rows
>= k+1 and columns >= k+2.

The work runs on a planar (rows, 4, cols) copy: the four components of
a row sit in four consecutive real rows, so any row-and-column block
reshapes without a copy to a (4 * rows, cols) real matrix.  Each
reflector is applied once, to the work block, as two real gemms against
the real form of u and a 4x4 mix for the unit scalar z.  The loop only
records the reflectors; L and R are formed after it, the way LAPACK's
xORGBR does, by applying panels of reflectors in compact-WY form
``I - V T V*`` (Schreiber & Van Loan 1989) backward to a diagonal, so
the factors cost real gemms of panel width rather than one rank-4
update per reflector.

Tall-or-square input yields an upper bidiagonal B.  A wide matrix is
reduced in the same pass, as LAPACK's xGEBRD does: the work copy holds
A*, the factors formed for it swap roles, and the band is transposed,
which gives a lower bidiagonal B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotBidiagonal
from .householder import left_householder, right_householder
from .qmat import QMatrix, QVector, RMatrix, _q4

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
# The same as (16, 4) maps from the components of q to the entries of its
# matrix, so that real forms are one matmul (adding exact zeros), not a gather.
_LMAT_OF = (np.eye(4)[_IDX] * _SIGN_L[..., np.newaxis]).reshape(16, 4)
_RMAT_OF = (np.eye(4)[_IDX] * _SIGN_R[..., np.newaxis]).reshape(16, 4)
# Structure constants for the right apply: _TO_T[(k, p), l] is the
# coefficient of e_l in e_k e_p, contracting x[k] y[p] to the product x * y.
_TO_T = _LMAT_OF.reshape(4, 4, 4).transpose(2, 1, 0).reshape(16, 4)
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _lmat(q: np.ndarray) -> np.ndarray:
    return (q @ _LMAT_OF.T).reshape(q.shape[:-1] + (4, 4))


def _rmat(q: np.ndarray) -> np.ndarray:
    return (q @ _RMAT_OF.T).reshape(q.shape[:-1] + (4, 4))


def _reflect_left(u: np.ndarray, z4: np.ndarray, block: np.ndarray) -> None:
    """``block <- z (block - u (u* block))`` in place; `block` is planar
    (m, 4, n), so its (4m, n) reshape is a view and each contraction over
    the m quaternion rows is one real gemm against the 4m x 4 real form
    N of u (the real form of conj(u).T is N.T)."""
    m, _, n = block.shape
    flat = block.reshape(4 * m, n)
    nmat = _lmat(u).reshape(4 * m, 4)
    flat -= nmat @ (nmat.T @ flat)
    block[...] = np.matmul(_lmat(z4), block)


def _reflect_right(u: np.ndarray, z4: np.ndarray, block: np.ndarray) -> None:
    """``block <- (block - (block u) u*) z`` in place on a planar (m, 4, n)
    block: t = block u is one gemm over the columns followed by a 16 -> 4
    contraction with the structure constants, and the rank-4 update
    ``t conj(u).T`` is one gemm of the 4m x 4 real form of t against
    ``(u * _CONJ).T``."""
    m, _, n = block.shape
    flat = block.reshape(4 * m, n)
    t = (flat @ u).reshape(m, 16) @ _TO_T
    flat -= _lmat(t).reshape(4 * m, 4) @ (u * _CONJ).T
    block[...] = np.matmul(_rmat(z4), block)


def bidiagonalize(a: QMatrix, accumulate: bool = True) -> BidiagResult:
    """Compute unitary L (r x r) and R (c x c) with L A R real bidiagonal.

    With ``accumulate=False`` the factors are skipped (returned as None)
    and only the band and the snap diagnostic are produced.
    """
    wide = a.cols > a.rows
    # Planar copy of A, or of A* when A is wide, so that rows >= cols.
    if wide:
        work = (a.data * _CONJ).transpose(1, 2, 0).copy()
    else:
        work = a.data.transpose(0, 2, 1).copy()
    rows, _, cols = work.shape
    e1 = np.zeros(rows)
    e1[0] = 1.0
    # (offset, u, s) of every non-identity reflector, in order, for the
    # factors: L* and R are both products of (I - u u*) S, where S
    # left-multiplies the rows from `offset` on by s, a (4,) array.
    lrefl, rrefl = [], []

    for k in range(cols):
        h = left_householder(QVector(work[k:, :, k]), e1[:rows - k])
        if not h.is_identity:
            zeta = _q4(h.zeta)
            _reflect_left(h.u.data, zeta * _CONJ, work[k:, :, k:])
            lrefl.append((k, h.u.data, zeta))
        if k <= cols - 2:
            g = right_householder(QVector(work[k, :, k + 1:].T), e1[:cols - 1 - k])
            if not g.is_identity:
                z = _q4(g.zeta) * _CONJ
                _reflect_right(g.u.data, z, work[k:, :, k + 1:])
                rrefl.append((k + 1, g.u.data, z))

    band, residue = _snap_band(work)
    left = right = None
    if accumulate:
        lfac, rfac = _form_factor(rows, lrefl), _form_factor(cols, rrefl)
        if wide:
            # L A* R = B' gives R* A L* = B'.T.
            lfac, rfac = rfac, lfac
        left = QMatrix(lfac.transpose(2, 0, 1) * _CONJ)
        right = QMatrix(rfac.transpose(0, 2, 1))
    return BidiagResult(
        left=left,
        bidiagonal=RMatrix(band.T if wide else band),
        right=right,
        upper=not wide,
        snap_residue=residue,
    )


def _snap_band(work: np.ndarray) -> tuple[np.ndarray, float]:
    """The real upper band of a reduced planar (rows, 4, cols) work array,
    rows >= cols, with every other value written as exact zero, and the
    largest magnitude so dropped: the norm of an entry outside the band
    or of the vector part of a band entry."""
    rows, _, cols = work.shape
    in_band = np.eye(rows, cols, dtype=bool) | np.eye(rows, cols, 1, dtype=bool)
    # Norms of a copy scaled by a power of two that brings the largest value
    # near 1: no square overflows, and only the squares of values below
    # 2**-511 of it underflow.  The maximum is scaled back.
    exponent = int(np.frexp(np.abs(work).max())[1])
    scaled = np.ldexp(work, -exponent)
    outside = np.linalg.norm(scaled.transpose(0, 2, 1), axis=-1)[~in_band]
    i, j = np.nonzero(in_band)
    vec = scaled[i, 1:, j]
    # One dot per entry, the sum np.linalg.norm takes of a single vector.
    vec_sq = np.matmul(vec[:, np.newaxis, :], vec[:, :, np.newaxis])
    residue = max(float(outside.max(initial=0.0)), float(np.sqrt(vec_sq.max())))
    return np.where(in_band, work[:, 0, :], 0.0), float(np.ldexp(residue, exponent))


# Reflectors per compact-WY panel.  Forming 128 x 128 and 256 x 256 factors,
# widths 12 to 24 measured within 5 % of each other and 8 and 32 10-20 %
# slower: wider panels spend more on T and the zero triangle of V,
# narrower ones on per-panel overhead and gemms of width 4 * nb.
_NB = 16


def _form_factor(m: int, reflectors) -> np.ndarray:
    """Planar (m, 4, m) product of ``(I - u_k u_k*) S_k`` over the
    recorded ``(offset, u_k, s_k)``, k ascending, S_k left-multiplying the
    rows from the offset on by the unit quaternion s_k, a (4,) array.

    Offsets ascend, so u_k lies inside the rows of every earlier S_j, and
    for those ``S (I - u u*) = (I - (s u)(s u)*) S``.  Pushing every
    scalar to the right leaves ``prod (I - v_k v_k*) D`` with
    ``v_k = c_k u_k``, ``c_k = s_0 ... s_(k-1)`` (each product taken in
    real form, ``_lmat(c) @ s``), and D diagonal: the rows from offset k
    up to offset k+1 carry c_(k+1).  Panels of _NB
    reflectors are then applied backward to D as ``I - V T V*`` in real
    form on the planar view.  Each panel touches only the trailing
    ``[o:, o:]`` block, o its first offset: everything applied so far acts
    on rows and columns from the next panel's offset on, and D is diagonal.
    """
    diag = np.empty((m, 4))
    scalars = np.empty((len(reflectors), 4))
    cum = np.array([1.0, 0.0, 0.0, 0.0])
    row = 0
    for k, (offset, _, s) in enumerate(reflectors):
        scalars[k] = diag[row:offset] = cum
        cum = _lmat(cum) @ s
        row = offset
    diag[row:] = cum
    out = np.zeros((m, 4, m))
    out[np.arange(m), :, np.arange(m)] = diag

    for p in reversed(range(0, len(reflectors), _NB)):
        panel = reflectors[p:p + _NB]
        o, width = panel[0][0], len(panel)
        # Panel vectors as [j, component, row], then v_j = c_j u_j.
        vt = np.zeros((width, 4, m - o))
        for j, (offset, u, _) in enumerate(panel):
            vt[j, :, offset - o:] = u.T
        vt = np.matmul(_lmat(scalars[p:p + _NB]), vt)
        # Real form V, columns ordered (component k, reflector j).
        vp = np.ascontiguousarray(vt.transpose(2, 1, 0))
        vmat = np.matmul(_LMAT_OF, vp).reshape(4 * (m - o), 4 * width)
        flat = out[o:, :, o:].reshape(4 * (m - o), m - o)
        flat -= vmat @ (_wy_t(vmat, width) @ (vmat.T @ flat))
    return out


def _wy_t(vmat: np.ndarray, width: int) -> np.ndarray:
    """T with ``prod_j (I - v_j v_j*) = I - V T V*`` for the real form V
    of `width` quaternion columns, ordered (component, column).

    T = inv(I + strict block-upper(V* V)): every factor is exactly
    I - v v* (tau = 1), whatever the rounding in |v|^2 = 2.  Only the
    first real column of each 4x4 block of V.T V is computed (the
    quaternions v_j* v_i); the blocks are expanded from them, and T is
    solved block column by block column as in LAPACK's xLARFT.
    """
    # [component, j, i] of v_j* v_i, kept for j < i only.
    gram = (vmat.T @ vmat[:, :width]).reshape(4, width, width) * np.triu(np.ones((width, width)), 1)
    blocks = np.matmul(_LMAT_OF, gram.reshape(4, width * width))
    # [j, l, i, k]: block (j, i) of the real form, in (column, component) order.
    upper = blocks.reshape(4, 4, width, width).transpose(2, 0, 3, 1).reshape(4 * width, 4 * width)
    t = np.eye(4 * width)
    for s in range(4, 4 * width, 4):
        t[:s, s:s + 4] = -t[:s, :s] @ upper[:s, s:s + 4]
    # Back to (component, column) order.
    return t.reshape(width, 4, width, 4).transpose(1, 0, 3, 2).reshape(4 * width, 4 * width)


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
