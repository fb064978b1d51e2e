"""Reduction of a quaternion matrix to a real bidiagonal matrix.

``bidiagonalize`` alternates left and right Householder reflectors,
built onto e1, the builders' only target: the left one sends the trailing
part of column k to a multiple of e1, the right one does the same to the
trailing part of row k.  The loop hands each builder a view of the
(n, 4) components of that part and keeps the u of the ``(u, zeta4)``
it gets back.  Every entry the construction guarantees to vanish, below
or right of the band, is written as exact zero, with the largest
discarded norm reported as ``snap_residue``, so the returned B is banded
by construction rather than up to rounding noise.  The snap happens
once, after the loop: no later step reads a value it drops, since after
step k the left reflectors act on rows and columns >= k+1 and the right
ones on rows >= k+1 and columns >= k+2.

The work runs on a planar (rows, 4, cols) copy: the four components of
a row sit in four consecutive real rows, so a block of whole rows
reshapes without a copy to a (4 * rows, cols) real matrix.  Each
reflector is applied once, bare (``I - u u*``, a zero u being an exact
no-op), as two real gemms against the real form of u.  The loop thus
yields W = H A G with a quaternion band, and B is its entrywise modulus.
The unit scalars that make the band real are read off it afterwards, as
LAPACK's xGBBRD does for a complex band: with s_0 = 1,
x_k = phase(w_kk s_k) and s_k+1 = phase(conj(w_k,k+1) x_k), or 1 where
that band entry is zero, L = X* H and R = G S, X and S the diagonals of
the x_k and s_k, give L A R = B on the band, an unreduced block's too.
The loop records the vectors alone, left vector k acting on rows k.. and
right vector k on columns k+1...  ``_apply_panels`` forms L and R from them
as LAPACK's xORGBR does, applying panels in compact-WY form ``I - V T V*``
(Schreiber & Van Loan 1989) backward to X and to S past its first row
and column: real gemms of panel width, not a rank-4 update per reflector.

The trailing block of step k is a strided view of the work copy, and
numpy runs an in-place ufunc on a strided 2-D view one row at a time,
4-5x slower than on contiguous memory at 48 or 128 columns.  So each panel
of _NB steps copies its trailing block into a C-contiguous buffer once,
runs its steps on whole rows of that buffer, and copies it back.  The
kernels work at the buffer's full width; the columns left of a step's
pivot get an exact zero update, so they keep their values bit for bit.

The input is scanned once, for the largest modulus, which sets the 2**-e
scale of the work copy by qsvd's rule, into [1/2, 1): A, qsvd's scaled
copy and any exact 2**j A give the same L and R.  That value is NaN or
infinite exactly when an entry is, and only then is A searched for the
first such entry, which NonFiniteInput names in A's own order.

The loop stops early at a negligible trailing block, the test xBDSQR
applies to negligible band entries (Demmel & Kahan 1990) moved one
stage earlier.  With m the largest component of the scaled copy, in
[1/2, 1), let tau = max(r, c) * eps * m.  Right after step k's left
reflector, if the pivot modulus d_k is <= tau, the norm of rows k.. of
the panel buffer is taken; if it is <= tau too, the loop ends.  The
snap keeps the moduli of the remaining band entries and drops the rest:
the band of a matrix within tau of the reduced one in norm, and
m <= sigma_max, so by Weyl's bound each sigma moves by at most
max(r, c) * eps * sigma_max.  On input of rank r the rows past about
step r hold only rounding noise, so the loop runs about r + 1 steps
instead of min(r, c).  Both modes stop at the same step; only full mode
reads the scalars off the band.

Tall-or-square input yields an upper bidiagonal B.  A wide matrix is
reduced in the same pass, as LAPACK's xGEBRD does: the work copy holds
A*, the factors formed for it swap roles, and the band is transposed,
which gives a lower bidiagonal B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotBidiagonal
from .householder import EPS, left_householder, right_householder
from .qmat import QMatrix, RMatrix, _CONJ, _HAMILTON, _LMAT_OF, _check_finite, _check_range
from .quat import hamilton

__all__ = ["BidiagResult", "bidiagonalize", "check_bidiagonal", "extract_band"]


@dataclass(frozen=True)
class BidiagResult:
    """Factors with ``left @ A @ right == bidiagonal`` (promoted to quaternion)."""
    left: QMatrix | None
    bidiagonal: RMatrix
    right: QMatrix | None
    upper: bool
    snap_residue: float


def _reflect_left(u: np.ndarray, rows: np.ndarray, c0: int = 0) -> None:
    """``rows <- rows - u (u* rows)`` on the columns from c0 on, in place;
    `rows` is planar (m, 4, n) and C-contiguous, so its (4m, n) reshape is
    a view and each contraction over the m quaternion rows is one real
    gemm against the 4m x 4 real form N of u (the real form of conj(u).T
    is N.T).  The gemms run at full width; the columns left of c0 get an
    exact zero update, so they keep their values bit for bit."""
    m, _, n = rows.shape
    flat = rows.reshape(4 * m, n)
    nmat = u.dot(_LMAT_OF.T).reshape(4 * m, 4)
    w = nmat.T.dot(flat)
    w[:, :c0] = 0.0
    flat -= nmat @ w


# Contracts the 16 component products of x * y with the structure constants
# to the components of x * y and expands them to their real form with the
# signs of conjugation folded into its columns, in one matmul: each column
# is +- one column of _HAMILTON.  The real form of t times these signs,
# against u, is the real form of t against conj(u): a sign is exact.
_HAMILTON_LMAT_CONJ = _HAMILTON @ _LMAT_OF.T * np.tile(_CONJ, 4)


def _reflect_right(u: np.ndarray, rows: np.ndarray, c0: int = 0) -> None:
    """``rows <- rows - (rows u) u*`` on the columns from c0 on, in place
    on a planar, C-contiguous (m, 4, n) block: u is padded with exact
    zeros in front to length n, so the columns left of c0 get an exact
    zero update.  t = rows u is one gemm over the columns followed by one
    contraction with _HAMILTON_LMAT_CONJ to the 4m x 4 real form of t with
    conjugation's signs on its columns, and the rank-4 update
    ``t conj(u).T`` is one gemm of that against ``u.T``.  In both kernels
    the small products use ``ndarray.dot``, which costs less per call
    than ``@``; the rank-4 updates keep ``@``, faster from 48 columns on."""
    m, _, n = rows.shape
    flat = rows.reshape(4 * m, n)
    u = np.concatenate((np.zeros((c0, 4)), u))
    tmat = flat.dot(u).reshape(m, 16).dot(_HAMILTON_LMAT_CONJ).reshape(4 * m, 4)
    flat -= tmat @ u.T


def bidiagonalize(a: QMatrix, accumulate: bool = True) -> BidiagResult:
    """Compute unitary L (r x r) and R (c x c) with L A R real bidiagonal.

    With ``accumulate=False`` the factors are skipped (returned as None)
    and only the band and the snap diagnostic are produced.  The reduction
    runs on a copy scaled by 2**-e that brings the largest entry into
    [1/2, 1): L and R do not change and B scales exactly.  Raises
    NonFiniteInput, naming the first NaN or infinite entry, and
    OverflowError for a B beyond the float range.

    The reduction stops at the first step k whose pivot modulus and
    trailing rows k.. both have norm at most tau = max(r, c) * eps * m,
    m the largest component of the scaled copy.  The band of L A R is B
    there too, the rest of the block is in ``snap_residue``, and each
    singular value of B stays within max(r, c) * eps * sigma_max of A's.
    """
    wide = a.cols > a.rows
    # Planar copy of A, or of A* when A is wide, so that rows >= cols.
    if wide:
        work = (a.data * _CONJ).transpose(1, 2, 0).copy()
    else:
        work = a.data.transpose(0, 2, 1).copy()
    rows, _, cols = work.shape
    # The one scan of the input (see the module docstring).
    top = np.abs(work).max()
    if not math.isfinite(top):
        _check_finite(a.data)
    scale = math.frexp(top)[1]
    if scale:
        np.ldexp(work, -scale, out=work)
    # The negligible-block threshold (see the module docstring);
    # top / 2.0 ** scale would overflow at scale 1024.
    tau = max(rows, cols) * EPS * math.ldexp(top, -scale)
    # The u of every reflector, in order, for the factors.
    lvec, rvec = [], []

    for k0 in range(0, cols, _NB):
        # The panel's trailing block, C-contiguous, so the rows from step k
        # on are contiguous too.  For k0 = 0 it is the work array itself.
        sub = np.ascontiguousarray(work[k0:, :, k0:])
        for k in range(k0, min(k0 + _NB, cols)):
            i = k - k0
            u = left_householder(sub[i:, :, i])[0]
            _reflect_left(u, sub[i:], i)
            if accumulate:
                lvec.append(u)
            rest = sub[i:]
            negligible = (math.hypot(*sub[i, :, i].tolist()) <= tau
                          and math.sqrt(np.vdot(rest, rest)) <= tau)
            if negligible:
                break
            if k <= cols - 2:
                u = right_householder(sub[i, :, i + 1:].T)[0]
                _reflect_right(u, sub[i:], i + 1)
                if accumulate:
                    rvec.append(u)
        if k0:
            work[k0:, :, k0:] = sub
        if negligible:
            break

    band, residue = _snap_band(work)
    if scale:
        _check_range("largest entry of B", band.max(), scale)
        np.ldexp(band, scale, out=band)
        residue = math.ldexp(residue, scale)
    left = right = None
    if accumulate:
        lfac, rfac = _band_scalars(work)
        _apply_panels(lfac, lvec)
        _apply_panels(rfac[1:, :, 1:], rvec)
        if wide:
            # L A* R = B' gives R* A L* = B'.T.
            lfac, rfac = rfac, lfac
        left = QMatrix(np.multiply(lfac.transpose(2, 0, 1), _CONJ, order="C"))
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
    rows >= cols, whose largest entry is near 1: the moduli of its band
    entries, with every other entry written as exact zero, and the largest
    norm so dropped."""
    rows, _, cols = work.shape
    band = np.zeros((rows, cols))
    # Moduli by hypot, which neither overflows nor flushes the small
    # entries of a graded band.
    planes = work.transpose(1, 0, 2)
    for offset, out in enumerate(_band_views(band)):
        w, x, y, z = np.diagonal(planes, offset, 1, 2)
        np.hypot(np.hypot(w, x), np.hypot(y, z), out=out)
    # With the largest value near 1 no square overflows, and only the
    # squares of values below 2**-511 of it underflow.
    sq = np.square(work).sum(axis=1)
    for view in _band_views(sq):
        view[:] = 0.0
    return band, float(np.sqrt(sq.max(initial=0.0)))


_ONE = (1.0, 0.0, 0.0, 0.0)


def _band_scalars(work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planar diagonals X (rows, 4, rows; 1 past the band) and S (cols, 4,
    cols) read, as floats, off a reduced work array's band (module docstring)."""
    rows, _, cols = work.shape
    diag = np.diagonal(work, 0, 0, 2).T.tolist()
    conj_super = (np.diagonal(work, 1, 0, 2).T * _CONJ).tolist()
    x, s = [], [_ONE]
    for k, d in enumerate(diag):
        x.append(_phase_of_product(d, s[k]))
        if k < cols - 1:
            s.append(_phase_of_product(conj_super[k], x[k]))
    planar = np.zeros((rows, 4, rows)), np.zeros((cols, 4, cols))
    for out, scalars in zip(planar, (x + [_ONE] * (rows - cols), s)):
        out[np.arange(len(out)), :, np.arange(len(out))] = scalars
    return planar


def _phase_of_product(p, q) -> tuple[float, float, float, float]:
    """p q / |p q| for a unit q, and 1 for a zero p; p is brought to unit
    modulus first, so that a subnormal p keeps its phase."""
    r = math.hypot(*p)
    if not r:
        return _ONE
    w, x, y, z = hamilton([c / r for c in p], q)
    r = math.hypot(w, x, y, z)
    return w / r, x / r, y / r, z / r


def _band_views(m: np.ndarray):
    """Views of the diagonal and the superdiagonal of a C-contiguous
    (rows, cols) array."""
    rows, cols = m.shape
    flat = m.ravel()
    return flat[::cols + 1][:min(rows, cols)], flat[1::cols + 1][:min(rows, cols - 1)]


# Steps per panel, in the reduction and in the factors.  Forming 128 x 128
# and 256 x 256 factors, widths 12 to 24 measured within 5 % of each other
# and 8 and 32 10-20 % slower: wider panels spend more on T and the zero
# triangle of V, narrower ones on per-panel overhead and gemms of width
# 4 * nb.  Against the reduction on strided views, panels of 4 steps cut
# the loop at 128 x 128 by 17 % and panels of 8 to 32 by 21 %; at 48 x 48
# all four cut 6-8 %.  Wider panels update more columns left of the
# pivot, narrower ones copy the trailing block more often.
_NB = 16


def _apply_panels(out: np.ndarray, vectors) -> None:
    """``out <- (I - u_0 u_0*) (I - u_1 u_1*) ... out`` in place, u_j the
    j-th of `vectors`, acting on rows j.. of the planar (m, 4, m) `out`,
    which is diagonal on entry.  Panels of _NB are applied backward as
    ``I - V T V*`` in real form, each to the trailing ``[p:, p:]`` block
    alone, p its first vector: all that was applied before acts there.
    `out` may be a ``[1:, :, 1:]`` view of a C-contiguous array."""
    m = len(out)
    for p in reversed(range(0, len(vectors), _NB)):
        width = min(_NB, len(vectors) - p)
        # Panel vectors as [row, component, j]; real form V, columns
        # ordered (component k, reflector j).
        vp = np.zeros((m - p, 4, width))
        for j, u in enumerate(vectors[p:p + width]):
            vp[j:, :, j] = u
        vmat = np.matmul(_LMAT_OF, vp).reshape(4 * (m - p), 4 * width)
        flat = out[p:, :, p:].reshape(4 * (m - p), m - p)
        flat -= vmat @ (_wy_t(vmat, width) @ (vmat.T @ flat))


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
    np.negative(upper, out=upper)
    t = np.eye(4 * width)
    for s in range(4, 4 * width, 4):
        np.matmul(t[:s, :s], upper[:s, s:s + 4], out=t[:s, s:s + 4])
    # Back to (component, column) order.
    return t.reshape(width, 4, width, 4).transpose(1, 0, 3, 2).reshape(4 * width, 4 * width)


def check_bidiagonal(b: RMatrix, upper: bool, tol: float = 0.0) -> bool:
    """True iff every entry outside the diagonal and the adjacent
    off-diagonal (super for upper, sub for lower) has magnitude <= tol;
    a NaN outside the band makes it False.  The band of a lower B is the
    upper band of B.T, whose moduli are copied in C order, so that both
    are zeroed through strided views before one max."""
    outside = np.abs(b.data if upper else b.data.T, order="C")
    for view in _band_views(outside):
        view[:] = 0.0
    return bool(outside.max() <= tol)


def extract_band(b: RMatrix, lower: bool = False):
    """Compact (d, e) form of a bidiagonal matrix: d the diagonal of the
    leading n x n block (n = min(r, c)), e the adjacent off-diagonal,
    length n - 1.  A lower bidiagonal input is transposed first; a nonzero
    band entry outside that block (wide upper, tall lower) is NotBidiagonal."""
    if not check_bidiagonal(b, upper=not lower):
        raise NotBidiagonal("matrix has entries outside the bidiagonal band")
    m = b.data.T if lower else b.data
    rows, cols = m.shape
    n = min(rows, cols)
    if cols > rows and m[n - 1, n] != 0.0:
        raise NotBidiagonal("band entry past the leading square block is nonzero")
    return np.diagonal(m).copy(), np.diagonal(m, 1)[:n - 1].copy()
