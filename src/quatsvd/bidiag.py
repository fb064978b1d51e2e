"""Reduction of a quaternion matrix to a real bidiagonal matrix.

``bidiagonalize`` alternates left and right Householder reflectors,
built onto e1, the builders' only target: the left one sends the trailing
part of column k to a multiple of e1, the right one does the same to the
trailing part of row k.  The loop hands each builder a view of the
(n, 4) components of that part and gets back the arrays ``(u, zeta4)``;
a zero u is the identity reflector, which it skips.  Every entry the
construction guarantees to vanish, below or right of the band, is
written as exact zero, with the largest discarded norm reported as
``snap_residue``, so the returned B is banded by construction rather
than up to rounding noise.  The snap happens once, after the loop: no
later step reads a value it drops, since after step k the left
reflectors act on rows and columns >= k+1 and the right ones on rows
>= k+1 and columns >= k+2.

The work runs on a planar (rows, 4, cols) copy: the four components of
a row sit in four consecutive real rows, so a block of whole rows
reshapes without a copy to a (4 * rows, cols) real matrix.  Each
reflector is applied once, as two real gemms against the real form of
u, and bare: the loop applies ``I - u u*`` and never the builder's unit
scalar, which would only make the pivot real.  Each scalar commutes
with every later reflector, and a unit factor on a builder's input
changes only its scalar, not its ``u u*`` (but for a projection below
rounding, where the builder fixes zeta = 1 and either reflector is
valid).  So the loop yields ``B_bare = H A G``, and ``D B_bare S`` is
real and nonnegative for diagonal unitary D and S: B is the entrywise
modulus of the band of B_bare.  With accumulation the scalars are
chained from the builders' zeta, sigma being the scalar of column k in
S, 1 at the start: a left reflector gives row k of D the scalar
z = conj(sigma) conj(zeta), and the right one after it gives column
k+1 of S the scalar conj(zeta') conj(z); an identity reflector leaves 1
on its row or column.  The loop records the reflectors and these
scalars; L = D H and R = G S are formed after it, the way LAPACK's
xORGBR does, by applying panels of reflectors in compact-WY form
``I - V T V*`` (Schreiber & Van Loan 1989) backward to the diagonal of
the scalars, so the factors cost real gemms of panel width rather than
one rank-4 update per reflector.

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
from .householder import left_householder, right_householder
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


_ONE = (1.0, 0.0, 0.0, 0.0)


def bidiagonalize(a: QMatrix, accumulate: bool = True) -> BidiagResult:
    """Compute unitary L (r x r) and R (c x c) with L A R real bidiagonal.

    With ``accumulate=False`` the factors are skipped (returned as None)
    and only the band and the snap diagnostic are produced.  The reduction
    runs on a copy scaled by 2**-e that brings the largest entry into
    [1/2, 1): L and R do not change and B scales exactly.  Raises
    NonFiniteInput, naming the first NaN or infinite entry, and
    OverflowError for a B beyond the float range.
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
    # (offset, u, s) of every non-identity reflector, in order, for the
    # factors: L* and R are both products of (I - u u*) S, where S
    # left-multiplies the row at `offset` by s, a unit quaternion.
    lrefl, rrefl = [], []
    # The scalar of the current column in R (see the module docstring).
    sigma = _ONE

    for k0 in range(0, cols, _NB):
        # The panel's trailing block, C-contiguous, so the rows from step k
        # on are contiguous too.  For k0 = 0 it is the work array itself.
        sub = np.ascontiguousarray(work[k0:, :, k0:])
        for k in range(k0, min(k0 + _NB, cols)):
            i = k - k0
            u, zeta4 = left_householder(sub[i:, :, i])
            s = _ONE  # conj(z), the scalar of row k in L*
            if np.count_nonzero(u):
                _reflect_left(u, sub[i:], i)
                if accumulate:
                    s = hamilton(zeta4.tolist(), sigma)
                    lrefl.append((k, u, s))
            if k <= cols - 2:
                u, zeta4 = right_householder(sub[i, :, i + 1:].T)
                sigma = _ONE
                if np.count_nonzero(u):
                    _reflect_right(u, sub[i:], i + 1)
                    if accumulate:
                        sigma = hamilton((zeta4 * _CONJ).tolist(), s)
                        # Renormalised, so that rounding does not build up
                        # along the chain.
                        norm = math.hypot(*sigma)
                        sigma = tuple(c / norm for c in sigma)
                        rrefl.append((k + 1, u, sigma))
        if k0:
            work[k0:, :, k0:] = sub

    band, residue = _snap_band(work)
    if scale:
        _check_range("largest entry of B", band.max(), scale)
        np.ldexp(band, scale, out=band)
        residue = math.ldexp(residue, scale)
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


def _form_factor(m: int, reflectors) -> np.ndarray:
    """Planar (m, 4, m) product of ``(I - u_k u_k*) S_k`` over the
    recorded ``(offset, u_k, s_k)``, k ascending, S_k left-multiplying the
    row at the offset by the unit quaternion s_k, a (4,) array.

    Offsets ascend and every later u_j is zero on row offset_k, so S_k
    commutes with every later projector: the product is
    ``prod (I - u_k u_k*) D``, D diagonal with s_k at offset_k and 1
    elsewhere.  Panels of _NB reflectors are applied backward to D as
    ``I - V T V*`` in real form on the planar view.  Each panel touches
    only the trailing ``[o:, o:]`` block, o its first offset: everything
    applied so far acts on rows and columns from the next panel's offset
    on, and D is diagonal.
    """
    out = np.zeros((m, 4, m))
    out[np.arange(m), 0, np.arange(m)] = 1.0
    for offset, _, s in reflectors:
        out[offset, :, offset] = s

    for p in reversed(range(0, len(reflectors), _NB)):
        panel = reflectors[p:p + _NB]
        o, width = panel[0][0], len(panel)
        # Panel vectors as [row, component, j]; real form V, columns
        # ordered (component k, reflector j).
        vp = np.zeros((m - o, 4, width))
        for j, (offset, u, _) in enumerate(panel):
            vp[offset - o:, :, j] = u
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
