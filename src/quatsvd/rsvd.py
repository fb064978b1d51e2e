"""SVD of a real bidiagonal band through LAPACK.

The band comes in as two arrays, the diagonal d and the superdiagonal e,
as LAPACK's xBDSQR takes it.  It is expanded to a dense matrix and handed
to ``np.linalg.svd`` (LAPACK xGESDD), which keeps the relative accuracy
of bidiagonal SVD (Demmel & Kahan 1990): small values of a graded band
are not flushed.  Singular values always come from the values-only call,
so both modes return bit-identical sigma.  Each (W, X) column pair is
signed so that the largest entry of the W column is positive;
``W @ diag(sigma) @ X.T`` rebuilds the band.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NonFiniteInput
from .qmat import _as_float64, _safe_norm

__all__ = ["bidiag_svd"]


def bidiag_svd(d, e, want_vectors: bool = True):
    """SVD of the upper bidiagonal matrix with diagonal `d` (length n) and
    superdiagonal `e` (length n-1).

    Returns ``(w, sigma, x)``: orthogonal C-ordered n x n arrays W, X and
    nonnegative descending sigma with ``w @ diag(sigma) @ x.T`` equal to
    the band.  With ``want_vectors=False`` W and X are skipped and come
    back as None.  A d or e of more or fewer than one axis, an empty d or
    a length mismatch is a ValueError, complex data a TypeError, a NaN or
    infinite entry a NonFiniteInput naming it.  Raises NoConvergence,
    carrying the band's order and norm, if LAPACK reports that the SVD
    did not converge.
    """
    d, e = _as_float64(d), _as_float64(e)
    if d.ndim != 1 or e.ndim != 1:
        name, arr = ("d", d) if d.ndim != 1 else ("e", e)
        raise ValueError(f"band {name} must be one-dimensional, got shape {arr.shape}")
    n = len(d)
    if n < 1:
        raise ValueError("band needs at least one diagonal entry")
    if len(e) != n - 1:
        raise ValueError(f"superdiagonal length {len(e)} != {n - 1}")
    bad = np.flatnonzero(~np.isfinite(np.concatenate((d, e))))
    if bad.size:
        i = int(bad[0])
        name, k = ("d", i) if i < n else ("e", i - n)
        raise NonFiniteInput(f"band entry {name}[{k}] is not finite")

    dense = np.diag(d)  # the band as a matrix, in one allocation
    dense.ravel()[1::n + 1] = e
    try:
        sigma = np.linalg.svd(dense, compute_uv=False)
        if not want_vectors:
            return None, sigma, None
        w, _, xt = np.linalg.svd(dense)
    except np.linalg.LinAlgError as err:
        norm = _safe_norm(np.concatenate((d, e)))
        raise NoConvergence(f"LAPACK bidiagonal SVD of order n={n}, band norm "
                            f"{norm!r}: {err}", n=n, band_norm=norm) from None
    pivot = w[np.argmax(np.abs(w), axis=0), np.arange(n)]
    flip = np.where(pivot < 0.0, -1.0, 1.0)
    # xt.T * flip would be F-ordered, and the order of X reaches the bits
    # of qsvd's factors through the lift's gemm.
    return w * flip, sigma, np.multiply(xt.T, flip, order="C")
