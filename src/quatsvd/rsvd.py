"""SVD of a real bidiagonal band through LAPACK.

The band is expanded to a dense matrix and handed to ``np.linalg.svd``
(LAPACK xGESDD), which keeps the relative accuracy of bidiagonal SVD
(Demmel & Kahan 1990): small values of a graded band are not flushed.
Singular values always come from the values-only call, so both modes
return bit-identical sigma.  Each (W, X) column pair is signed so that
the largest entry of the W column is positive; ``W @ diag(sigma) @ X.T``
rebuilds the band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFiniteInput
from .qmat import RMatrix, _as_float64, _safe_norm

__all__ = ["BidiagonalBand", "RealSvdResult", "bidiag_svd"]


@dataclass(frozen=True)
class BidiagonalBand:
    """One-axis diagonal `d` (length n) and superdiagonal `e` (length
    n-1), all finite: a NaN or infinite entry raises NonFiniteInput."""
    d: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        d = _as_float64(self.d)
        e = _as_float64(self.e) if np.size(self.e) else np.zeros(0)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)
        if d.ndim != 1 or e.ndim != 1:
            name, arr = ("d", d) if d.ndim != 1 else ("e", e)
            raise ValueError(f"band {name} must be one-dimensional, got shape {arr.shape}")
        if len(d) < 1:
            raise ValueError("band needs at least one diagonal entry")
        if len(e) != len(d) - 1:
            raise ValueError(f"superdiagonal length {len(e)} != {len(d) - 1}")
        bad = np.flatnonzero(~np.isfinite(np.concatenate((d, e))))
        if bad.size:
            i = int(bad[0])
            name, k = ("d", i) if i < len(d) else ("e", i - len(d))
            raise NonFiniteInput(f"band entry {name}[{k}] is not finite")

    @property
    def n(self) -> int:
        return len(self.d)

    def dense(self) -> RMatrix:
        return RMatrix(np.diag(self.d) + np.diag(self.e, 1) if self.n > 1
                       else np.diag(self.d))

    def frobenius_norm(self) -> float:
        return _safe_norm(np.concatenate((self.d, self.e)))


@dataclass(frozen=True)
class RealSvdResult:
    w: RMatrix | None
    sigma: np.ndarray
    x: RMatrix | None


def bidiag_svd(band: BidiagonalBand, want_vectors: bool = True) -> RealSvdResult:
    """Full SVD of the bidiagonal matrix held in `band`.

    Returns orthogonal W, X and nonnegative descending sigma with
    ``W @ diag(sigma) @ X.T`` equal to the band.  With
    ``want_vectors=False`` W and X are skipped and come back as None.
    Raises NoConvergence, carrying the band's order and norm, if LAPACK
    reports that the SVD did not converge.
    """
    dense = np.diag(band.d)  # the band as a matrix, in one allocation
    dense.ravel()[1::band.n + 1] = band.e
    try:
        sigma = np.linalg.svd(dense, compute_uv=False)
        if not want_vectors:
            return RealSvdResult(w=None, sigma=sigma, x=None)
        w, _, xt = np.linalg.svd(dense)
    except np.linalg.LinAlgError as err:
        norm = band.frobenius_norm()
        raise NoConvergence(f"LAPACK bidiagonal SVD of order n={band.n}, band norm "
                            f"{norm!r}: {err}", n=band.n, band_norm=norm) from None
    pivot = w[np.argmax(np.abs(w), axis=0), np.arange(band.n)]
    flip = np.where(pivot < 0.0, -1.0, 1.0)
    return RealSvdResult(w=RMatrix(w * flip), sigma=sigma, x=RMatrix(xt.T * flip))
