"""Independent singular-value oracle via the complex adjoint.

Each quaternion entry q = w + xi + yj + zk maps to the 4x4 real block of
left-multiplication by q (``real_adjoint``), turning an r x c quaternion
matrix into a 4r x 4c real one with the same singular values, each
repeated four times.  The oracle uses the smaller complex adjoint: with
A = A1 + A2 j, A1 = W + X i and A2 = Y + Z i, the 2r x 2c matrix
[[A1, A2], [-conj(A2), conj(A1)]] has every singular value of A twice
(F. Zhang, "Quaternions and matrices of quaternions", LAA 1997), and
LAPACK's zgesdd computes them without squaring the matrix.

What the oracle shares: no code of this package (householder, bidiag,
rsvd, the lift), but LAPACK's bidiagonal SVD stage, which zgesdd reaches
after its own complex reduction (zgebrd) and rsvd calls directly on the
real band.  The reduction to that band, the part the paper's method
adds, is checked against a different reduction.  The tests' reference, LAPACK on
the 4r x 4c real adjoint (dgebrd), is a third route.

Error bound: every returned value is within

    BOUND_FACTOR * n * eps * sigma_max,    n = 4 * min(r, c),

of the true singular value (see ``adjoint_error_bound``).  zgesdd is
backward stable to a small multiple of the order times eps relative to
the norm, so by Weyl's inequality the values move by a small multiple of
n * eps * sigma_max.  BOUND_FACTOR is a working constant, not a proof:
it leaves a margin of about 3 over the largest deviation from LAPACK's
SVD of the real adjoint, 2.5 * n * eps * sigma_max, seen on 16,000
random, rank-deficient, column-graded and 10^(+-200)-scaled inputs of up
to 5 x 5.  Most of that deviation is the reference's: against a 40-digit
SVD of 400 other random inputs the oracle was off by at most 0.34 and
the real adjoint by 1.35, in the same units.  Working on the adjoint
itself keeps small values down to this absolute level; its Gram matrix
would square the condition number and lose every value below
~sqrt(eps) * sigma_max (Demmel & Veselic 1992).

A pair of values that spreads beyond the bound raises GroupingFailure;
a matrix with a non-finite entry, or a LAPACK run that does not
converge, raises NoConvergence; a largest value beyond the float range
raises OverflowError.
"""

from __future__ import annotations

import numpy as np

from .errors import GroupingFailure, NoConvergence
from .qmat import QMatrix, RMatrix, _check_range

BOUND_FACTOR = 8.0
EPS = float(np.finfo(np.float64).eps)

__all__ = ["real_adjoint", "adjoint_singular_values", "adjoint_error_bound"]

# Left-multiplication blocks of the quaternion units: chi(q) = w I + x E1 + y E2 + z E3.
_E1 = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=np.float64)
_E2 = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=np.float64)
_E3 = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=np.float64)


def real_adjoint(a: QMatrix) -> RMatrix:
    """4r x 4c real block matrix acting on quaternion columns written out
    as four real coordinates.  Ring homomorphism: adjoint(A @ B) equals
    adjoint(A) @ adjoint(B), and conjugate-transpose maps to transpose."""
    comps = a.data
    out = np.kron(comps[..., 0], np.eye(4))
    out += np.kron(comps[..., 1], _E1)
    out += np.kron(comps[..., 2], _E2)
    out += np.kron(comps[..., 3], _E3)
    return RMatrix(out)


def adjoint_error_bound(a: QMatrix, sigma_max: float) -> float:
    """Absolute error bound of ``adjoint_singular_values(a)`` when its
    largest value is ``sigma_max``: BOUND_FACTOR * n * eps * sigma_max
    with n = 4 * min(r, c), the smaller side of the real adjoint."""
    return BOUND_FACTOR * 4 * min(a.shape) * EPS * sigma_max


def adjoint_singular_values(a: QMatrix) -> np.ndarray:
    """Singular values of a quaternion matrix, descending, computed
    through the complex adjoint by LAPACK.

    With A = A1 + A2 j on the tall side (A or conj(A).T), scaled by a
    power of two to max |component| in [1/2, 1), the 2r x 2c complex
    matrix [[A1, A2], [-conj(A2), conj(A1)]] goes to
    ``np.linalg.svd`` (zgesdd).  Its 2 * min(r, c) values are sorted and
    collapsed into consecutive pairs, each to its mean, before they are
    scaled back.  Every value is within
    ``adjoint_error_bound(a, sigma_max)`` of the truth.  Raises
    GroupingFailure when a pair spreads beyond that bound, NoConvergence
    when an entry is not finite or LAPACK does not converge, and
    OverflowError when the largest value is beyond the float range.
    """
    if not np.isfinite(a.data).all():
        raise NoConvergence("matrix has non-finite entries")
    if a.cols > a.rows:
        a = a.conj_transpose()
    top = float(np.abs(a.data).max())
    if top == 0.0:
        return np.zeros(a.cols)
    exponent = int(np.frexp(top)[1])
    d = np.ldexp(a.data, -exponent)
    a1 = d[..., 0] + 1j * d[..., 1]
    a2 = d[..., 2] + 1j * d[..., 3]
    try:
        vals = np.linalg.svd(np.block([[a1, a2], [-a2.conj(), a1.conj()]]), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK SVD of the complex adjoint: {exc}") from None
    # Paired, bounded and averaged at the scale of max |component| ~ 1, so
    # that a mean of values near the overflow threshold cannot overflow.
    pairs = np.sort(vals)[::-1].reshape(a.cols, 2)
    bound = adjoint_error_bound(a, float(pairs[0, 0]))
    spread = float((pairs[:, 0] - pairs[:, 1]).max())
    if spread > bound:
        raise GroupingFailure(
            f"twofold multiplicity not resolved: pair spread {spread:.3e} "
            f"exceeds the error bound {bound:.3e}, both in units of 2**{exponent}")
    means = pairs.mean(axis=1)
    _check_range("largest singular value", means[0], exponent)
    return np.ldexp(means, exponent)
