"""Independent singular-value oracle via the real adjoint representation.

Each quaternion entry q = w + xi + yj + zk maps to the 4x4 real block of
left-multiplication by q, turning an r x c quaternion matrix into a
4r x 4c real one with the same singular values, each repeated four
times.  They are recovered without squaring the matrix: a Householder
triangularisation R of the adjoint (taken on its smaller side) is
followed by one-sided (Hestenes) Jacobi on the rows of R, which rotates
them until they are mutually orthogonal and reads the singular values
off as their norms.  This is deliberately a different algorithm family
from the bidiagonal QR route in bidiag/rsvd, so the two share no code.

Error bound: every returned value is within

    BOUND_FACTOR * n * eps * sigma_max,    n = 4 * min(r, c),

of the true singular value (see ``adjoint_error_bound``).  Both stages
apply orthogonal transformations, each backward stable to a few eps
relative to the norm, so by Weyl's inequality the values move by a
small multiple of n * eps * sigma_max.  BOUND_FACTOR is a working
constant, not a proof: it leaves a margin of about 5 over the largest
deviation from LAPACK's SVD of the adjoint seen on random,
rank-deficient, column-graded and 10^(+-200)-scaled inputs.  Working on
the adjoint itself keeps small values down to this absolute level; its
Gram matrix would square the condition number and lose every value
below ~sqrt(eps) * sigma_max (Demmel & Veselic 1992).

A run of four values that spreads beyond the bound raises
GroupingFailure; a Jacobi run that has not converged after MAX_SWEEPS
sweeps, or a matrix with a non-finite entry, raises NoConvergence; a
largest value beyond the float range raises OverflowError.
"""

from __future__ import annotations

import numpy as np

from .errors import GroupingFailure, NoConvergence
from .qmat import QMatrix, RMatrix, _check_range

MAX_SWEEPS = 50
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
    with n = 4 * min(r, c), the order of the triangular factor."""
    return BOUND_FACTOR * 4 * min(a.shape) * EPS * sigma_max


def _triangularize(m: np.ndarray) -> np.ndarray:
    """Upper-triangular R with m = Q R, Q orthogonal, for a tall m
    (rows >= cols), by Householder reflections.  R has the singular
    values of m in a square of order cols."""
    a = m.copy()
    cols = a.shape[1]
    for k in range(cols):
        x = a[k:, k]
        norm = float(np.linalg.norm(x))
        if norm == 0.0:
            continue
        # H = I - v v^T / (norm (norm + |x0|)) sends x to alpha e1.
        alpha = -np.copysign(norm, x[0])
        v = x.copy()
        v[0] -= alpha
        a[k:, k + 1:] -= np.outer(v, (v @ a[k:, k + 1:]) / (norm * (norm + abs(x[0]))))
        a[k, k] = alpha
        a[k + 1:, k] = 0.0
    return a[:cols]


def _round_robin_shift(n: int) -> np.ndarray:
    """Row permutation between successive rounds of a round-robin
    tournament on n (even) rows, stored pairwise: rows 2i and 2i+1 meet
    in the current round.  n - 1 shifts let every two rows meet exactly
    once (Brent & Luk 1985); the pairs of one round are disjoint, so a
    whole round is rotated at once."""
    def layout(circle):
        rows = np.empty(n, dtype=np.intp)
        rows[0::2] = circle[: n // 2]
        rows[1::2] = circle[::-1][: n // 2]
        return rows

    circle = np.arange(n)
    current = layout(circle)
    following = layout(np.concatenate([circle[:1], circle[-1:], circle[1:-1]]))
    position = np.empty(n, dtype=np.intp)
    position[current] = np.arange(n)
    return position[following]


def _row_norms_after_jacobi(h: np.ndarray) -> np.ndarray:
    """Norms of the rows of h (n x m, n even, max |h| about 1) once plane
    rotations have made them mutually orthogonal: the singular values of
    h.  A pair is left alone when its cosine is at most eps * sqrt(m) or
    its smaller row is below eps in norm, which the absolute bound
    covers.  Raises NoConvergence after MAX_SWEEPS sweeps."""
    n, m = h.shape
    half = n // 2
    tol = EPS * np.sqrt(m)
    shift = _round_robin_shift(n)
    pairs = h.reshape(half, 2, m)
    for _ in range(MAX_SWEEPS):
        rotated = False
        for _ in range(n - 1):
            x, y = pairs[:, 0], pairs[:, 1]
            alpha = np.einsum("ij,ij->i", x, x)
            beta = np.einsum("ij,ij->i", y, y)
            gamma = np.einsum("ij,ij->i", x, y)
            rot = (np.abs(gamma) > tol * np.sqrt(alpha * beta)) & (np.minimum(alpha, beta) > EPS * EPS)
            if rot.any():
                rotated = True
                # tan of the angle that zeroes gamma, the smaller of the two roots
                zeta = (beta - alpha) / (2.0 * np.where(rot, gamma, 1.0))
                t = np.where(rot, np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta)), 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                # (x, y) -> (c x - s y, s x + c y) for every pair at once
                pairs = np.stack([c, -s, s, c], axis=1).reshape(half, 2, 2) @ pairs
            pairs = pairs.reshape(n, m)[shift].reshape(half, 2, m)
        if not rotated:
            rows = pairs.reshape(n, m)
            return np.sqrt(np.einsum("ij,ij->i", rows, rows))
    raise NoConvergence(f"one-sided Jacobi sweep limit ({MAX_SWEEPS}) reached")


def adjoint_singular_values(a: QMatrix) -> np.ndarray:
    """Singular values of a quaternion matrix, descending, computed
    entirely through the real adjoint.

    The adjoint of the tall side (A or conj(A).T) is scaled by a power of
    two to max |entry| in [1/2, 1), triangularised and orthogonalised by
    one-sided Jacobi.  Its 4 * min(r, c) values are sorted and collapsed
    into consecutive runs of four, each to its mean, before they are
    scaled back.  Every value is within
    ``adjoint_error_bound(a, sigma_max)`` of the truth.  Raises
    GroupingFailure when a run of four spreads beyond that bound,
    NoConvergence when Jacobi reaches MAX_SWEEPS sweeps or an entry is
    not finite, and OverflowError when the largest value is beyond the
    float range.
    """
    if not np.isfinite(a.data).all():
        raise NoConvergence("matrix has non-finite entries")
    if a.cols > a.rows:
        a = a.conj_transpose()
    chi = real_adjoint(a).data
    top = float(np.abs(chi).max())
    if top == 0.0:
        return np.zeros(a.cols)
    exponent = int(np.frexp(top)[1])
    vals = _row_norms_after_jacobi(_triangularize(np.ldexp(chi, -exponent)))
    # Grouped, bounded and averaged at the scale of max |entry| ~ 1, so
    # that a mean of values near the overflow threshold cannot overflow.
    groups = np.sort(vals)[::-1].reshape(a.cols, 4)
    bound = adjoint_error_bound(a, float(groups[0, 0]))
    spread = float((groups[:, 0] - groups[:, -1]).max())
    if spread > bound:
        raise GroupingFailure(
            f"fourfold multiplicity not resolved: group spread {spread:.3e} "
            f"exceeds the error bound {bound:.3e}, both in units of 2**{exponent}")
    means = groups.mean(axis=1)
    _check_range("largest singular value", means[0], exponent)
    return np.ldexp(means, exponent)
