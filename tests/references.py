"""Test-only references: code the package does not run, kept as
independent checks of what it does run.

``jacobi_eigen`` is a cyclic two-sided Jacobi eigensolver for the
eigenvalues of B^T B and of the real adjoint's Gram.
``right_householder_direct`` builds the right reflector onto e1 from its
closed form, with its own norm, a cross-check of ``right_householder``.
``apply_left`` and ``apply_right`` apply a reflector on the interleaved
(r, c, 4) layout through the Hamilton product of component arrays, a
second path beside ``bidiagonalize``'s planar kernels.  A reflector is the
builders' pair ``(u, zeta4)`` of arrays, a vector its (n, 4) components.
``form_matrix`` forms a reflector's explicit matrix from the Hermitian
outer product ``outer_hermitian`` and the unit-scalar side scaling
``scale_left`` and ``scale_right``, which multiply through the real 4x4
forms ``_lmat`` and ``_rmat``.
``known_sigma_matrix`` forms a matrix with prescribed singular values
from random unitary factors built here, with no code from
``householder.py``.
"""

from __future__ import annotations

import math

import numpy as np

from quatsvd.errors import NoConvergence, NonFiniteInput, ShapeMismatch
from quatsvd.householder import EPS
from quatsvd.qmat import QMatrix, RMatrix, _CONJ, _HAMILTON, _LMAT_OF, _hmatmul, _q4
from quatsvd.quat import Quaternion

# The sweep cap of jacobi_eigen.
JACOBI_MAX_SWEEPS = 50


class NotSymmetric(ValueError):
    """Matrix handed to the symmetric eigensolver is not symmetric."""


def jacobi_eigen(s: RMatrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations,
    ascending.  Raises NotSymmetric when the input is not symmetric to
    1e-12 relative, NoConvergence after 50 full sweeps."""
    a = s.data
    if a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    norm = float(np.linalg.norm(a))
    if float(np.linalg.norm(a - a.T)) > 1e-12 * max(norm, 1e-300):
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative")

    a = (a + a.T) / 2.0
    n = a.shape[0]
    if n == 1 or norm == 0.0:
        return np.sort(np.diag(a))

    for _ in range(JACOBI_MAX_SWEEPS):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= 1e-14 * norm:
            return np.sort(np.diag(a))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-15 * norm / n:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = np.sign(tau) / (abs(tau) + np.sqrt(tau * tau + 1.0))
                c = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * c
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - sn * row_q
                a[q, :] = sn * row_p + c * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - sn * col_q
                a[:, q] = sn * col_p + c * col_q

    off = float(np.linalg.norm(a - np.diag(np.diag(a))))
    if off <= 1e-14 * norm:
        return np.sort(np.diag(a))
    raise NoConvergence(
        f"Jacobi sweep limit ({JACOBI_MAX_SWEEPS}) reached, off-diagonal {off:.3e}")


def _norm_by_rule(data: np.ndarray) -> tuple[np.ndarray, float]:
    """``(data * 2**-e, alpha)`` by the documented norm rule: one dot product
    and square root when the sum of squares lies in [2**-968, 2**968],
    otherwise the same after scaling by the even power of two that brings
    the largest entry into [1/2, 2), exactly.  e is 0 in range, and alpha
    is the norm of the returned data.  A NaN or infinite entry raises
    NonFiniteInput naming the first such entry."""
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        at = int(np.argmax(bad))
        raise NonFiniteInput(f"entry {at} is not finite: {data[at].tolist()}")
    sq = np.vdot(data, data)
    if not 2.0 ** -968 <= sq <= 2.0 ** 968:
        e = 2 * (int(np.frexp(np.abs(data).max())[1]) // 2)
        data = np.ldexp(data, -e)
        sq = np.vdot(data, data)
    return data, math.sqrt(sq)


def right_householder_direct(a_row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(u, zeta4)`` of the right reflector onto e1 of the row with (n, 4)
    components `a_row`, from the closed-form construction, used as a
    cross-check against :func:`right_householder`.

    The projection uses ``r = |a_1|`` and
    ``u_i = (alpha * conj(zeta) * delta_i1 - conj(a_i)) / mu``.  The
    resulting ``u`` differs from the reduction path by a sign, so only the
    projector ``u @ conj(u).T`` (and hence the transformation) coincides.
    """
    data, alpha = _norm_by_rule(np.asarray(a_row, dtype=np.float64))
    if alpha == 0.0:
        return np.zeros_like(data), np.array([1.0, 0.0, 0.0, 0.0])

    t = data[0]
    r = math.hypot(*t)
    if r <= len(a_row) * EPS * alpha:
        zeta4 = np.array([1.0, 0.0, 0.0, 0.0])
        r = 0.0
    else:
        zeta4 = -t / r
    mu = math.sqrt(alpha) * math.sqrt(alpha + r)  # no overflow of alpha**2
    u = -data * _CONJ
    u[0] += alpha * zeta4 * _CONJ
    return u / mu, zeta4


# --- explicit matrices: the Hermitian outer product and the side scaling

# The real 4x4 matrix of right multiplication by q, beside qmat's _LMAT_OF
# of left multiplication: component l of p * q is sum_k _rmat(q)[l, k] p[k].
_RMAT_OF = _HAMILTON.reshape(4, 4, 4).transpose(2, 0, 1).reshape(16, 4)


def _lmat(q: np.ndarray) -> np.ndarray:
    return (q @ _LMAT_OF.T).reshape(q.shape[:-1] + (4, 4))


def _rmat(q: np.ndarray) -> np.ndarray:
    return (q @ _RMAT_OF.T).reshape(q.shape[:-1] + (4, 4))


def _hscale(q, a, side):
    """Multiply every entry of `a` by the quaternion components `q`, a
    (4,) array, on one side, through the real form of q."""
    return a @ (_lmat(q) if side == "left" else _rmat(q)).T


def scale_left(m: QMatrix, q: Quaternion) -> QMatrix:
    return QMatrix(_hscale(_q4(q), m.data, "left"))


def scale_right(m: QMatrix, q: Quaternion) -> QMatrix:
    return QMatrix(_hscale(_q4(q), m.data, "right"))


def outer_hermitian(u: np.ndarray) -> QMatrix:
    """Rank-one Hermitian matrix with entries ``u_i * conj(u_j)`` of the
    vector with (n, 4) components `u`."""
    out = _hmatmul(u[:, np.newaxis, :], (u * _CONJ)[np.newaxis, :, :])
    # Mirror the strict triangle: (i,j) and (j,i) sum the same products in
    # different orders, so symmetry would otherwise hold only to rounding.
    i, j = np.triu_indices(len(u), 1)
    out[j, i] = out[i, j] * _CONJ
    # Diagonal entries are |u_i|^2: wipe the vector-part rounding residue.
    k = np.arange(len(u))
    out[k, k, 1:] = 0.0
    return QMatrix(out)


def form_matrix(h, side: str) -> QMatrix:
    """Explicit transformation matrix of a reflector ``(u, zeta4)`` from
    left_householder (`side` "left"), ``z (I - u u*)``, or from
    right_householder ("right"), ``(I - u u*) z``, with ``z = conj(zeta)``."""
    u, zeta4 = h
    projector = QMatrix.identity(len(u)) - outer_hermitian(u)
    return QMatrix(_hscale(zeta4 * _CONJ, projector.data, side))


def _apply_left_block(u_data, z4, block):
    """``z * (block - u (conj(u).T block))`` for a (m, n, 4) component block."""
    s = _hmatmul((u_data * _CONJ)[np.newaxis, :, :], block)
    out = block - _hmatmul(u_data[:, np.newaxis, :], s)
    return _hscale(z4, out, "left")


def _apply_right_block(u_data, z4, block):
    """``(block - (block u) conj(u).T) * z`` for a (m, n, 4) component block."""
    t = _hmatmul(block, u_data[:, np.newaxis, :])
    out = block - _hmatmul(t, (u_data * _CONJ)[np.newaxis, :, :])
    return _hscale(z4, out, "right")


def apply_left(h, target):
    """Apply a reflector ``(u, zeta4)`` from left_householder,
    ``z (I - u u*)``, from the left without forming the matrix.

    `target` may be a QMatrix (rows must match ``len(u)``) or the (n, 4)
    components of a column vector, returned as the same type.  Cost is one
    pass over the entries.
    """
    if isinstance(target, np.ndarray):
        return apply_left(h, QMatrix(target[:, np.newaxis])).data[:, 0]
    u, zeta4 = h
    if target.rows != len(u):
        raise ShapeMismatch(f"reflector length {len(u)} does not match {target.rows} rows")
    if not u.any():
        return target.copy()
    return QMatrix(_apply_left_block(u, zeta4 * _CONJ, target.data))


def apply_right(h, target):
    """Apply a reflector ``(u, zeta4)`` from right_householder,
    ``(I - u u*) z``, from the right; `target` is a QMatrix whose column
    count matches, or the (n, 4) components of a row vector, returned as
    the same type."""
    if isinstance(target, np.ndarray):
        return apply_right(h, QMatrix(target[np.newaxis])).data[0]
    u, zeta4 = h
    if target.cols != len(u):
        raise ShapeMismatch(f"reflector length {len(u)} does not match {target.cols} columns")
    if not u.any():
        return target.copy()
    return QMatrix(_apply_right_block(u, zeta4 * _CONJ, target.data))


# Signs of the conjugate's components.
CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def hamilton_product(p, q):
    """Entrywise Hamilton product of two broadcastable (..., 4) component
    arrays, written out here rather than taken from the package."""
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack((pw * qw - px * qx - py * qy - pz * qz,
                     pw * qx + px * qw + py * qz - pz * qy,
                     pw * qy - px * qz + py * qw + pz * qx,
                     pw * qz + px * qy - py * qx + pz * qw), axis=-1)


def random_orthonormal_columns(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(m, n, 4) components of n orthonormal quaternion columns, m >= n:
    modified Gram-Schmidt, run twice per column, on Gaussian columns.
    Each projection is ``x - q (q* x)`` with the coefficient on the right,
    the inner product of a right vector space."""
    cols = []
    for x in rng.standard_normal((n, m, 4)):
        for _ in range(2):
            for q in cols:
                x = x - hamilton_product(q, hamilton_product(q * CONJ, x).sum(axis=0))
        cols.append(x / np.linalg.norm(x))
    return np.stack(cols, axis=1)


def known_sigma_matrix(sigma, p: np.ndarray, q: np.ndarray, exponent: int = 0) -> QMatrix:
    """``P diag(sigma) Q* * 2**exponent`` for the components of orthonormal
    columns P (rows x n) and Q (cols x n), n = len(sigma), as
    random_orthonormal_columns draws them: a matrix whose singular values
    are sigma * 2**exponent up to the rounding in forming it, as LAPACK's
    xLATMS makes them.  The product is formed at the scale of sigma and
    scaled by the exact power of two afterwards."""
    sigma = np.asarray(sigma, dtype=np.float64)
    terms = hamilton_product((p * sigma[:, np.newaxis])[:, np.newaxis],
                             (q * CONJ)[np.newaxis])
    return QMatrix(np.ldexp(terms.sum(axis=2), exponent))
