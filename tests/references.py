"""Test-only references: code the package does not run, kept as
independent checks of what it does run.

``jacobi_eigen`` is a cyclic two-sided Jacobi eigensolver for the
eigenvalues of B^T B and of the real adjoint's Gram.
``right_householder_direct`` builds the right reflector from its closed
form, a cross-check of ``right_householder``.  ``apply_left`` and
``apply_right`` apply a reflector on the interleaved (r, c, 4) layout
through the Hamilton product of component arrays, a second path beside
``bidiagonalize``'s planar kernels.  ``known_sigma_matrix`` forms a
matrix with prescribed singular values from random unitary factors
built here, with no code from ``householder.py``.
"""

from __future__ import annotations

import math

import numpy as np

from quatsvd.errors import NoConvergence, ShapeMismatch
from quatsvd.householder import (EPS, HouseholderReflector, Side, _check_target,
                                 _scaled_norm)
from quatsvd.oracle import MAX_SWEEPS
from quatsvd.qmat import QMatrix, QVector, RMatrix, _CONJ, _hmatmul, _hscale
from quatsvd.quat import Quaternion


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

    for _ in range(MAX_SWEEPS):
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
    raise NoConvergence(f"Jacobi sweep limit ({MAX_SWEEPS}) reached, off-diagonal {off:.3e}")


def right_householder_direct(a_row: QVector, v) -> HouseholderReflector:
    """Right reflector from the closed-form construction, used as a
    cross-check against :func:`right_householder`.

    The projection uses ``r = |sum_i v_i a_i|`` and
    ``u_i = (alpha * conj(zeta) * v_i - conj(a_i)) / mu``.  The resulting
    ``u`` differs from the reduction path by a sign, so only the projector
    ``u @ conj(u).T`` (and hence the transformation) coincides.
    """
    v = _check_target(len(a_row), v)
    data, alpha = _scaled_norm(a_row)
    if alpha == 0.0:
        return HouseholderReflector(QVector.zeros(len(a_row)), Quaternion(1.0), Side.RIGHT)

    t = v.dot(data)
    r = math.hypot(*t)
    if r <= len(a_row) * EPS * alpha:
        zeta4 = np.array([1.0, 0.0, 0.0, 0.0])
        r = 0.0
    else:
        zeta4 = -t / r
    mu = math.sqrt(alpha) * math.sqrt(alpha + r)  # no overflow of alpha**2
    u = (np.outer(v * alpha, zeta4 * _CONJ) - data * _CONJ) / mu
    return HouseholderReflector(QVector(u), zeta4, Side.RIGHT)


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


def apply_left(h: HouseholderReflector, target):
    """Apply the reflector from the left without forming the matrix.

    `target` may be a QMatrix (rows must match ``len(h)``) or a QVector,
    returned as the same type.  Cost is one pass over the entries.
    """
    if h.side is not Side.LEFT:
        raise ValueError("apply_left needs a left-side reflector")
    if isinstance(target, QVector):
        return QVector(apply_left(h, QMatrix(target.data[:, np.newaxis])).data[:, 0])
    if target.rows != len(h):
        raise ShapeMismatch(f"reflector length {len(h)} does not match {target.rows} rows")
    if h.is_identity:
        return target.copy()
    return QMatrix(_apply_left_block(h.u.data, h.zeta4 * _CONJ, target.data))


def apply_right(h: HouseholderReflector, target):
    """Apply the reflector from the right; `target` is a QMatrix whose
    column count matches, or a QVector treated as a single row."""
    if h.side is not Side.RIGHT:
        raise ValueError("apply_right needs a right-side reflector")
    if isinstance(target, QVector):
        return QVector(apply_right(h, QMatrix(target.data[np.newaxis])).data[0])
    if target.cols != len(h):
        raise ShapeMismatch(f"reflector length {len(h)} does not match {target.cols} columns")
    if h.is_identity:
        return target.copy()
    return QMatrix(_apply_right_block(h.u.data, h.zeta4 * _CONJ, target.data))


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
