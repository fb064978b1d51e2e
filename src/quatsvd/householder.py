"""Left and right quaternion Householder transformations.

A reflector is the pair ``(u, zeta)`` with ``|zeta| = 1`` and either
``norm(u) = sqrt(2)`` or ``u = 0`` (the identity case).  Writing
``z = 1/zeta = conj(zeta)``, the left transformation is
``H = z * (I - u @ conj(u).T)`` and maps a chosen column vector onto
``norm(a) * v`` for a real unit target ``v``.  The right transformation
``G = (I - u @ conj(u).T) * z`` does the same for row vectors multiplied
from the right.  The two cases genuinely differ because quaternion
multiplication does not commute; the right reflector is obtained from a
left reflector of the conjugated vector.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadTarget, ShapeMismatch
from .qmat import QMatrix, QVector, _conj, _hmatmul, _hscale, _q4, _safe_norm
from .quat import Quaternion

EPS = 2.0 ** -52

__all__ = ["Side", "HouseholderReflector", "left_householder", "right_householder",
           "right_householder_direct", "apply_left", "apply_right", "form_matrix"]


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class HouseholderReflector:
    u: QVector
    zeta: Quaternion
    side: Side

    @property
    def is_identity(self) -> bool:
        return not self.u.data.any()

    @property
    def z(self) -> Quaternion:
        """The scalar that multiplies the projector: ``1/zeta == conj(zeta)``."""
        return self.zeta.conjugate()

    def __len__(self) -> int:
        return len(self.u)


def _check_target(n: int, v) -> np.ndarray:
    """`v` as a float64 array, checked to be a real unit vector of length n."""
    if isinstance(v, QVector):
        if np.any(v.data[:, 1:]):
            raise BadTarget("target vector must have exactly real entries")
        v = v.data[:, 0]
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise BadTarget(f"target vector must be one-dimensional, got shape {v.shape}")
    if len(v) != n:
        raise ShapeMismatch(f"vector length {n} does not match target length {len(v)}")
    norm = math.sqrt(v.dot(v))
    if abs(norm - 1.0) > 1e-12:
        raise BadTarget(f"target vector must have unit norm, got {norm!r}")
    return v


def _reflector(a_data: np.ndarray, v: np.ndarray):
    """``(u, zeta)`` as arrays for the left reflector of the (n, 4)
    components `a_data` onto a checked target `v` (see left_householder)."""
    alpha = _safe_norm(a_data.ravel())
    if alpha == 0.0:
        return np.zeros_like(a_data), np.array([1.0, 0.0, 0.0, 0.0])

    t = a_data.T @ v  # sum_i a_i v_i for real v_i, no conjugation
    r = math.hypot(*t.tolist())
    # Treat a denormal projection as zero so we never divide by it.
    if r <= len(a_data) * EPS * alpha:
        zeta4 = np.array([1.0, 0.0, 0.0, 0.0])
        r = 0.0
    else:
        zeta4 = t / -r
    mu = math.sqrt(alpha) * math.sqrt(alpha + r)  # no overflow of alpha**2
    u = np.multiply.outer(v * alpha, zeta4)
    np.subtract(a_data, u, out=u)
    u /= mu
    return u, zeta4


def left_householder(a: QVector, v) -> HouseholderReflector:
    """Reflector mapping the column vector `a` onto ``norm(a) * v``.

    `v` must be a real unit vector of the same length.  Construction:
    with ``alpha = norm(a)`` and ``r = |sum_i a_i v_i|``, take ``zeta = 1``
    when r vanishes and ``-(sum_i a_i v_i)/r`` otherwise, then
    ``u = (a - zeta*v*alpha) / (sqrt(alpha) * sqrt(alpha + r))``.  A zero `a`
    yields the identity reflector (zero u, zeta = 1).
    """
    u, zeta4 = _reflector(a.data, _check_target(len(a), v))
    return HouseholderReflector(QVector(u), Quaternion(*zeta4.tolist()), Side.LEFT)


def right_householder(a_row: QVector, v) -> HouseholderReflector:
    """Reflector mapping the row vector `a_row` onto ``norm(a) * v.T`` from
    the right.

    Built by reduction to the left case: a left reflector of the
    entrywise-conjugated vector gives ``H``, and the right transformation
    is its conjugate transpose, which shares the same ``u`` and carries
    the conjugated scalar.
    """
    u, zeta4 = _reflector(_conj(a_row.data), _check_target(len(a_row), v))
    w, x, y, z = zeta4.tolist()
    return HouseholderReflector(QVector(u), Quaternion(w, -x, -y, -z), Side.RIGHT)


def right_householder_direct(a_row: QVector, v) -> HouseholderReflector:
    """Right reflector from the closed-form construction, used as a
    cross-check against :func:`right_householder`.

    The projection uses ``r = |sum_i v_i a_i|`` and
    ``u_i = (alpha * conj(zeta) * v_i - conj(a_i)) / mu``.  The resulting
    ``u`` differs from the reduction path by a sign, so only the projector
    ``u @ conj(u).T`` (and hence the transformation) coincides.
    """
    v = _check_target(len(a_row), v)
    alpha = a_row.norm()
    if alpha == 0.0:
        return HouseholderReflector(QVector.zeros(len(a_row)), Quaternion(1.0), Side.RIGHT)

    t = a_row.data.T @ v
    r = math.hypot(*t)
    if r <= len(a_row) * EPS * alpha:
        zeta4 = np.array([1.0, 0.0, 0.0, 0.0])
        r = 0.0
    else:
        zeta4 = -t / r
    mu = math.sqrt(alpha) * math.sqrt(alpha + r)  # no overflow of alpha**2
    zbar = zeta4 * np.array([1.0, -1.0, -1.0, -1.0])
    u = (np.outer(v * alpha, zbar) - _conj(a_row.data)) / mu
    return HouseholderReflector(QVector(u), Quaternion(*zeta4), Side.RIGHT)


def _apply_left_block(u_data, z4, block):
    """``z * (block - u (conj(u).T block))`` for a (m, n, 4) component block."""
    s = _hmatmul(_conj(u_data)[np.newaxis, :, :], block)
    out = block - _hmatmul(u_data[:, np.newaxis, :], s)
    return _hscale(z4, out, "left")


def _apply_right_block(u_data, z4, block):
    """``(block - (block u) conj(u).T) * z`` for a (m, n, 4) component block."""
    t = _hmatmul(block, u_data[:, np.newaxis, :])
    out = block - _hmatmul(t, _conj(u_data)[np.newaxis, :, :])
    return _hscale(z4, out, "right")


def apply_left(h: HouseholderReflector, target):
    """Apply the reflector from the left without forming the matrix.

    `target` may be a QMatrix (rows must match ``len(h)``) or a QVector,
    returned as the same type.  Cost is one pass over the entries.
    """
    if h.side is not Side.LEFT:
        raise ValueError("apply_left needs a left-side reflector")
    if isinstance(target, QVector):
        return QVector(apply_left(h, target.as_column()).data[:, 0, :])
    if target.rows != len(h):
        raise ShapeMismatch(f"reflector length {len(h)} does not match {target.rows} rows")
    if h.is_identity:
        return target.copy()
    return QMatrix(_apply_left_block(h.u.data, _q4(h.z), target.data))


def apply_right(h: HouseholderReflector, target):
    """Apply the reflector from the right; `target` is a QMatrix whose
    column count matches, or a QVector treated as a single row."""
    if h.side is not Side.RIGHT:
        raise ValueError("apply_right needs a right-side reflector")
    if isinstance(target, QVector):
        return QVector(apply_right(h, target.as_row()).data[0, :, :])
    if target.cols != len(h):
        raise ShapeMismatch(f"reflector length {len(h)} does not match {target.cols} columns")
    if h.is_identity:
        return target.copy()
    return QMatrix(_apply_right_block(h.u.data, _q4(h.z), target.data))


def form_matrix(h: HouseholderReflector) -> QMatrix:
    """Explicit transformation matrix; reference path for tests and small
    problems only, the implicit apply functions are the production route."""
    m = len(h)
    projector = QMatrix.identity(m) - h.u.outer_hermitian()
    if h.side is Side.LEFT:
        return projector.scale_left(h.z)
    return projector.scale_right(h.z)
