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

The target defaults to e1, the only one the reduction to bidiagonal form
uses (and the only one LAPACK's xLARFG supports).  A build onto e1 skips
the target's checks, its projection is the vector's first entry and u
differs from the vector in its first entry only; it gives the same u and
zeta as the build onto an explicit e1, up to the sign of a zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadTarget, ShapeMismatch
from .qmat import (QMatrix, QVector, _CONJ, _SQ_MAX, _SQ_MIN, _check_finite, _q4,
                   _rescaled_squares)
from .quat import Quaternion

EPS = 2.0 ** -52

__all__ = ["Side", "HouseholderReflector", "left_householder", "right_householder",
           "form_matrix"]


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True, eq=False, slots=True)
class HouseholderReflector:
    """A built reflector: `u`, the unit scalar zeta as the (4,) component
    array `zeta4`, and the side.  The scalar may be given as a Quaternion
    too; `zeta` and `z` build Quaternions only when read."""
    u: QVector
    zeta4: np.ndarray
    side: Side

    def __post_init__(self):
        if isinstance(self.zeta4, Quaternion):
            object.__setattr__(self, "zeta4", _q4(self.zeta4))

    @property
    def is_identity(self) -> bool:
        return not np.count_nonzero(self.u.data)

    @property
    def zeta(self) -> Quaternion:
        return Quaternion(*self.zeta4.tolist())

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
    v = np.asarray(v)
    if v.dtype.kind == "c":
        raise BadTarget(f"target vector must be real, got dtype {v.dtype}")
    v = v.astype(np.float64, copy=False)
    if v.ndim != 1:
        raise BadTarget(f"target vector must be one-dimensional, got shape {v.shape}")
    if len(v) != n:
        raise ShapeMismatch(f"vector length {n} does not match target length {len(v)}")
    norm = math.sqrt(np.vdot(v, v))
    if not abs(norm - 1.0) <= 1e-12:  # rejects a NaN norm too
        raise BadTarget(f"target vector must have unit norm, got {norm!r}")
    return v


def _scaled_norm(a: QVector) -> tuple[np.ndarray, float]:
    """``(data, alpha)``: the components of `a` and their norm by qmat's
    norm rule, its range test inline so that a build pays no extra call.
    Raises NonFiniteInput for a NaN or infinite entry; a rescaled `a` comes
    back times a power of two for which every later step of a build is
    exact, so u and zeta come out as from `a`."""
    data = a.data
    flat = data.ravel()
    sq = np.vdot(flat, flat)
    if not _SQ_MIN <= sq <= _SQ_MAX:
        _check_finite(a)
        _, data, sq = _rescaled_squares(data)
    return data, math.sqrt(sq)


def _reflector(a_data: np.ndarray, v: np.ndarray | None, alpha: float):
    """``(u, zeta)`` as arrays for the left reflector of the (n, 4) components
    `a_data` of norm `alpha` onto a checked target `v`, or e1 for None (see
    left_householder)."""
    if alpha == 0.0:
        return np.zeros_like(a_data), np.array([1.0, 0.0, 0.0, 0.0])

    # sum_i a_i v_i for real v_i, no conjugation: a_1 for e1.
    t = a_data[0] if v is None else v.dot(a_data)
    r = math.hypot(*t.tolist())
    # Treat a denormal projection as zero so we never divide by it.
    if r <= len(a_data) * EPS * alpha:
        zeta4 = np.array([1.0, 0.0, 0.0, 0.0])
        r = 0.0
    else:
        zeta4 = t / -r
    mu = math.sqrt(alpha) * math.sqrt(alpha + r)  # no overflow of alpha**2
    if v is None:
        u = a_data.copy()
        u[0] -= alpha * zeta4
    else:
        u = np.multiply.outer(v * alpha, zeta4)
        np.subtract(a_data, u, out=u)
    u /= mu
    return u, zeta4


def left_householder(a: QVector, v=None) -> HouseholderReflector:
    """Reflector mapping the column vector `a` onto ``norm(a) * v``.

    `v` must be a real unit vector of the same length; None, the default,
    means e1, the target of every reflector in the reduction.  Construction:
    with ``alpha = norm(a)`` and ``r = |sum_i a_i v_i|``, take ``zeta = 1``
    when r vanishes and ``-(sum_i a_i v_i)/r`` otherwise, then
    ``u = (a - zeta*v*alpha) / (sqrt(alpha) * sqrt(alpha + r))``.  A zero `a`
    yields the identity reflector (zero u, zeta = 1), and a NaN or infinite
    entry raises NonFiniteInput.
    """
    v = None if v is None else _check_target(len(a), v)
    data, alpha = _scaled_norm(a)
    u, zeta4 = _reflector(data, v, alpha)
    return HouseholderReflector(QVector._wrap(u), zeta4, Side.LEFT)


def right_householder(a_row: QVector, v=None) -> HouseholderReflector:
    """Reflector mapping the row vector `a_row` onto ``norm(a) * v.T`` from
    the right; `v` is as for left_householder, e1 by default.

    Built by reduction to the left case: a left reflector of the
    entrywise-conjugated vector gives ``H``, and the right transformation
    is its conjugate transpose, which shares the same ``u`` and carries
    the conjugated scalar.
    """
    v = None if v is None else _check_target(len(a_row), v)
    data, alpha = _scaled_norm(a_row)
    u, zeta4 = _reflector(data * _CONJ, v, alpha)
    return HouseholderReflector(QVector._wrap(u), zeta4 * _CONJ, Side.RIGHT)


def form_matrix(h: HouseholderReflector) -> QMatrix:
    """Explicit transformation matrix; a reference for tests and small
    problems.  The production route is bidiagonalize's planar kernels,
    which apply each reflector without forming it."""
    m = len(h)
    projector = QMatrix.identity(m) - h.u.outer_hermitian()
    if h.side is Side.LEFT:
        return projector.scale_left(h.z)
    return projector.scale_right(h.z)
