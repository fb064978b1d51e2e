"""Left and right quaternion Householder transformations.

A reflector is the pair ``(u, zeta)`` with ``|zeta| = 1`` and either
``norm(u) = sqrt(2)`` or ``u = 0`` (the identity case).  Writing
``z = 1/zeta = conj(zeta)``, the left transformation is
``H = z * (I - u @ conj(u).T)`` and maps a chosen column vector ``a``
onto ``norm(a) * e1``.  The right transformation
``G = (I - u @ conj(u).T) * z`` does the same for row vectors multiplied
from the right.  The two cases genuinely differ because quaternion
multiplication does not commute; the right reflector is obtained from a
left reflector of the conjugated vector.

With ``alpha = norm(a)``, ``zeta = -a_1/|a_1|`` (1 when ``|a_1| <= n*eps*alpha``)
and ``u = (a - zeta*alpha*e1) / (sqrt(alpha) * sqrt(alpha + |a_1|))``.  The
paper's formula allows any real unit target; the package builds onto e1
only, the target of every reflector in the reduction to bidiagonal form
and the only one LAPACK's xLARFG supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmat import QVector, _CONJ, _SQ_MAX, _SQ_MIN, _check_finite, _rescaled_squares

EPS = 2.0 ** -52

__all__ = ["HouseholderReflector", "left_householder", "right_householder"]


@dataclass(frozen=True, eq=False, slots=True)
class HouseholderReflector:
    """A built reflector: `u` and the unit scalar zeta as its (4,) component
    array `zeta4`.  That is all of H = z (I - u u*) from left_householder
    and of G = (I - u u*) z from right_householder, with z = conj(zeta);
    the reflector does not record which builder made it."""
    u: QVector
    zeta4: np.ndarray

    @property
    def is_identity(self) -> bool:
        return not np.count_nonzero(self.u.data)

    def __len__(self) -> int:
        return len(self.u)


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


def _reflector(a_data: np.ndarray, alpha: float):
    """``(u, zeta)`` as arrays for the left reflector of the (n, 4) components
    `a_data` of norm `alpha` onto e1 (see left_householder)."""
    if alpha == 0.0:
        return np.zeros_like(a_data), np.array([1.0, 0.0, 0.0, 0.0])

    t = a_data[0]
    r = math.hypot(*t.tolist())
    # Treat a denormal projection as zero so we never divide by it.
    if r <= len(a_data) * EPS * alpha:
        zeta4 = np.array([1.0, 0.0, 0.0, 0.0])
        r = 0.0
    else:
        zeta4 = t / -r
    mu = math.sqrt(alpha) * math.sqrt(alpha + r)  # no overflow of alpha**2
    u = a_data.copy()
    u[0] -= alpha * zeta4
    u /= mu
    return u, zeta4


def left_householder(a: QVector) -> HouseholderReflector:
    """Reflector mapping the column vector `a` onto ``norm(a) * e1``: with
    ``alpha = norm(a)`` and ``r = |a_1|``, ``zeta = 1`` when r vanishes and
    ``-a_1/r`` otherwise, and ``u = (a - zeta*alpha*e1) / (sqrt(alpha) *
    sqrt(alpha + r))``.  A zero `a` yields the identity reflector (zero u,
    zeta = 1), and a NaN or infinite entry raises NonFiniteInput."""
    data, alpha = _scaled_norm(a)
    u, zeta4 = _reflector(data, alpha)
    return HouseholderReflector(QVector._wrap(u), zeta4)


def right_householder(a_row: QVector) -> HouseholderReflector:
    """Reflector mapping the row vector `a_row` from the right onto
    ``norm(a) * e1.T``, built by reduction to the left case: a left
    reflector of the entrywise-conjugated vector gives ``H``, and the right
    transformation is its conjugate transpose, which shares the same ``u``
    and carries the conjugated scalar."""
    data, alpha = _scaled_norm(a_row)
    u, zeta4 = _reflector(data * _CONJ, alpha)
    return HouseholderReflector(QVector._wrap(u), zeta4 * _CONJ)
