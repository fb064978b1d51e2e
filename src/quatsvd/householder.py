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

Both builders take the vector as its (n, 4) float64 component array, one
``(w, x, y, z)`` row per entry, and return the arrays ``(u, zeta4)``: u
in the same layout and zeta as its (4,) components.  The pair is all of
H or G, and does not record which builder made it.  A build copies its
input once and forms u in that copy, as xLARFG forms its vector in
place; the input, which may be a strided view, is left as it was.

With ``alpha = norm(a)``, ``zeta = -a_1/|a_1|`` (1 when ``|a_1| <= n*eps*alpha``)
and ``u = (a - zeta*alpha*e1) / (sqrt(alpha) * sqrt(alpha + |a_1|))``.  The
paper's formula allows any real unit target; the package builds onto e1
only, the target of every reflector in the reduction to bidiagonal form
and the only one LAPACK's xLARFG supports.
"""

from __future__ import annotations

import math

import numpy as np

from .qmat import _CONJ, _SQ_MAX, _SQ_MIN, _check_finite, _components, _rescaled_squares

EPS = 2.0 ** -52

__all__ = ["left_householder", "right_householder"]


def _scaled_norm(a) -> tuple[np.ndarray, float]:
    """``(data, alpha)``: the build's one copy of the (n, 4) components
    `a`, in C order (numpy's default would copy a transposed row in F
    order for _components to copy again), checked by the shape rule of
    the matrices, and their norm by qmat's norm rule, its range test
    inline.  Raises TypeError for complex data, ShapeMismatch for any
    other shape and NonFiniteInput for a NaN or infinite entry; a rescaled
    `a` comes back times a power of two for which every later step of a
    build is exact, so u and zeta come out as from `a`."""
    data = _components(np.array(a, order="C"), 2, True, "a reflector's vector")
    sq = np.vdot(data, data)
    if not _SQ_MIN <= sq <= _SQ_MAX:
        _check_finite(data)
        _, data, sq = _rescaled_squares(data)
    return data, math.sqrt(sq)


def _reflector(a_data: np.ndarray, alpha: float):
    """``(u, zeta4)`` for the left reflector of the (n, 4) components
    `a_data` of norm `alpha` onto e1 (see left_householder), u formed in
    `a_data` and row 0 on floats, which round as numpy does at less cost."""
    if alpha == 0.0:
        return np.zeros_like(a_data), np.array([1.0, 0.0, 0.0, 0.0])
    w, x, y, z = a_data[0].tolist()
    r = math.hypot(w, x, y, z)
    # Treat a denormal projection as zero so we never divide by it.
    if r <= len(a_data) * EPS * alpha:
        zeta, r = (1.0, 0.0, 0.0, 0.0), 0.0
    else:
        zeta = (w / -r, x / -r, y / -r, z / -r)
    mu = math.sqrt(alpha) * math.sqrt(alpha + r)  # no overflow of alpha**2
    a_data[0] = (w - alpha * zeta[0], x - alpha * zeta[1], y - alpha * zeta[2], z - alpha * zeta[3])
    a_data /= mu
    return a_data, np.array(zeta)


def left_householder(a) -> tuple[np.ndarray, np.ndarray]:
    """``(u, zeta4)`` of the reflector mapping the column vector with (n, 4)
    components `a` onto ``norm(a) * e1``: with ``alpha = norm(a)`` and
    ``r = |a_1|``, ``zeta = 1`` when r vanishes and ``-a_1/r`` otherwise,
    and ``u = (a - zeta*alpha*e1) / (sqrt(alpha) * sqrt(alpha + r))``.  A
    zero `a` yields the identity reflector (zero u, zeta = 1), and a NaN or
    infinite entry raises NonFiniteInput."""
    return _reflector(*_scaled_norm(a))


def right_householder(a_row) -> tuple[np.ndarray, np.ndarray]:
    """``(u, zeta4)`` of the reflector mapping the row vector with (n, 4)
    components `a_row` from the right onto ``norm(a) * e1.T``, built by
    reduction to the left case: a left reflector of the entrywise-conjugated
    vector gives ``H``, and the right transformation is its conjugate
    transpose, which shares the same ``u`` and carries the conjugated
    scalar."""
    data, alpha = _scaled_norm(a_row)
    u, zeta4 = _reflector(np.multiply(data, _CONJ, out=data), alpha)
    return u, zeta4 * _CONJ
