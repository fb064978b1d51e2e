"""Dense quaternion and real matrices.

Storage is a row-major float64 array, checked once by a shared base; a
quaternion matrix adds a trailing axis of length 4 holding ``(w, x, y, z)``.
The Hamilton product is written out once, in ``quat.hamilton``; this
module reads its structure constants off the products of the units
``1, i, j, k`` at import, and every array product, real form and
conjugation below the public API is derived from them.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch
from .quat import I, J, K, ONE, Quaternion

__all__ = ["QMatrix", "RMatrix", "random_qmatrix"]


def _q4(q: Quaternion) -> np.ndarray:
    return np.array((q.w, q.x, q.y, q.z))


# ---------------------------------------------------------------------------
# the Hamilton product as arrays, from Quaternion.__mul__ on the units

_UNITS = (ONE, I, J, K)
# Structure constants: _HAMILTON[4 k + p, l] is the coefficient of e_l in
# e_k e_p, so the 16 products x_k y_p of two component arrays contract to
# the components of x * y.  Every entry is an exact 0 or +-1.
_HAMILTON = np.array([_q4(e * f) for e in _UNITS for f in _UNITS])
# The real 4x4 matrix of left multiplication by q as a (16, 4) map from the
# components of q, so that a real form is one matmul: component l of q * p
# is sum_k (q @ _LMAT_OF.T)[4 l + k] p[k].
_LMAT_OF = _HAMILTON.reshape(4, 4, 4).transpose(2, 1, 0).reshape(16, 4)
# Signs of conjugation: e_k e_k is real, +1 for the unit 1 and -1 for i, j, k.
_CONJ = np.array([(e * e).w for e in _UNITS])


# ---------------------------------------------------------------------------
# component-array helpers (shapes: matrices (r, c, 4), vectors (n, 4))

def _hmatmul(a, b):
    """Hamilton product of component arrays (r, m, 4) @ (m, c, 4): the 16
    real matmuls of their components, contracted with _HAMILTON."""
    prods = np.matmul(a.transpose(2, 0, 1)[:, np.newaxis], b.transpose(2, 0, 1))
    return (prods.reshape(16, -1).T @ _HAMILTON).reshape(a.shape[0], b.shape[1], 4)


def _check_finite(data: np.ndarray, quaternion: bool = True) -> None:
    """Raise NonFiniteInput naming the first entry of `data` that is NaN or
    infinite or has such a component; with `quaternion` the last axis holds
    an entry's components, as in a quaternion vector or matrix."""
    entries = data if quaternion else data[..., np.newaxis]
    bad = ~np.isfinite(entries).all(axis=-1)
    if bad.any():
        at = tuple(np.argwhere(bad)[0].tolist())
        raise NonFiniteInput(
            f"entry {at if len(at) > 1 else at[0]} is not finite: {data[at].tolist()}")


def _check_range(what: str, top: float, exponent: int) -> None:
    """Raise OverflowError, naming `what`, unless ``top * 2**exponent`` is
    below 2**1024, the float range, without forming the product."""
    if math.frexp(top)[1] + exponent > 1024:
        raise OverflowError(f"{what} {float(top)!r} * 2**{exponent} is beyond the float range")


# The norm rule.  A sum of squares is one np.vdot: on float64 it calls the
# same BLAS dot as ndarray.dot, bit for bit, but sets no floating-point
# warning, so needs no np.errstate (the tests' warning filter fails
# the overflow tests should a numpy release make it warn).  A sum inside
# [_SQ_MIN, _SQ_MAX] is taken as it comes: no step of a reflector build
# overflows, and a square that underflows is below 2**-54 of the sum, so
# its rounding costs less than 2**-107 of it; _rescaled_squares takes others.
_SQ_MIN, _SQ_MAX = 2.0 ** -968, 2.0 ** 968


def _rescaled_squares(data: np.ndarray) -> tuple[int, np.ndarray, np.float64]:
    """``(e, data * 2**-e, sq)``, sq the sum of squares of the scaled data,
    for the even e that brings the largest entry into [1/2, 2), exactly; e
    is 0 for a zero, NaN or infinite largest entry, and sq is 0, NaN or inf."""
    e = 2 * (int(np.frexp(np.abs(data).max())[1]) // 2)
    data = np.ldexp(data, -e)
    return e, data, np.vdot(data, data)


def _safe_norm(data: np.ndarray) -> float:
    """Euclidean norm of an array's entries by the norm rule, warning-free:
    NaN for a NaN entry, inf for an infinite one or beyond the float range."""
    sq = np.vdot(data, data)
    if _SQ_MIN <= sq <= _SQ_MAX:
        return math.sqrt(sq)
    e, _, sq = _rescaled_squares(data)
    root = math.sqrt(sq)
    return math.ldexp(root, e) if math.frexp(root)[1] + e <= 1024 else math.inf


def _as_float64(data) -> np.ndarray:
    """`data` as a C-contiguous float64 array of at least one axis; complex
    data raises TypeError rather than losing its imaginary part to numpy's
    cast."""
    arr = np.asarray(data)
    if arr.dtype.kind == "c":
        raise TypeError(f"expected real data, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.float64)


def _components(data, ndim: int, quaternion: bool, what: str) -> np.ndarray:
    """`data` as _as_float64 gives it, with `ndim` nonempty axes, the last
    of length 4 if `quaternion`; any other shape is a ShapeMismatch that
    names `what`.  The one shape rule of the matrices and the reflector
    builders."""
    arr = _as_float64(data)
    shape = arr.shape
    if len(shape) != ndim or 0 in shape or (quaternion and shape[-1] != 4):
        raise ShapeMismatch(
            f"{what} needs {ndim} nonempty axes{', the last of length 4' if quaternion else ''}, "
            f"got shape {np.shape(data)}")
    return arr


# ---------------------------------------------------------------------------


class _Matrix:
    """`data`, checked by _components, and the accessors QMatrix and
    RMatrix share."""

    __slots__ = ("data",)
    _ndim: int
    _quaternion: bool
    # numpy defers to our operators, so an ndarray operand is a TypeError too.
    __array_ufunc__ = None

    def __init__(self, data):
        self.data = _components(data, self._ndim, self._quaternion, type(self).__name__)

    def copy(self):
        return type(self)(self.data.copy())

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def frobenius_norm(self) -> float:
        return _safe_norm(self.data)

    def _fit(self, other: _Matrix, op: str) -> None:
        """Raise ShapeMismatch unless `other` fits: inner sizes for @, shapes else."""
        if not (self.cols == other.rows if op == "@" else self.shape == other.shape):
            raise ShapeMismatch(
                f"cannot combine {self.rows}x{self.cols} {op} {other.rows}x{other.cols}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rows}x{self.cols})"


class QMatrix(_Matrix):
    """Dense quaternion matrix backed by an (rows, cols, 4) component array.
    ``@``, ``+`` and ``-`` take a QMatrix or an RMatrix, which is promoted."""

    __slots__ = ()
    _ndim, _quaternion = 3, True

    @classmethod
    def zeros(cls, rows: int, cols: int) -> QMatrix:
        return cls(np.zeros((rows, cols, 4)))

    @classmethod
    def identity(cls, n: int) -> QMatrix:
        data = np.zeros((n, n, 4))
        data[np.arange(n), np.arange(n), 0] = 1.0
        return cls(data)

    @classmethod
    def from_quaternions(cls, rows) -> QMatrix:
        data = [[_entry_components(q) for q in row] for row in rows]
        return cls(np.array(data, dtype=np.float64))

    def __getitem__(self, ij) -> Quaternion:
        i, j = ij
        return Quaternion(*self.data[i, j])

    def __setitem__(self, ij, value):
        i, j = ij
        self.data[i, j] = _entry_components(value)

    def conj_transpose(self) -> QMatrix:
        """Transpose with entrywise conjugation (the quaternion adjoint)."""
        return QMatrix(np.ascontiguousarray((self.data * _CONJ).swapaxes(0, 1)))

    def _combine(self, other, fn, op: str):
        """The operand rule of @, + and -: a QMatrix is used as is, an
        RMatrix is promoted, and anything else gives NotImplemented."""
        if isinstance(other, RMatrix):
            other = other.promote()
        if not isinstance(other, QMatrix):
            return NotImplemented
        self._fit(other, op)
        return QMatrix(fn(self.data, other.data))

    def __matmul__(self, other):
        return self._combine(other, _hmatmul, "@")

    def __add__(self, other):
        return self._combine(other, np.add, "+")

    def __sub__(self, other):
        return self._combine(other, np.subtract, "-")


class RMatrix(_Matrix):
    """Dense real matrix.  A separate type so that realness is a guarantee,
    not a convention about small vector parts."""

    __slots__ = ()
    _ndim, _quaternion = 2, False

    @classmethod
    def identity(cls, n: int) -> RMatrix:
        return cls(np.eye(n))

    def __getitem__(self, ij) -> float:
        return float(self.data[ij])

    def __setitem__(self, ij, value):
        self.data[ij] = float(value)

    def promote(self) -> QMatrix:
        """Embed as a quaternion matrix with zero vector parts."""
        out = np.zeros((self.rows, self.cols, 4))
        out[..., 0] = self.data
        return QMatrix(out)

    def __matmul__(self, other):
        if isinstance(other, QMatrix):
            return self.promote() @ other
        if not isinstance(other, RMatrix):
            return NotImplemented
        self._fit(other, "@")
        return RMatrix(self.data @ other.data)


def _entry_components(value):
    if isinstance(value, Quaternion):
        return (value.w, value.x, value.y, value.z)
    if isinstance(value, numbers.Real):
        return (float(value), 0.0, 0.0, 0.0)
    arr = _as_float64(value)
    if arr.shape != (4,):
        raise ShapeMismatch("matrix entry must be a Quaternion, a real number, "
                            "or a length-4 component sequence")
    return tuple(arr)


def random_qmatrix(rows: int, cols: int, rng: np.random.Generator) -> QMatrix:
    """Matrix with all 4*rows*cols components uniform on [-1, 1]."""
    return QMatrix(rng.uniform(-1.0, 1.0, size=(rows, cols, 4)))
