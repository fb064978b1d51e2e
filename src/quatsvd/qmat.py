"""Dense quaternion matrices and vectors.

Storage is a row-major float64 component array with a trailing axis of
length 4 holding ``(w, x, y, z)``.  All products expand the Hamilton
product into real operations on the component slices, which keeps the
non-commutative ordering explicit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch
from .quat import Quaternion

__all__ = ["QMatrix", "QVector", "RMatrix", "random_qmatrix"]


# ---------------------------------------------------------------------------
# component-array helpers (shapes: matrices (r, c, 4), vectors (n, 4))

def _as_components(data, expected_ndim):
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != expected_ndim or arr.shape[-1] != 4:
        raise ShapeMismatch(
            f"expected component array of ndim {expected_ndim} with trailing axis 4, "
            f"got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def _conj(a):
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def _hproduct(a, b, mul):
    """Hamilton product of component arrays, with `mul` the product of
    their real components (np.matmul or np.multiply)."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        mul(aw, bw) - mul(ax, bx) - mul(ay, by) - mul(az, bz),
        mul(aw, bx) + mul(ax, bw) + mul(ay, bz) - mul(az, by),
        mul(aw, by) - mul(ax, bz) + mul(ay, bw) + mul(az, bx),
        mul(aw, bz) + mul(ax, by) - mul(ay, bx) + mul(az, bw),
    ], axis=-1)


def _hmatmul(a, b):
    """Hamilton product of component arrays (r, m, 4) @ (m, c, 4)."""
    return _hproduct(a, b, np.matmul)


def _hscale(q, a, side):
    """Multiply every entry of `a` by the quaternion components `q`, a
    (4,) array, on one side."""
    return _hproduct(q, a, np.multiply) if side == "left" else _hproduct(a, q, np.multiply)


def _q4(q: Quaternion) -> np.ndarray:
    return np.array((q.w, q.x, q.y, q.z))


def _check_finite(a: QMatrix) -> None:
    """Raise NonFiniteInput naming the first entry with a NaN or infinite
    component."""
    bad = ~np.isfinite(a.data).all(axis=-1)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonFiniteInput(f"entry ({i}, {j}) is not finite: {a.data[i, j].tolist()}")


def _safe_norm(flat):
    # Scale by the largest component so squaring cannot overflow.
    if flat.size == 0:
        return 0.0
    m = float(np.abs(flat).max())
    if m == 0.0 or not math.isfinite(m):
        return m
    scaled = flat / m
    return m * math.sqrt(scaled.dot(scaled))


# ---------------------------------------------------------------------------


class QVector:
    """Dense quaternion vector backed by an (n, 4) component array."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = _as_components(data, 2)
        if len(self.data) < 1:
            raise ShapeMismatch("vector must have at least one entry")

    @classmethod
    def zeros(cls, n: int) -> QVector:
        return cls(np.zeros((n, 4)))

    @classmethod
    def from_quaternions(cls, entries) -> QVector:
        rows = [_entry_components(q) for q in entries]
        return cls(np.array(rows, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i: int) -> Quaternion:
        return Quaternion(*self.data[i])

    def __setitem__(self, i: int, value):
        self.data[i] = _entry_components(value)

    def conjugate(self) -> QVector:
        return QVector(_conj(self.data))

    def norm(self) -> float:
        """Euclidean norm, the square root of the summed squared moduli."""
        return _safe_norm(self.data.ravel())

    def outer_hermitian(self) -> QMatrix:
        """Rank-one Hermitian matrix with entries ``u_i * conj(u_j)``."""
        u = self.data
        out = _hmatmul(u[:, np.newaxis, :], _conj(u)[np.newaxis, :, :])
        # Mirror the strict triangle: (i,j) and (j,i) sum the same products in
        # different orders, so symmetry would otherwise hold only to rounding.
        i, j = np.triu_indices(len(u), 1)
        out[j, i, 0] = out[i, j, 0]
        out[j, i, 1:] = -out[i, j, 1:]
        # Diagonal entries are |u_i|^2: wipe the vector-part rounding residue.
        k = np.arange(len(u))
        out[k, k, 1:] = 0.0
        return QMatrix(out)

    def as_column(self) -> QMatrix:
        return QMatrix(self.data[:, np.newaxis, :].copy())

    def as_row(self) -> QMatrix:
        return QMatrix(self.data[np.newaxis, :, :].copy())

    def copy(self) -> QVector:
        return QVector(self.data.copy())

    def __repr__(self) -> str:
        return f"QVector(len={len(self)})"


class QMatrix:
    """Dense quaternion matrix backed by an (rows, cols, 4) component array."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = _as_components(data, 3)
        if self.rows < 1 or self.cols < 1:
            raise ShapeMismatch("matrix must have at least one row and column")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

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

    def column(self, j: int) -> QVector:
        return QVector(self.data[:, j, :].copy())

    def row(self, i: int) -> QVector:
        return QVector(self.data[i, :, :].copy())

    def conjugate(self) -> QMatrix:
        return QMatrix(_conj(self.data))

    def conj_transpose(self) -> QMatrix:
        """Transpose with entrywise conjugation (the quaternion adjoint)."""
        return QMatrix(np.ascontiguousarray(_conj(self.data).swapaxes(0, 1)))

    def __matmul__(self, other):
        if isinstance(other, RMatrix):
            other = other.promote()
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return QMatrix(_hmatmul(self.data, other.data))

    def __add__(self, other: QMatrix) -> QMatrix:
        if self.shape != other.shape:
            raise ShapeMismatch("shapes differ")
        return QMatrix(self.data + other.data)

    def __sub__(self, other: QMatrix) -> QMatrix:
        if self.shape != other.shape:
            raise ShapeMismatch("shapes differ")
        return QMatrix(self.data - other.data)

    def scale_left(self, q: Quaternion) -> QMatrix:
        return QMatrix(_hscale(_q4(q), self.data, "left"))

    def scale_right(self, q: Quaternion) -> QMatrix:
        return QMatrix(_hscale(_q4(q), self.data, "right"))

    def frobenius_norm(self) -> float:
        return _safe_norm(self.data.ravel())

    def copy(self) -> QMatrix:
        return QMatrix(self.data.copy())

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


class RMatrix:
    """Dense real matrix.  A separate type so that realness is a guarantee,
    not a convention about small vector parts."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatch(f"expected a 2-d real array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeMismatch("matrix must have at least one row and column")
        self.data = np.ascontiguousarray(arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> RMatrix:
        return cls(np.zeros((rows, cols)))

    @classmethod
    def identity(cls, n: int) -> RMatrix:
        return cls(np.eye(n))

    def __getitem__(self, ij) -> float:
        return float(self.data[ij])

    def __setitem__(self, ij, value):
        self.data[ij] = float(value)

    def transpose(self) -> RMatrix:
        return RMatrix(self.data.T.copy())

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
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return RMatrix(self.data @ other.data)

    def frobenius_norm(self) -> float:
        return _safe_norm(self.data.ravel())

    def copy(self) -> RMatrix:
        return RMatrix(self.data.copy())

    def __repr__(self) -> str:
        return f"RMatrix({self.rows}x{self.cols})"


def _entry_components(value):
    if isinstance(value, Quaternion):
        return (value.w, value.x, value.y, value.z)
    if isinstance(value, (int, float)):
        return (float(value), 0.0, 0.0, 0.0)
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (4,):
        raise ShapeMismatch("matrix entry must be a Quaternion, a real number, "
                            "or a length-4 component sequence")
    return tuple(arr)


def random_qmatrix(rows: int, cols: int, rng: np.random.Generator) -> QMatrix:
    """Matrix with all 4*rows*cols components uniform on [-1, 1]."""
    return QMatrix(rng.uniform(-1.0, 1.0, size=(rows, cols, 4)))
