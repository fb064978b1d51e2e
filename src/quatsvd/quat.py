"""Quaternion scalar arithmetic.

A quaternion ``w + x*i + y*j + z*k`` is stored as four binary64
components.  Multiplication follows the Hamilton convention
``i*i = j*j = k*k = i*j*k = -1`` and is non-commutative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def hamilton(p, q) -> tuple[float, float, float, float]:
    """Components of the Hamilton product p * q of two (w, x, y, z)
    sequences: the one place the product is written out."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw)


@dataclass(frozen=True, slots=True)
class Quaternion:
    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))

    def conjugate(self) -> Quaternion:
        """Negate the vector part; ``q * q.conjugate() == abs(q)**2``."""
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __abs__(self) -> float:
        # hypot scales internally, so no overflow for large components.
        return math.hypot(self.w, self.x, self.y, self.z)

    def __add__(self, other: Quaternion) -> Quaternion:
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: Quaternion) -> Quaternion:
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> Quaternion:
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(*hamilton((self.w, self.x, self.y, self.z),
                                        (other.w, other.x, other.y, other.z)))
        if isinstance(other, (int, float)):
            f = float(other)
            return Quaternion(self.w * f, self.x * f, self.y * f, self.z * f)
        return NotImplemented

    # Real scalars commute with quaternions, so x * q is q * x.
    __rmul__ = __mul__

    def __str__(self) -> str:
        # Shortest round-trip formatting, four components separated by spaces.
        return f"{self.w!r} {self.x!r} {self.y!r} {self.z!r}"


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
