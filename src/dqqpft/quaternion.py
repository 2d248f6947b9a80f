"""Hamilton quaternion scalars and component-array helpers.

A quaternion is stored as q = w + x*i + y*j + z*k with the usual
multiplication table i**2 = j**2 = k**2 = ijk = -1 and ij = -ji = k
(so jk = i and ki = j).

The symplectic form writes q = t + j*h with t = w + x*i and
h = y - z*i, both in the i-complex subfield; the one conversion to and
from that notation is ``QSignal2D.to_symplectic``/``from_symplectic``.
The vectorised code in this package uses the pair q = u + v*j instead,
with u = w + x*i and v = y + z*i (so u = t and v = conj(h)): it is the
(..., 4) component array itself read as (..., 2) complex numbers, which
takes no copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "ONE",
    "I",
    "J",
    "K",
    "qmul",
    "qconj",
    "qnorm_sq",
]


@dataclass(frozen=True)
class Quaternion:
    """Immutable quaternion with float64 components (w, x, y, z)."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(
                self.w * other.w - self.x * other.x - self.y * other.y - self.z * other.z,
                self.w * other.x + self.x * other.w + self.y * other.z - self.z * other.y,
                self.w * other.y - self.x * other.z + self.y * other.w + self.z * other.x,
                self.w * other.z + self.x * other.y - self.y * other.x + self.z * other.w,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        """Negate the vector part: (w, -x, -y, -z)."""
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def to_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=np.float64)

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        w, x, y, z = (float(v) for v in a)
        return cls(w, x, y, z)


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of component arrays shaped (..., 4), broadcasting."""
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def qconj(q: np.ndarray) -> np.ndarray:
    """Componentwise conjugate of a (..., 4) array."""
    out = np.array(q, dtype=np.float64, copy=True)
    out[..., 1:] = -out[..., 1:]
    return out


def qnorm_sq(q: np.ndarray) -> np.ndarray:
    """Squared quaternion norm per sample of a (..., 4) array."""
    return np.sum(np.square(q), axis=-1)
