"""Quaternion-valued 2D signals stored as (n1, n2, 4) component arrays."""

from __future__ import annotations

import numpy as np

from .quaternion import Quaternion, qconj, qnorm_sq

__all__ = ["QSignal2D", "max_deviation", "rel_deviation"]


def _real_array(values) -> np.ndarray:
    """``values`` as an array, refusing complex input before any float cast."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        raise ValueError("complex input would lose its imaginary part; "
                         "use QSignal2D.from_symplectic for a complex pair")
    return arr


class QSignal2D:
    """An n1 x n2 grid of quaternion samples.

    Components live in a read-only float64 array of shape (n1, n2, 4) in
    (w, x, y, z) order, row-major in the grid indices.  Instances are
    immutable values: every operation returns a new signal.
    """

    __slots__ = ("_comps",)

    def __init__(self, comps):
        comps = np.array(_real_array(comps), dtype=np.float64, copy=True, order="C")
        if comps.ndim != 3 or comps.shape[2] != 4:
            raise ValueError(f"expected an (n1, n2, 4) component array, got shape {comps.shape}")
        if comps.shape[0] < 1 or comps.shape[1] < 1:
            raise ValueError("signal axes must have at least one sample")
        self._freeze(comps, "signal contains non-finite samples")

    @classmethod
    def _adopt(cls, comps: np.ndarray) -> "QSignal2D":
        """Wrap a C-contiguous float64 (n1, n2, 4) array without copying it.

        For library code that has just built ``comps`` and holds the only
        reference to it.  The finiteness check still runs, because finite
        input can overflow to inf on its way through a transform.
        """
        sig = cls.__new__(cls)
        sig._freeze(comps, "result overflowed float64: signal contains non-finite samples")
        return sig

    def _freeze(self, comps: np.ndarray, error: str) -> None:
        # a finite sum proves every sample finite without an elementwise
        # mask; only a sum that overflowed or met a non-finite sample pays
        # for the full scan
        with np.errstate(over="ignore", invalid="ignore"):
            total = comps.sum()
        if not np.isfinite(total) and not np.all(np.isfinite(comps)):
            raise ValueError(error)
        comps.flags.writeable = False
        self._comps = comps

    @property
    def comps(self) -> np.ndarray:
        return self._comps

    @property
    def n1(self) -> int:
        return self._comps.shape[0]

    @property
    def n2(self) -> int:
        return self._comps.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._comps.shape[:2]

    @property
    def w(self) -> np.ndarray:
        return self._comps[..., 0]

    @property
    def x(self) -> np.ndarray:
        return self._comps[..., 1]

    @property
    def y(self) -> np.ndarray:
        return self._comps[..., 2]

    @property
    def z(self) -> np.ndarray:
        return self._comps[..., 3]

    @classmethod
    def zeros(cls, n1: int, n2: int) -> "QSignal2D":
        return cls(np.zeros((n1, n2, 4)))

    @classmethod
    def from_components(cls, w, x=None, y=None, z=None) -> "QSignal2D":
        w = np.asarray(_real_array(w), dtype=np.float64)
        parts = [w]
        for p in (x, y, z):
            parts.append(np.zeros_like(w) if p is None
                         else np.asarray(_real_array(p), dtype=np.float64))
        return cls(np.stack(parts, axis=-1))

    @classmethod
    def from_symplectic(cls, t, h) -> "QSignal2D":
        """Assemble from the complex pair q = t + j*h."""
        t = np.asarray(t, dtype=np.complex128)
        h = np.asarray(h, dtype=np.complex128)
        return cls(np.stack([t.real, t.imag, h.real, -h.imag], axis=-1))

    def to_symplectic(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (t, h) with t = w + i*x and h = y - i*z."""
        c = self._comps
        return c[..., 0] + 1j * c[..., 1], c[..., 2] - 1j * c[..., 3]

    def at(self, xi1: int, xi2: int) -> Quaternion:
        return Quaternion.from_array(self._comps[xi1, xi2])

    def conjugate(self) -> "QSignal2D":
        return QSignal2D._adopt(qconj(self._comps))

    def energy(self) -> float:
        """Sum of squared quaternion norms over the grid."""
        return float(np.sum(qnorm_sq(self._comps)))

    def __add__(self, other: "QSignal2D") -> "QSignal2D":
        _check_shapes(self, other)
        return QSignal2D._adopt(self._comps + other._comps)

    def __sub__(self, other: "QSignal2D") -> "QSignal2D":
        _check_shapes(self, other)
        return QSignal2D._adopt(self._comps - other._comps)

    def __neg__(self) -> "QSignal2D":
        return QSignal2D._adopt(-self._comps)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float)):
            return QSignal2D._adopt(self._comps * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"QSignal2D(n1={self.n1}, n2={self.n2})"


def _check_shapes(a: QSignal2D, b: QSignal2D) -> None:
    # numpy would broadcast a 1 x 1 grid over any other
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def max_deviation(a: QSignal2D, b: QSignal2D) -> float:
    """Largest quaternion-norm difference between matching samples."""
    _check_shapes(a, b)
    return float(np.sqrt(np.max(qnorm_sq(a.comps - b.comps))))


def rel_deviation(a: QSignal2D, b: QSignal2D) -> float:
    """``max_deviation`` normalised by the largest sample norm of b."""
    scale = float(np.sqrt(np.max(qnorm_sq(b.comps))))
    dev = max_deviation(a, b)
    if scale == 0.0:
        return dev
    return dev / scale
