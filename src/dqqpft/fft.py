"""Complex 2D FFT used by the fast transform path.

Both directions run on ``numpy.fft`` (pocketfft), which handles every
axis length, prime lengths included.  The forward transform is
unnormalised,

    X[w1, w2] = sum_x x[x1, x2] * exp(-2j*pi*(x1*w1/N1 + x2*w2/N2)),

and the inverse carries the full 1/(N1*N2) factor.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fft2_complex"]


def _fft2_raw(x: np.ndarray, sign: int) -> np.ndarray:
    """Unnormalised 2D transform with the given exponent sign."""
    if sign < 0:
        return np.fft.fft2(x)
    return np.fft.ifft2(x, norm="forward")


def fft2_complex(x, direction: str = "forward") -> np.ndarray:
    """2D complex DFT of a 2D array; inverse applies 1/(N1*N2)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2:
        raise ValueError(f"expected a 2D array, got shape {x.shape}")
    if direction == "forward":
        return np.fft.fft2(x)
    if direction == "inverse":
        return np.fft.ifft2(x)
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
