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


def _fft_axis(x: np.ndarray, sign: int, axis: int) -> np.ndarray:
    if sign < 0:
        return np.fft.fft(x, axis=axis)
    return np.fft.ifft(x, axis=axis, norm="forward")


def _fft2_raw(x: np.ndarray, sign1: int, sign2: int) -> np.ndarray:
    """Unnormalised 2D transform with one exponent sign per axis.

        X[w1, w2] = sum_x x[x1, x2] * exp(2j*pi*(sign1*x1*w1/N1 + sign2*x2*w2/N2))

    Axis 1 is transformed first, then axis 0, which is the order
    ``numpy.fft.fft2`` uses; equal signs give its result bit for bit.
    """
    return _fft_axis(_fft_axis(x, sign2, 1), sign1, 0)


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
