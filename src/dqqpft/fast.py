"""FFT-based fast path: chirp, plain DFT, chirp on the orthogonal planes split.

The pipeline mirrors the chirp-DFT-chirp factorisation of the direct
transform, with the plain two-sided quaternion DFT evaluated as two
plain complex 2D DFTs.  Read a sample as q = u + v*j with the i-complex
u = w + i*x and v = y + i*z (the component array viewed as complex
pairs), and split it into the two planes

    p+ = u - i*v = (w + z) + i*(x - y),
    p- = u + i*v = (w - z) + i*(x + y).

A two-sided factor acts on each plane as one complex exponential,

    exp(i*a) * q * exp(j*b)   maps   p+ -> exp(i*(a - b)) * p+,
                                     p- -> exp(i*(a + b)) * p-,

so chirps become outer products of the axis vectors (the axis-2 vector
conjugated on p+) and the DFT kernel exp(-i*th1) * q * exp(-j*th2)
becomes exp(-i*(th1 + th2)) on p-, a plain ``fft2``, and
exp(-i*(th1 - th2)) on p+: axis 0 keeps the sign and axis 1, the
j-axis, takes the flipped one.  The sample is rebuilt as
u = (p+ + p-)/2 and v = i*(p+ - p-)/2, written straight into the output
through the same complex view; the 1/2 rides on the last chirp.

``_fft2_raw`` here is the library's one FFT entry point.  It takes one
exponent sign per axis and runs each axis on ``numpy.fft`` (pocketfft),
which handles every length, prime lengths included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ParameterError
from .signal import QSignal2D
from .transform import (
    TWO_SIDED,
    TransformConfig,
    _check_dims,
    _freq_chirp,
    _pointwise_sandwich,
    _time_chirp,
)

__all__ = [
    "FastPlan",
    "make_plan",
    "make_psi",
    "dqft2_via_fft",
    "forward_fast",
    "inverse_fast",
]


@dataclass(frozen=True)
class FastPlan:
    """Precomputed chirp vectors for one grid/parameter choice.

    ``pre1``/``post1`` are i-complex axis-1 vectors; ``pre2``/``post2``
    hold the exp(i*theta) bookkeeping of the j-complex axis-2 chirps.
    All entries have unit modulus.  Each transform forms the per-plane
    N1 x N2 chirps as outer products of these vectors on the fly, so the
    plan stays O(N1 + N2).  The FFTs need no tables: ``numpy.fft`` plans
    every axis length internally.
    """

    cfg: TransformConfig
    pre1: np.ndarray
    pre2: np.ndarray
    post1: np.ndarray
    post2: np.ndarray


def make_plan(cfg: TransformConfig) -> FastPlan:
    if cfg.side != TWO_SIDED:
        raise ParameterError("the fast path implements the two-sided transform")
    g = cfg.grid
    return FastPlan(
        cfg=cfg,
        pre1=_time_chirp(cfg.p1, g.n1, g.dt1, -1),
        pre2=_time_chirp(cfg.p2, g.n2, g.dt2, -1),
        post1=_freq_chirp(cfg.p1, g.n1, g.du1, -1),
        post2=_freq_chirp(cfg.p2, g.n2, g.du2, -1),
    )


def make_psi(f: QSignal2D, plan: FastPlan) -> QSignal2D:
    """Pointwise chirp sandwich pre1 * f * pre2; preserves sample norms."""
    _check_dims(f, plan.cfg)
    return QSignal2D._adopt(_pointwise_sandwich(f.comps, plan.pre1, plan.pre2))


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


def _chirp_dft_chirp(comps: np.ndarray, pre, post, sign: int, scale: float) -> QSignal2D:
    """Chirp ``pre``, plain two-sided DFT of exponent ``sign``, chirp ``post``, scale.

    ``pre`` and ``post`` are (axis-1 vector, axis-2 bookkeeping vector)
    pairs.  Each plane takes one chirp, one ``_fft2_raw`` call and one
    chirp that carries ``scale`` and the 1/2 of the reassembly.
    """
    (left0, right0), (left1, right1) = pre, post
    left1 = left1 * (0.5 * scale)
    uv = comps.view(np.complex128)
    u = uv[..., 0]
    # i*v becomes p- in place, so no third plane stays alive
    minus = 1j * uv[..., 1]
    plus = u - minus
    minus += u
    plus *= np.outer(left0, np.conj(right0))
    plus = _fft2_raw(plus, sign, -sign)
    plus *= np.outer(left1, np.conj(right1))
    minus *= np.outer(left0, right0)
    minus = _fft2_raw(minus, sign, sign)
    minus *= np.outer(left1, right1)
    out = np.empty(uv.shape, dtype=np.complex128)
    np.add(plus, minus, out=out[..., 0])
    np.subtract(plus, minus, out=out[..., 1])
    out[..., 1] *= 1j
    return QSignal2D._adopt(out.view(np.float64))


def dqft2_via_fft(psi: QSignal2D) -> QSignal2D:
    """Unnormalised two-sided quaternion DFT through two complex FFTs."""
    unit = (np.ones(psi.n1), np.ones(psi.n2))
    return _chirp_dft_chirp(psi.comps, unit, unit, -1, 1.0)


def _scale(plan: FastPlan) -> float:
    return 1.0 / math.sqrt(plan.cfg.grid.n1 * plan.cfg.grid.n2)


def forward_fast(f: QSignal2D, plan: FastPlan) -> QSignal2D:
    """Fast two-sided transform; matches ``forward_direct`` to rounding."""
    _check_dims(f, plan.cfg)
    return _chirp_dft_chirp(f.comps, (plan.pre1, plan.pre2), (plan.post1, plan.post2),
                            -1, _scale(plan))


def inverse_fast(F: QSignal2D, plan: FastPlan) -> QSignal2D:
    """Fast inverse: conjugated chirps around a sign-flipped DFT."""
    _check_dims(F, plan.cfg)
    return _chirp_dft_chirp(F.comps, (np.conj(plan.post1), np.conj(plan.post2)),
                            (np.conj(plan.pre1), np.conj(plan.pre2)), +1, _scale(plan))
