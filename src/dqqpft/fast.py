"""FFT-based fast path: chirp, symplectic split, two complex FFTs, chirp.

The pipeline mirrors the chirp-DFT-chirp factorisation of the direct
transform but replaces the plain two-sided quaternion DFT by exactly two
complex 2D FFTs, one per symplectic component, plus index reflections
and conjugations.  For an i-complex grid p with FFT P the two-sided
kernel pair is recovered from

    sum_x p * e(-i*th1) * e(-j*th2)
        = (P[w1, w2] + P[w1, -w2]) / 2
          + (k/2) * (conj(P[w1, -w2]) - conj(P[w1, w2]))

and the j*ph-hat component is handled the same way after reflecting the
first frequency axis (e(-i*th1)*j = j*e(+i*th1)).  Negative indices are
read modulo the axis length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fft import _fft2_raw
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
    """Precomputed chirp tables for one grid/parameter choice.

    ``pre1``/``post1`` are i-complex vectors; ``pre2``/``post2`` hold the
    exp(i*theta) bookkeeping of the j-complex axis-2 chirps.  All entries
    have unit modulus.  The FFTs themselves need no tables here:
    ``numpy.fft`` plans every axis length internally.
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
    return QSignal2D.from_symplectic(
        *_pointwise_sandwich(*f.to_symplectic(), plan.pre1, plan.pre2))


def _reflect(x: np.ndarray, axis: int) -> np.ndarray:
    """Index map w -> (-w) mod N along one axis."""
    n = x.shape[axis]
    return np.take(x, (n - np.arange(n)) % n, axis=axis)


def _recombine(a: np.ndarray):
    """Symplectic pair of sum_x p * e(si*th1) * e(sj*th2) from a = FFT_s[p]."""
    ar = _reflect(a, 1)
    t = 0.5 * (a + ar)
    h = 0.5j * (np.conj(a) - np.conj(ar))
    return t, h


def _dqft2_pair(t: np.ndarray, h: np.ndarray, sign: int):
    """Unnormalised two-sided quaternion DFT of the pair t + j*h via two FFTs."""
    ta, ha = _recombine(_fft2_raw(t, sign))
    tb, hb = _recombine(_reflect(_fft2_raw(h, sign), 0))
    # j * (tb + j*hb) = -hb + j*tb
    return ta - hb, ha + tb


def dqft2_via_fft(psi: QSignal2D, direction: str = "forward") -> QSignal2D:
    """Unnormalised two-sided quaternion DFT through two complex FFTs."""
    if direction == "forward":
        sign = -1
    elif direction == "inverse":
        sign = +1
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return QSignal2D.from_symplectic(*_dqft2_pair(*psi.to_symplectic(), sign))


def _chirp_dft_chirp(f: QSignal2D, plan: FastPlan, pre, post, sign: int) -> QSignal2D:
    """Chirp sandwich ``pre``, pair DFT of exponent ``sign``, sandwich ``post``, scale.

    Splits ``f`` once and builds one ``QSignal2D``, the result.
    """
    _check_dims(f, plan.cfg)
    g = plan.cfg.grid
    t, h = _pointwise_sandwich(*f.to_symplectic(), *pre)
    t, h = _pointwise_sandwich(*_dqft2_pair(t, h, sign), *post)
    scale = 1.0 / math.sqrt(g.n1 * g.n2)
    return QSignal2D.from_symplectic(t * scale, h * scale)


def forward_fast(f: QSignal2D, plan: FastPlan) -> QSignal2D:
    """Fast two-sided transform; matches ``forward_direct`` to rounding."""
    return _chirp_dft_chirp(f, plan, (plan.pre1, plan.pre2), (plan.post1, plan.post2), -1)


def inverse_fast(F: QSignal2D, plan: FastPlan) -> QSignal2D:
    """Fast inverse: conjugated chirps around a sign-flipped FFT pipeline."""
    return _chirp_dft_chirp(F, plan, (np.conj(plan.post1), np.conj(plan.post2)),
                            (np.conj(plan.pre1), np.conj(plan.pre2)), +1)
