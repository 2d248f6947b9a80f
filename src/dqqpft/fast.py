"""FFT-based fast path: chirp, plain DFT, chirp on the orthogonal planes split.

The pipeline mirrors the chirp-DFT-chirp factorisation of the direct
transform, with the plain two-sided quaternion DFT evaluated as two
plain complex 2D DFTs on the planes p+ = u - i*v and p- = u + i*v of
each sample q = u + v*j.  The split, the broadcast chirps and the
post-chirped join are ``transform._split_planes``, ``_chirp_planes`` and
``_chirp_join``, shared with the identity helpers and the convolution
theorem.  The DFT kernel exp(-i*th1) * q * exp(-j*th2) becomes
exp(-i*(th1 + th2)) on p-, a plain ``fft2``, and exp(-i*(th1 - th2)) on
p+: axis 0 keeps the sign and axis 1, the j-axis, takes the flipped one.
The path is two-sided; one-sided placements run on the direct path.

Each transform runs inside its output buffer, where the planes are
split, chirped, transformed in place and joined; beside it only
O(N1 + N2) vectors are allocated.

``_fft2_raw`` here is the library's one FFT entry point.  It takes one
exponent sign per axis and runs each axis on ``numpy.fft`` (pocketfft),
which handles every length, prime lengths included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ParamSet, preset_qft
from .signal import QSignal2D, _real_array
from .transform import (
    TransformConfig,
    _check_dims,
    _check_two_sided,
    _chirp_join,
    _chirp_planes,
    _freq_chirp,
    _pointwise_sandwich,
    _split_planes,
    _time_chirp,
    make_config,
)

__all__ = [
    "FastPlan",
    "make_plan",
    "forward_fast",
    "inverse_fast",
    "dqpft_1d",
]


@dataclass(frozen=True)
class FastPlan:
    """Precomputed chirp vectors for one grid/parameter choice.

    ``pre1``/``post1`` are i-complex axis-1 vectors; ``pre2``/``post2``
    hold the exp(i*theta) bookkeeping of the j-complex axis-2 chirps.
    All entries have unit modulus.  Each transform multiplies them into
    a plane by broadcasting, one axis at a time, so no N1 x N2 chirp is
    ever formed and the plan stays O(N1 + N2).  The FFTs need no tables:
    ``numpy.fft`` plans every axis length internally.
    """

    cfg: TransformConfig
    pre1: np.ndarray
    pre2: np.ndarray
    post1: np.ndarray
    post2: np.ndarray


def make_plan(cfg: TransformConfig) -> FastPlan:
    _check_two_sided(cfg, "the fast path")
    g = cfg.grid
    return FastPlan(
        cfg=cfg,
        pre1=_time_chirp(cfg.p1, g.n1, g.dt1, -1),
        pre2=_time_chirp(cfg.p2, g.n2, g.dt2, -1),
        post1=_freq_chirp(cfg.p1, g.n1, g.dt1, -1),
        post2=_freq_chirp(cfg.p2, g.n2, g.dt2, -1),
    )


def make_psi(f: QSignal2D, plan: FastPlan) -> QSignal2D:
    """Pointwise chirp sandwich pre1 * f * pre2; preserves sample norms."""
    _check_dims(f, plan.cfg)
    return QSignal2D._adopt(_pointwise_sandwich(f.comps, plan.pre1, plan.pre2))


def _fft_axis(x: np.ndarray, sign: int, axis: int, out: np.ndarray | None) -> np.ndarray:
    if sign < 0:
        return np.fft.fft(x, axis=axis, out=out)
    return np.fft.ifft(x, axis=axis, norm="forward", out=out)


def _fft2_raw(x: np.ndarray, sign1: int, sign2: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalised 2D transform with one exponent sign per axis.

        X[w1, w2] = sum_x x[x1, x2] * exp(2j*pi*(sign1*x1*w1/N1 + sign2*x2*w2/N2))

    Axis 1 is transformed first, then axis 0, which is the order
    ``numpy.fft.fft2`` uses; equal signs give its result bit for bit.
    ``out``, a complex128 array of ``x``'s shape (a strided view will
    do, and ``x`` itself makes the transform in place), receives both
    axes' results through numpy's own ``out=`` and is returned; without
    it ``x`` is left untouched and the result is a new array.
    """
    return _fft_axis(_fft_axis(x, sign2, 1, out), sign1, 0, out)


def _dft_planes(comps: np.ndarray, pre, sign: int) -> np.ndarray:
    """New planes of ``comps``, chirped by ``pre``, each in place through one ``_fft2_raw``."""
    planes = _split_planes(comps)
    _chirp_planes(planes, *pre)
    for plane, flip in ((planes[..., 0], -1), (planes[..., 1], 1)):
        _fft2_raw(plane, sign, flip * sign, out=plane)
    return planes


def _chirp_dft_chirp(comps: np.ndarray, pre, post, sign: int, scale: float) -> QSignal2D:
    """Chirp ``pre``, plain two-sided DFT of exponent ``sign``, chirp ``post``, scale.

    ``pre`` and ``post`` are ``_chirp_planes`` (left, right) pairs; ``post``
    goes in with ``scale`` through ``_chirp_join``.
    """
    return QSignal2D._adopt(_chirp_join(_dft_planes(comps, pre, sign), *post, scale))


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


def dqpft_1d(f, p: ParamSet, dt: float = 1.0) -> np.ndarray:
    """One-dimensional quadratic-phase transform with the kernel on the right.

    Takes a complex (or real) vector or a real (N, 4) component array of
    finite samples and returns the same form.  It is ``forward_fast`` on
    an N x 1 grid with the unit ``qft`` kernel on axis 2; as q*z = u*z +
    (v*conj(z))*j for the i-complex kernel z, v enters and leaves conjugated.
    """
    arr = np.asarray(f)
    quat = arr.ndim == 2 and arr.shape[1] == 4
    if not quat and arr.ndim != 1:
        raise ValueError(f"expected a 1D vector or an (N, 4) array, got shape {arr.shape}")
    if len(arr) == 0:
        raise ValueError("dqpft_1d needs at least one sample")
    plan = make_plan(make_config(p, preset_qft()[0], len(arr), 1, dt))
    conj_v = np.array([1.0, 1.0, 1.0, -1.0])
    comps = np.zeros((len(arr), 1, 4))
    if quat:
        comps[:, 0] = _real_array(arr) * conj_v
    else:
        comps.view(np.complex128)[:, 0, 0] = arr
    out = forward_fast(QSignal2D(comps), plan).comps[:, 0]
    return out * conj_v if quat else out.view(np.complex128)[:, 0].copy()
