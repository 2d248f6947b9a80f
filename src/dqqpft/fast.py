"""FFT-based fast path: chirp, plain DFT, chirp on the orthogonal planes split.

The pipeline mirrors the chirp-DFT-chirp factorisation of the direct
transform, with the plain two-sided quaternion DFT evaluated as two
plain complex 2D DFTs on the planes p+ = u - i*v and p- = u + i*v of
each sample q = u + v*j.  The split, the broadcast chirps and the
post-chirped join are ``transform._split_planes``, ``_chirp_planes`` and
``_chirp_join``, shared with the pointwise products and the convolution
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

The modulation, translation and conjugation identity helpers live here
too, in O(N1*N2*log(N1*N2)), and wrap only the result they return.  The
modulation and translation right-hand sides are each one chirp-DFT-chirp:
the first gathers the DFT planes between the plan's own chirps, the
second runs ``_forward`` with chirps that carry the shift, all built
from ``_time_phase`` and ``_freq_phase``.  The conjugate decomposition
runs ``_forward`` on each real component and adds each spectrum into the
first as it arrives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .params import ParamSet, preset_qft
from .signal import QSignal2D, _real_array
from .transform import (
    TransformConfig,
    _axes,
    _check_dims,
    _check_two_sided,
    _chirp_join,
    _chirp_planes,
    _freq_phase,
    _mod_2pi,
    _pointwise_sandwich,
    _split_planes,
    _time_phase,
    make_config,
)

__all__ = [
    "FastPlan",
    "make_plan",
    "forward_fast",
    "inverse_fast",
    "dqpft_1d",
    "modulation_rhs",
    "translation_rhs",
    "conjugate_transform_decomposition",
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
    pre, post = [], []
    for p, n, dt in _axes(cfg):
        x = np.arange(n)
        pre.append(np.exp(-1j * _mod_2pi(_time_phase(p, x, dt))))
        post.append(np.exp(-1j * _mod_2pi(_freq_phase(p, x, n, dt))))
    return FastPlan(cfg, pre[0], pre[1], post[0], post[1])


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


def _chirp_dft_chirp(comps: np.ndarray, pre, post, sign: int, scale: float) -> np.ndarray:
    """Chirp ``pre``, plain two-sided DFT of exponent ``sign``, chirp ``post``, scale.

    ``pre`` and ``post`` are ``_chirp_planes`` (left, right) pairs; ``post``
    goes in with ``scale`` through ``_chirp_join``; returns a new array.
    """
    return _chirp_join(_dft_planes(comps, pre, sign), *post, scale)


def dqft2_via_fft(psi: QSignal2D) -> QSignal2D:
    """Unnormalised two-sided quaternion DFT through two complex FFTs."""
    unit = (np.ones(psi.n1), np.ones(psi.n2))
    return QSignal2D._adopt(_chirp_dft_chirp(psi.comps, unit, unit, -1, 1.0))


def _scale(plan: FastPlan) -> float:
    return 1.0 / math.sqrt(plan.cfg.grid.n1 * plan.cfg.grid.n2)


def _forward(comps: np.ndarray, plan: FastPlan) -> np.ndarray:
    """The forward transform of a component array of the plan's grid, as a new one."""
    return _chirp_dft_chirp(comps, (plan.pre1, plan.pre2), (plan.post1, plan.post2),
                            -1, _scale(plan))


def forward_fast(f: QSignal2D, plan: FastPlan) -> QSignal2D:
    """Fast two-sided transform; matches ``forward_direct`` to rounding."""
    _check_dims(f, plan.cfg)
    return QSignal2D._adopt(_forward(f.comps, plan))


def inverse_fast(F: QSignal2D, plan: FastPlan) -> QSignal2D:
    """Fast inverse: conjugated chirps around a sign-flipped DFT."""
    _check_dims(F, plan.cfg)
    return QSignal2D._adopt(_chirp_dft_chirp(
        F.comps, (np.conj(plan.post1), np.conj(plan.post2)),
        (np.conj(plan.pre1), np.conj(plan.pre2)), +1, _scale(plan)))


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


def _check_identity(f: QSignal2D, cfg: TransformConfig, identity: str, shift=(0, 0)):
    """Refuse what the identity does not cover; return the shift read as integers."""
    _check_dims(f, cfg)
    _check_two_sided(cfg, identity)
    (s1, s2), g = map(operator.index, shift), cfg.grid
    if not (0 <= s1 < g.n1 and 0 <= s2 < g.n2):
        raise IndexError(f"shift ({s1}, {s2}) out of range for grid {(g.n1, g.n2)}")
    return s1, s2


def modulation_rhs(f: QSignal2D, cfg: TransformConfig, eps1: int, eps2: int) -> QSignal2D:
    """Frequency-shifted spectrum with its quadratic phase correction.

    Evaluates  exp(i*rho1) * F[(w1-eps1) mod N1, (w2-eps2) mod N2] * exp(j*rho2)
    with rho = c*(m^2 - w^2)*du^2 + e*(m - w)*du at the wrapped index
    m = (w - eps) mod N.  The phase is taken at the wrapped index, so the
    identity with the transform of the modulated signal is exact for every
    shift; when nothing wraps, rho reduces to the familiar
    c*(eps^2 - 2*w*eps)*du^2 - e*eps*du.

    The correction turns the post-chirp taken at m into the one at w, so
    the plain DFT planes of the pre-chirped signal are rolled by eps, read
    at m, and post-chirped at w: one chirp-DFT-chirp with the plan's own
    vectors.
    """
    eps = _check_identity(f, cfg, "modulation identity", (eps1, eps2))
    plan = make_plan(cfg)
    planes = np.roll(_dft_planes(f.comps, (plan.pre1, plan.pre2), -1), eps, axis=(0, 1))
    return QSignal2D._adopt(_chirp_join(planes, plan.post1, plan.post2, _scale(plan)))


def translation_rhs(f: QSignal2D, cfg: TransformConfig, k1: int, k2: int) -> QSignal2D:
    """Literal right-hand side of the translation identity.

    Its value is the transform of the inner chirped signal
    exp(-2i*a1*x1*k1*dt1^2) * f * exp(-2j*a2*x2*k2*dt2^2) multiplied by
    exp(-i(a1*k1^2*dt1^2 + d1*k1*dt1 + 2*pi*k1*w1/N1)) on the left and the
    j-analogue on the right.  It equals the spectrum of the shifted signal
    only where the shift does not wrap (or the time-side phase is
    N-periodic, e.g. a = d = 0); callers are expected to pick the regime.

    With the time side T(x) = a*x^2*dt^2 + d*x*dt, T(x) + 2*a*x*k*dt^2 +
    T(k) = T(x + k) for integer x and k, so the inner chirp, the transform's
    pre-chirp and T(k) are the one pre-chirp exp(-i*T(x + k)), and the
    post-chirp is exp(-i*(c*w^2*du^2 + e*w*du + 2*pi*(k*w mod N)/N)): one
    chirp-DFT-chirp.
    """
    k = _check_identity(f, cfg, "translation identity", (k1, k2))
    pre, post = [], []
    for (p, n, dt), s in zip(_axes(cfg), k):
        x = np.arange(n)
        pre.append(np.exp(-1j * _mod_2pi(_time_phase(p, x + s, dt))))
        post.append(np.exp(-1j * _mod_2pi(_freq_phase(p, x, n, dt),
                                           ((2.0 * math.pi / n) * (s * x % n), 0.0))))
    return QSignal2D._adopt(_forward(f.comps, FastPlan(cfg, *pre, *post)))


def conjugate_transform_decomposition(f: QSignal2D, cfg: TransformConfig) -> QSignal2D:
    """Transform of conj(f) assembled as Q[f0] - i*Q[f1] - Q[f2]*j - i*Q[f3]*j.

    Q[fn] is the transform of the real component fn, and conj(f) is
    f0 - f1*i - f2*j - f3*k.  A real sample commutes with every factor,
    i commutes with the left exponential and j with the right one, so

        e^{-i*a} * (f1*i) * e^{-j*b} = i * Q[f1],
        e^{-i*a} * (f2*j) * e^{-j*b} = Q[f2] * j,
        e^{-i*a} * (f3*k) * e^{-j*b} = i * Q[f3] * j,

    the last because k = i*j.  The assembly is therefore an identity
    for every signal, not only for signals without a k component.
    """
    _check_identity(f, cfg, "conjugate decomposition")
    plan, real = make_plan(cfg), np.zeros(f.comps.shape)
    for n in range(4):
        real[..., 0] = f.comps[..., n]  # each fn in turn through one reused buffer
        uv = _forward(real, plan).view(np.complex128)
        if n % 2:
            uv *= 1j  # i*Q[f1], i*Q[f3]
        if n == 0:
            out = uv  # the later terms are added in place, in the formula's order
        elif n == 1:
            out -= uv
        else:  # -Q[fn]*j is (v, -u) in the (u, v) form
            out[..., 0] += uv[..., 1]
            out[..., 1] -= uv[..., 0]
        del uv  # no spent spectrum stays alive beside the next one
    return QSignal2D._adopt(out.view(np.float64))
