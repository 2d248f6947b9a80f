"""Direct quadratic-phase quaternion transforms and their identities.

The two-sided transform of an n1 x n2 quaternion signal f is

    F[w1, w2] = (1/sqrt(N1*N2)) * sum_{x1, x2}
                exp(-i * ph1(x1, w1)) * f[x1, x2] * exp(-j * ph2(x2, w2))

with per-axis phases

    ph(x, w) = (a*x^2*dt^2 + d*x*dt) + (2*pi/N)*x*w + (c*w^2*du^2 + e*w*du).

The bracketed time and frequency sides are written once, in
``_time_phase`` and ``_freq_phase``; every kernel, chirp and identity
phase correction here is built from those two.

The i-exponential always sits on the left of the sample and the
j-exponential on the right; the order is load-bearing because the
factors do not commute with quaternion samples.  Left- and right-sided
variants put the product of both exponentials (i-factor first) on a
single side instead.

Everything here is evaluated from precomputed kernel matrices by a full
O((N1*N2)^2) contraction, which makes this module the definitional
reference the FFT-based fast path is checked and benchmarked against.
All arithmetic runs on the component array viewed as complex pairs,
q = u + v*j with u = w + i*x and v = y + i*z, where one-sided
multiplications turn into ordinary complex products: an i-complex z on
the left gives (z*u, z*v), one on the right (u*z, v*conj(z)), and the
j-complex value c + j*s on the right gives (c*u - s*v, c*v + s*u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Grid, ParameterError, ParamSet, make_grid
from .quaternion import I, J, K, qconj, qmul
from .signal import QSignal2D, _real_array

__all__ = [
    "TWO_SIDED",
    "LEFT_SIDED",
    "RIGHT_SIDED",
    "TransformConfig",
    "make_config",
    "left_kernel",
    "right_kernel",
    "forward_direct",
    "inverse_direct",
    "dqft2",
    "dqpft_1d",
    "modulated_signal",
    "circular_shift",
    "modulation_rhs",
    "translation_rhs",
    "conjugate_transform_decomposition",
]

TWO_SIDED = "two_sided"
LEFT_SIDED = "left_sided"
RIGHT_SIDED = "right_sided"
_SIDES = (TWO_SIDED, LEFT_SIDED, RIGHT_SIDED)


@dataclass(frozen=True)
class TransformConfig:
    """Parameter pair, grid and kernel placement for one transform."""

    p1: ParamSet
    p2: ParamSet
    grid: Grid
    side: str = TWO_SIDED

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ParameterError(f"side must be one of {_SIDES}, got {self.side!r}")
        g = self.grid
        if g.du1 != 2.0 * math.pi * self.p1.b / (g.n1 * g.dt1):
            raise ParameterError("grid du1 is inconsistent with the axis-1 parameter b")
        if g.du2 != 2.0 * math.pi * self.p2.b / (g.n2 * g.dt2):
            raise ParameterError("grid du2 is inconsistent with the axis-2 parameter b")


def make_config(p1: ParamSet, p2: ParamSet, n1: int, n2: int,
                dt1: float = 1.0, dt2: float = 1.0,
                side: str = TWO_SIDED) -> TransformConfig:
    """Build a config with the frequency steps derived from b1, b2."""
    return TransformConfig(p1, p2, make_grid(n1, n2, dt1, dt2, p1, p2), side)


def _axes(cfg: TransformConfig):
    """Per-axis (params, size, time step, frequency step), axis 1 first."""
    g = cfg.grid
    return (cfg.p1, g.n1, g.dt1, g.du1), (cfg.p2, g.n2, g.dt2, g.du2)


def _time_phase(p: ParamSet, xi, dt: float):
    """Time side of the kernel phase, a*x^2*dt^2 + d*x*dt."""
    return p.a * xi * xi * dt * dt + p.d * xi * dt


def _freq_phase(p: ParamSet, w, du: float):
    """Frequency side of the kernel phase, c*w^2*du^2 + e*w*du."""
    return p.c * w * w * du * du + p.e * w * du


def _axis_phase(p: ParamSet, n: int, dt: float, du: float,
                xi, w) -> np.ndarray:
    xi = np.asarray(xi, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    return _time_phase(p, xi, dt) + (2.0 * math.pi / n) * xi * w + _freq_phase(p, w, du)


def _kernel_matrix(p: ParamSet, n: int, dt: float, du: float) -> np.ndarray:
    """(1/sqrt(n)) * exp(-i*phase) over all (sample, frequency) index pairs."""
    xi = np.arange(n)[:, None]
    w = np.arange(n)[None, :]
    return np.exp(-1j * _axis_phase(p, n, dt, du, xi, w)) / math.sqrt(n)


def _kernel_factors(cfg: TransformConfig):
    """Axis-1 complex kernel and the cos/sin parts of the axis-2 j-kernel."""
    z1, z2 = (_kernel_matrix(*axis) for axis in _axes(cfg))
    return z1, z2.real, z2.imag


def _kernel_entry(cfg: TransformConfig, axis: int, xi: int, w: int) -> complex:
    p, n, dt, du = _axes(cfg)[axis - 1]
    if not (0 <= xi < n and 0 <= w < n):
        raise IndexError(f"axis-{axis} indices out of range for N{axis}={n}: ({xi}, {w})")
    return complex(np.exp(-1j * _axis_phase(p, n, dt, du, xi, w)) / math.sqrt(n))


def left_kernel(cfg: TransformConfig, xi1: int, w1: int) -> complex:
    """Axis-1 kernel entry; an i-complex value of modulus 1/sqrt(N1)."""
    return _kernel_entry(cfg, 1, xi1, w1)


def right_kernel(cfg: TransformConfig, xi2: int, w2: int) -> complex:
    """Axis-2 kernel entry; imag carries the j coefficient (cos + j*sin form)."""
    return _kernel_entry(cfg, 2, xi2, w2)


def _contract(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    # optimize=False keeps the naive O((N1*N2)^2) evaluation order; the
    # matrix-chain shortcut would turn the reference path into a second
    # fast algorithm and void the direct column of ``dqqpft bench``, the
    # baseline the fast path's speed-up is measured against.
    return np.einsum("pm,pq,qn->mn", a, x, b, optimize=False)


def _sandwich(z1, b0, b2, comps, side):
    """Kernel contraction of a component array for one kernel placement.

    z1 is the i-complex axis-1 factor indexed (summed, out); (b0, b2) are
    the cos/sin parts of the j-complex axis-2 factor, same indexing.
    Returns a new (n1, n2, 4) component array.
    """
    uv = comps.view(np.complex128)
    u, v = uv[..., 0], uv[..., 1]
    if side == TWO_SIDED:
        fu = _contract(z1, u, b0) - _contract(z1, v, b2)
        fv = _contract(z1, v, b0) + _contract(z1, u, b2)
    elif side == LEFT_SIDED:
        fu = _contract(z1, u, b0) - _contract(z1, np.conj(v), b2)
        fv = _contract(z1, v, b0) + _contract(z1, np.conj(u), b2)
    elif side == RIGHT_SIDED:
        zc = np.conj(z1)
        fu = _contract(z1, u, b0) - _contract(zc, v, b2)
        fv = _contract(zc, v, b0) + _contract(z1, u, b2)
    else:  # pragma: no cover
        raise ValueError(side)
    return np.stack([fu, fv], axis=-1).view(np.float64)


def _check_dims(f: QSignal2D, cfg: TransformConfig):
    if (f.n1, f.n2) != (cfg.grid.n1, cfg.grid.n2):
        raise ValueError(
            f"signal shape {(f.n1, f.n2)} does not match grid {(cfg.grid.n1, cfg.grid.n2)}")


def forward_direct(f: QSignal2D, cfg: TransformConfig) -> QSignal2D:
    """Transform by direct summation against precomputed kernel matrices."""
    _check_dims(f, cfg)
    z1, b0, b2 = _kernel_factors(cfg)
    return QSignal2D._adopt(_sandwich(z1, b0, b2, f.comps, cfg.side))


def inverse_direct(F: QSignal2D, cfg: TransformConfig) -> QSignal2D:
    """Reconstruct a signal from its spectrum.

    Uses the sign-flipped kernel phases with the same 1/sqrt(N1*N2)
    normalisation, which makes ``inverse_direct(forward_direct(f)) == f``
    hold to rounding for every parameter choice and kernel placement.
    One-sided spectra are inverted by the conjugated kernel product in
    reversed factor order (j-exponential first) on the same side.  Since
    conj(p*q) = conj(q)*conj(p), that is the forward kernel of the other
    side applied under conjugation:

        e^{+j*b} * e^{+i*a} * F  =  conj(conj(F) * e^{-i*a} * e^{-j*b}),

    so a left-sided inverse is conj(right-sided sandwich of conj(F)) with
    the transposed forward kernels, and a right-sided one the mirror.
    """
    _check_dims(F, cfg)
    z1, b0, b2 = _kernel_factors(cfg)
    if cfg.side == TWO_SIDED:
        return QSignal2D._adopt(_sandwich(np.conj(z1).T, b0.T, -b2.T, F.comps, TWO_SIDED))
    other_side = RIGHT_SIDED if cfg.side == LEFT_SIDED else LEFT_SIDED
    return QSignal2D._adopt(qconj(_sandwich(z1.T, b0.T, b2.T, qconj(F.comps), other_side)))


def dqft2(f: QSignal2D) -> QSignal2D:
    """Unnormalised two-sided quaternion DFT (plain 2*pi*x*w/N kernels)."""
    z1, z2 = (np.exp(-2j * math.pi * np.outer(np.arange(n), np.arange(n)) / n)
              for n in (f.n1, f.n2))
    return QSignal2D._adopt(_sandwich(z1, z2.real, z2.imag, f.comps, TWO_SIDED))


def _time_chirp(p: ParamSet, n: int, dt: float, sign: int) -> np.ndarray:
    return np.exp(sign * 1j * _time_phase(p, np.arange(n), dt))


def _freq_chirp(p: ParamSet, n: int, du: float, sign: int) -> np.ndarray:
    return np.exp(sign * 1j * _freq_phase(p, np.arange(n), du))


def _pointwise_sandwich(comps, left, right):
    """Per-sample product left * q * right on an (n1, n2, 4) component array.

    ``left`` is an i-complex vector over axis 1, ``right`` the complex
    bookkeeping exp(i*theta) of a j-complex vector exp(j*theta) over
    axis 2; pass None to skip a factor.  Returns a new component array.
    """
    uv = comps.view(np.complex128)
    if left is not None:
        uv = left[:, None, None] * uv
    u, v = uv[..., 0], uv[..., 1]
    if right is not None:
        c, s = right.real, right.imag
        u, v = u * c - v * s, v * c + u * s
    return np.stack([u, v], axis=-1).view(np.float64)


def dqpft_1d(f, p: ParamSet, dt: float = 1.0) -> np.ndarray:
    """One-dimensional quadratic-phase transform with the kernel on the right.

    Accepts a length-N complex (or real) vector, or a real (N, 4)
    quaternion component array; returns the matching representation.  The
    frequency step is du = 2*pi*b/(N*dt).
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ParameterError(f"dt must be a positive finite step, got {dt!r}")
    arr = np.asarray(f)
    quat = arr.ndim == 2 and arr.shape[1] == 4
    if not quat and arr.ndim != 1:
        raise ValueError(f"expected a 1D vector or an (N, 4) array, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise ValueError("dqpft_1d needs at least one sample")
    du = 2.0 * math.pi * p.b / (n * dt)
    kern = _kernel_matrix(p, n, dt, du)
    if not quat:
        return arr.astype(np.complex128) @ kern
    # q*z = u*z + (v*conj(z))*j for an i-complex z; BLAS products are not
    # conjugate-symmetric, so v's product is taken as conj(conj(v) @ kern)
    u, v = np.ascontiguousarray(_real_array(arr), dtype=np.float64).view(np.complex128).T.copy()
    return np.stack([u @ kern, np.conj(np.conj(v) @ kern)], axis=-1).view(np.float64)


def modulated_signal(f: QSignal2D, eps1: int, eps2: int) -> QSignal2D:
    """exp(i*2*pi*eps1*x1/N1) * f * exp(j*2*pi*eps2*x2/N2)."""
    n1, n2 = f.n1, f.n2
    left = np.exp(2j * math.pi * eps1 * np.arange(n1) / n1)
    right = np.exp(2j * math.pi * eps2 * np.arange(n2) / n2)
    return QSignal2D._adopt(_pointwise_sandwich(f.comps, left, right))


def circular_shift(f: QSignal2D, k1: int, k2: int) -> QSignal2D:
    """f[(x1 - k1) mod N1, (x2 - k2) mod N2]."""
    return QSignal2D(np.roll(f.comps, (k1, k2), axis=(0, 1)))


def _check_identity(f: QSignal2D, cfg: TransformConfig, identity: str, shift=(0, 0)):
    _check_dims(f, cfg)
    if cfg.side != TWO_SIDED:
        raise ParameterError(f"{identity} is stated for the two-sided transform")
    (s1, s2), g = shift, cfg.grid
    if not (0 <= s1 < g.n1 and 0 <= s2 < g.n2):
        raise IndexError(f"shift ({s1}, {s2}) out of range for grid {(g.n1, g.n2)}")


def modulation_rhs(f: QSignal2D, cfg: TransformConfig, eps1: int, eps2: int) -> QSignal2D:
    """Frequency-shifted spectrum with its quadratic phase correction.

    Evaluates  exp(i*rho1) * F[(w1-eps1) mod N1, (w2-eps2) mod N2] * exp(j*rho2)
    with rho = c*(m^2 - w^2)*du^2 + e*(m - w)*du at the wrapped index
    m = (w - eps) mod N.  The phase is taken at the wrapped index, so the
    identity with the transform of the modulated signal is exact for every
    shift; when nothing wraps, rho reduces to the familiar
    c*(eps^2 - 2*w*eps)*du^2 - e*eps*du.
    """
    _check_identity(f, cfg, "modulation identity", (eps1, eps2))
    F = forward_direct(f, cfg)
    rows, rho = [], []
    for (p, n, _, du), eps in zip(_axes(cfg), (eps1, eps2)):
        w = np.arange(n)
        m = (w - eps) % n
        rows.append(m)
        rho.append(np.exp(1j * (_freq_phase(p, m, du) - _freq_phase(p, w, du))))
    return QSignal2D._adopt(_pointwise_sandwich(F.comps[np.ix_(*rows)], *rho))


def translation_rhs(f: QSignal2D, cfg: TransformConfig, k1: int, k2: int) -> QSignal2D:
    """Literal right-hand side of the translation identity.

    Transforms the inner chirped signal
    exp(-2i*a1*x1*k1*dt1^2) * f * exp(-2j*a2*x2*k2*dt2^2) and multiplies by
    exp(-i(a1*k1^2*dt1^2 + d1*k1*dt1 + 2*pi*k1*w1/N1)) on the left and the
    j-analogue on the right.  It equals the spectrum of the shifted signal
    only where the shift does not wrap (or the time-side phase is
    N-periodic, e.g. a = d = 0); callers are expected to pick the regime.
    """
    _check_identity(f, cfg, "translation identity", (k1, k2))
    inner, outer = [], []
    for (p, n, dt, _), k in zip(_axes(cfg), (k1, k2)):
        x = np.arange(n)
        inner.append(np.exp(-2j * p.a * x * k * dt ** 2))
        outer.append(np.exp(-1j * (_time_phase(p, k, dt) + (2.0 * math.pi / n) * k * x)))
    T = forward_direct(QSignal2D._adopt(_pointwise_sandwich(f.comps, *inner)), cfg)
    return QSignal2D._adopt(_pointwise_sandwich(T.comps, *outer))


def conjugate_transform_decomposition(f: QSignal2D, cfg: TransformConfig) -> QSignal2D:
    """Componentwise assembly Q[f0] - i*Q[f1] - Q[f2]*j - i*Q[f3]*k.

    This is the textbook decomposition of the transform of a conjugated
    signal.  The w, x and y component placements match the transform of
    conj(f) identically; the k-component term mixes both kernel axes and
    is known not to, so consumers compare rather than assume equality.
    """
    _check_identity(f, cfg, "conjugate decomposition")
    q = [forward_direct(QSignal2D.from_real(f.comps[..., n]), cfg).comps for n in range(4)]
    i, j, k = (u.to_array() for u in (I, J, K))
    return QSignal2D._adopt(q[0] - qmul(i, q[1]) - qmul(q[2], j) - qmul(i, qmul(q[3], k)))
