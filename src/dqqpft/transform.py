"""Direct quadratic-phase quaternion transforms and their identities.

The two-sided transform of an n1 x n2 quaternion signal f is

    F[w1, w2] = (1/sqrt(N1*N2)) * sum_{x1, x2}
                exp(-i * ph1(x1, w1)) * f[x1, x2] * exp(-j * ph2(x2, w2))

with per-axis phases

    ph(x, w) = a*x^2*dt^2 + (2*pi/N)*x*w + c*w^2*du^2 + d*x*dt + e*w*du.

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
    "forward_via_dqft",
    "dqpft_1d",
    "energy",
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


def _axis_phase(p: ParamSet, n: int, dt: float, du: float,
                xi, w) -> np.ndarray:
    xi = np.asarray(xi, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    return (p.a * xi * xi * dt * dt
            + (2.0 * math.pi / n) * xi * w
            + p.c * w * w * du * du
            + p.d * xi * dt
            + p.e * w * du)


def _kernel_matrix(p: ParamSet, n: int, dt: float, du: float) -> np.ndarray:
    """(1/sqrt(n)) * exp(-i*phase) over all (sample, frequency) index pairs."""
    xi = np.arange(n)[:, None]
    w = np.arange(n)[None, :]
    return np.exp(-1j * _axis_phase(p, n, dt, du, xi, w)) / math.sqrt(n)


def _kernel_factors(cfg: TransformConfig):
    """Axis-1 complex kernel and the cos/sin parts of the axis-2 j-kernel."""
    g = cfg.grid
    z1 = _kernel_matrix(cfg.p1, g.n1, g.dt1, g.du1)
    z2 = _kernel_matrix(cfg.p2, g.n2, g.dt2, g.du2)
    return z1, z2.real, z2.imag


def left_kernel(cfg: TransformConfig, xi1: int, w1: int) -> complex:
    """Axis-1 kernel entry; an i-complex value of modulus 1/sqrt(N1)."""
    n1 = cfg.grid.n1
    if not (0 <= xi1 < n1 and 0 <= w1 < n1):
        raise IndexError(f"axis-1 indices out of range for N1={n1}: ({xi1}, {w1})")
    ph = _axis_phase(cfg.p1, n1, cfg.grid.dt1, cfg.grid.du1, xi1, w1)
    return complex(np.exp(-1j * ph) / math.sqrt(n1))


def right_kernel(cfg: TransformConfig, xi2: int, w2: int) -> complex:
    """Axis-2 kernel entry; imag carries the j coefficient (cos + j*sin form)."""
    n2 = cfg.grid.n2
    if not (0 <= xi2 < n2 and 0 <= w2 < n2):
        raise IndexError(f"axis-2 indices out of range for N2={n2}: ({xi2}, {w2})")
    ph = _axis_phase(cfg.p2, n2, cfg.grid.dt2, cfg.grid.du2, xi2, w2)
    return complex(np.exp(-1j * ph) / math.sqrt(n2))


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


def _dqft2_signed(comps: np.ndarray, sign: int) -> np.ndarray:
    n1, n2 = comps.shape[:2]
    w1 = np.arange(n1)
    w2 = np.arange(n2)
    z1 = np.exp(sign * 2j * math.pi * np.outer(w1, w1) / n1)
    z2 = np.exp(sign * 2j * math.pi * np.outer(w2, w2) / n2)
    return _sandwich(z1, z2.real, z2.imag, comps, TWO_SIDED)


def dqft2(f: QSignal2D) -> QSignal2D:
    """Unnormalised two-sided quaternion DFT (plain 2*pi*x*w/N kernels)."""
    return QSignal2D._adopt(_dqft2_signed(f.comps, -1))


def _time_chirp(p: ParamSet, n: int, dt: float, sign: int) -> np.ndarray:
    xi = np.arange(n)
    return np.exp(sign * 1j * (p.a * xi * xi * dt * dt + p.d * xi * dt))


def _freq_chirp(p: ParamSet, n: int, du: float, sign: int) -> np.ndarray:
    w = np.arange(n)
    return np.exp(sign * 1j * (p.c * w * w * du * du + p.e * w * du))


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


def forward_via_dqft(f: QSignal2D, cfg: TransformConfig) -> QSignal2D:
    """Chirp product, plain quaternion DFT, chirp product.

    Splits the kernels into time chirps exp(-i(a*x^2*dt^2 + d*x*dt)),
    the unnormalised two-sided DFT and frequency chirps
    exp(-i(c*w^2*du^2 + e*w*du)); agrees with ``forward_direct`` to
    rounding and is the stepping stone to the FFT fast path.
    """
    _check_dims(f, cfg)
    if cfg.side != TWO_SIDED:
        raise ParameterError("the chirp-DFT-chirp factorisation applies to the two-sided transform")
    g = cfg.grid
    comps = _pointwise_sandwich(f.comps,
                                _time_chirp(cfg.p1, g.n1, g.dt1, -1),
                                _time_chirp(cfg.p2, g.n2, g.dt2, -1))
    comps = _pointwise_sandwich(_dqft2_signed(comps, -1),
                                _freq_chirp(cfg.p1, g.n1, g.du1, -1),
                                _freq_chirp(cfg.p2, g.n2, g.du2, -1))
    comps *= 1.0 / math.sqrt(g.n1 * g.n2)
    return QSignal2D._adopt(comps)


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


def energy(f: QSignal2D) -> float:
    """Total signal energy: the sum of squared quaternion sample norms."""
    return f.energy()


def modulated_signal(f: QSignal2D, eps1: int, eps2: int) -> QSignal2D:
    """exp(i*2*pi*eps1*x1/N1) * f * exp(j*2*pi*eps2*x2/N2)."""
    n1, n2 = f.n1, f.n2
    left = np.exp(2j * math.pi * eps1 * np.arange(n1) / n1)
    right = np.exp(2j * math.pi * eps2 * np.arange(n2) / n2)
    return QSignal2D._adopt(_pointwise_sandwich(f.comps, left, right))


def circular_shift(f: QSignal2D, k1: int, k2: int) -> QSignal2D:
    """f[(x1 - k1) mod N1, (x2 - k2) mod N2]."""
    return QSignal2D(np.roll(f.comps, (k1, k2), axis=(0, 1)))


def modulation_rhs(f: QSignal2D, cfg: TransformConfig, eps1: int, eps2: int) -> QSignal2D:
    """Frequency-shifted spectrum with its quadratic phase correction.

    Evaluates  exp(i*rho1) * F[(w1-eps1) mod N1, (w2-eps2) mod N2] * exp(j*rho2)
    with rho = c*(m^2 - w^2)*du^2 + e*(m - w)*du at the wrapped index
    m = (w - eps) mod N.  The phase is taken at the wrapped index, so the
    identity with the transform of the modulated signal is exact for every
    shift; when nothing wraps, rho reduces to the familiar
    c*(eps^2 - 2*w*eps)*du^2 - e*eps*du.
    """
    _check_dims(f, cfg)
    if cfg.side != TWO_SIDED:
        raise ParameterError("modulation identity is stated for the two-sided transform")
    g = cfg.grid
    if not (0 <= eps1 < g.n1 and 0 <= eps2 < g.n2):
        raise IndexError(f"shift ({eps1}, {eps2}) out of range for grid {(g.n1, g.n2)}")
    F = forward_direct(f, cfg)
    w1 = np.arange(g.n1)
    w2 = np.arange(g.n2)
    m1 = (w1 - eps1) % g.n1
    m2 = (w2 - eps2) % g.n2
    rho1 = (cfg.p1.c * (m1.astype(float) ** 2 - w1.astype(float) ** 2) * g.du1 ** 2
            + cfg.p1.e * (m1 - w1) * g.du1)
    rho2 = (cfg.p2.c * (m2.astype(float) ** 2 - w2.astype(float) ** 2) * g.du2 ** 2
            + cfg.p2.e * (m2 - w2) * g.du2)
    shifted = F.comps[np.ix_(m1, m2)]
    return QSignal2D._adopt(_pointwise_sandwich(shifted, np.exp(1j * rho1), np.exp(1j * rho2)))


def translation_rhs(f: QSignal2D, cfg: TransformConfig, k1: int, k2: int) -> QSignal2D:
    """Literal right-hand side of the translation identity.

    Transforms the inner chirped signal
    exp(-2i*a1*x1*k1*dt1^2) * f * exp(-2j*a2*x2*k2*dt2^2) and multiplies by
    exp(-i(a1*k1^2*dt1^2 + 2*pi*k1*w1/N1 + d1*k1*dt1)) on the left and the
    j-analogue on the right.  It equals the spectrum of the shifted signal
    only where the shift does not wrap (or the time-side phase is
    N-periodic, e.g. a = d = 0); callers are expected to pick the regime.
    """
    _check_dims(f, cfg)
    if cfg.side != TWO_SIDED:
        raise ParameterError("translation identity is stated for the two-sided transform")
    g = cfg.grid
    if not (0 <= k1 < g.n1 and 0 <= k2 < g.n2):
        raise IndexError(f"shift ({k1}, {k2}) out of range for grid {(g.n1, g.n2)}")
    xi1 = np.arange(g.n1)
    xi2 = np.arange(g.n2)
    inner = _pointwise_sandwich(f.comps,
                                np.exp(-2j * cfg.p1.a * xi1 * k1 * g.dt1 ** 2),
                                np.exp(-2j * cfg.p2.a * xi2 * k2 * g.dt2 ** 2))
    T = forward_direct(QSignal2D._adopt(inner), cfg)
    w1 = np.arange(g.n1)
    w2 = np.arange(g.n2)
    ph1 = cfg.p1.a * k1 * k1 * g.dt1 ** 2 + (2.0 * math.pi / g.n1) * k1 * w1 + cfg.p1.d * k1 * g.dt1
    ph2 = cfg.p2.a * k2 * k2 * g.dt2 ** 2 + (2.0 * math.pi / g.n2) * k2 * w2 + cfg.p2.d * k2 * g.dt2
    return QSignal2D._adopt(_pointwise_sandwich(T.comps, np.exp(-1j * ph1), np.exp(-1j * ph2)))


def conjugate_transform_decomposition(f: QSignal2D, cfg: TransformConfig) -> QSignal2D:
    """Componentwise assembly Q[f0] - i*Q[f1] - Q[f2]*j - i*Q[f3]*k.

    This is the textbook decomposition of the transform of a conjugated
    signal.  The w, x and y component placements match the transform of
    conj(f) identically; the k-component term mixes both kernel axes and
    is known not to, so consumers compare rather than assume equality.
    """
    _check_dims(f, cfg)
    if cfg.side != TWO_SIDED:
        raise ParameterError("conjugate decomposition is stated for the two-sided transform")
    q = [forward_direct(QSignal2D.from_real(f.comps[..., n]), cfg).comps for n in range(4)]
    i, j, k = (u.to_array() for u in (I, J, K))
    return QSignal2D._adopt(q[0] - qmul(i, q[1]) - qmul(q[2], j) - qmul(i, qmul(q[3], k)))
