"""Direct quadratic-phase quaternion transforms and the phases the library shares.

The two-sided transform of an n1 x n2 quaternion signal f is

    F[w1, w2] = (1/sqrt(N1*N2)) * sum_{x1, x2}
                exp(-i * ph1(x1, w1)) * f[x1, x2] * exp(-j * ph2(x2, w2))

with per-axis phases

    ph(x, w) = (a*x^2*dt^2 + d*x*dt) + (2*pi/N)*x*w + (c*w^2*du^2 + e*w*du).

The bracketed time and frequency sides are written once, in
``_time_phase`` and ``_freq_phase``, and every kernel, chirp and identity
phase correction that reaches ``exp`` is built from those two.  The
kernel (``_kernel``), the convolution chirp (``_conv_phase``), the planes
join (``_chirp_join``) and the two-sided requirement (``_check_two_sided``)
are each written once too.  The convolution chirp is plain float64 and
reaches ``cos``/``sin`` unreduced.

The time side grows as a*(N*dt)^2, so a float64 evaluation loses
O(N^2 * eps) rad: up to 3e-7 rad at N = 16384 with |a| <= 2 and dt <= 2.
Both sides are therefore evaluated in double-double (Dekker's exact
products, ``exact.py``), with du = 2*pi*b/(N*dt) carried with its
rounding error, and the sum of the three terms is reduced mod 2*pi with
a two-double 2*pi before ``exp``.  Every phase that reaches ``exp`` lies
in about [-pi, pi] and is within a few ulp of pi (~1e-15 rad) of the
phase of the exact inputs, at any N, for phases below about 1e14 rad.

The plain float64 phase decides overflow: a config is refused on an
axis whose float64 kernel phase or convolution chirp is not finite
(``_axis_step``), and double-double runs only where a phase reaches
``exp``, so building a config takes a few Python float operations.

The i-exponential always sits on the left of the sample and the
j-exponential on the right; the order is load-bearing because the
factors do not commute with quaternion samples.  Left- and right-sided
variants put the product of both exponentials (i-factor first) on a
single side instead.

The transforms here, a full O((N1*N2)^2) contraction of precomputed
kernel matrices, are the definitional reference the FFT-based fast path
is checked and benchmarked against.  All arithmetic runs on the
component array viewed as complex pairs, q = u + v*j with u = w + i*x
and v = y + i*z, where one-sided multiplications turn into ordinary
complex products: an i-complex z on the left gives (z*u, z*v), one on
the right (u*z, v*conj(z)), and the j-complex value c + j*s on the
right gives (c*u - s*v, c*v + s*u).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .exact import _two_product, _two_sum
from .params import Grid, ParameterError, ParamSet, _freq_step
from .quaternion import qconj
from .signal import QSignal2D

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
    "modulated_signal",
    "circular_shift",
]

TWO_SIDED = "two_sided"
LEFT_SIDED = "left_sided"
RIGHT_SIDED = "right_sided"
_SIDES = (TWO_SIDED, LEFT_SIDED, RIGHT_SIDED)


@dataclass(frozen=True)
class TransformConfig:
    """Parameter pair, grid and kernel placement for one transform.

    ``du1``/``du2`` are the frequency steps derived from b, N and dt.  A
    pair whose kernel phase or convolution chirp, dt^2 included, overflows
    on either axis is refused.
    """

    p1: ParamSet
    p2: ParamSet
    grid: Grid
    side: str = TWO_SIDED

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ParameterError(f"side must be one of {_SIDES}, got {self.side!r}")
        g = self.grid
        _axis_step(self.p1, g.n1, g.dt1, "axis 1")
        _axis_step(self.p2, g.n2, g.dt2, "axis 2")

    @property
    def du1(self) -> float:
        return _freq_step(self.p1, self.grid.n1, self.grid.dt1)

    @property
    def du2(self) -> float:
        return _freq_step(self.p2, self.grid.n2, self.grid.dt2)


def make_config(p1: ParamSet, p2: ParamSet, n1: int, n2: int,
                dt1: float = 1.0, dt2: float = 1.0,
                side: str = TWO_SIDED) -> TransformConfig:
    """Build a config from the quintuples, the grid sizes and the time steps."""
    return TransformConfig(p1, p2, Grid(n1, n2, dt1, dt2), side)


def _axes(cfg: TransformConfig):
    """Per-axis (params, size, time step), axis 1 first."""
    g = cfg.grid
    return (cfg.p1, g.n1, g.dt1), (cfg.p2, g.n2, g.dt2)


# --- kernel phases in double-double ------------------------------------------
#
# A phase is carried as a pair (hi, lo) of doubles: hi is the plain float64
# evaluation (``_quad_hi``), which ``_axis_step`` evaluates on its own as
# the overflow rule, and hi + lo the phase of the exact inputs to about
# 2**-100 relative.

_TWO_PI_HI, _TWO_PI_LO = 6.283185307179586, 2.4492935982947064e-16


def _dd_mul(a, b):
    """Product of two (hi, lo) pairs as a pair, to about 2**-104 relative."""
    p, e = _two_product(a[0], b[0])
    return p, e + (a[0] * b[1] + a[1] * b[0])


def _quad_hi(k2: float, k1: float, x, h: float):
    """k2*x^2*h^2 + k1*x*h in plain float64, left to right."""
    return k2 * x * x * h * h + k1 * x * h


def _quad_phase(k2: float, k1: float, x, h):
    """k2*x^2*h^2 + k1*x*h at integer x as a (hi, lo) pair, for the step pair h = (h, h_lo).

    x is a Python int or an int64 array; + 0.0 makes it a Python float,
    whose arithmetic costs far less than a 0-d array's, or a float64
    array.  hi is ``_quad_hi`` at h.  The exact phase is summed in
    double-double as (k2*h*h)*x^2 + (k1*h)*x, with x*x exact for any
    index below 2**53, and lo is its difference from hi.  Where a step
    of that sum overflows but hi does not (Veltkamp's split overflows
    above about 1.3e300, say), lo reads 0, so hi alone decides whether
    the phase is finite.
    """
    x = x + 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        hi = _quad_hi(k2, k1, x, h[0])
        quad = _dd_mul(_two_product(x, x), _dd_mul(_dd_mul((k2, 0.0), h), h))
        lin = _dd_mul((x, 0.0), _dd_mul((k1, 0.0), h))
        s, e = _two_sum(quad[0], lin[0])
        lo = ((s - hi) + e) + (quad[1] + lin[1])
    return hi, np.where(np.isfinite(lo), lo, 0.0)


def _freq_step_pair(p: ParamSet, n: int, dt: float):
    """(du, lo): du = ``_freq_step`` and lo its error, du + lo = 2*pi*b/(n*dt).

    b and dt are Python floats, which overflow to inf or NaN without a
    warning, and n*dt > 0, so the division cannot raise.
    """
    du = _freq_step(p, n, dt)
    num, num_e = _two_product(_TWO_PI_HI, p.b)
    den, den_e = _two_product(float(n), dt)
    q, q_e = _two_product(du, den)
    lo = ((((num - q) - q_e) + (num_e + _TWO_PI_LO * p.b)) - du * den_e) / den
    return du, lo


def _time_phase(p: ParamSet, xi, dt: float):
    """Time side of the kernel phase, a*x^2*dt^2 + d*x*dt, as a (hi, lo) pair."""
    return _quad_phase(p.a, p.d, xi, (dt, 0.0))


def _freq_phase(p: ParamSet, w, n: int, dt: float):
    """Frequency side, c*w^2*du^2 + e*w*du with du = 2*pi*b/(n*dt), as a (hi, lo) pair."""
    return _quad_phase(p.c, p.e, w, _freq_step_pair(p, n, dt))


def _mod_2pi(*phases):
    """The sum of (hi, lo) phase pairs, left to right, reduced mod 2*pi.

    The pairs are added in double-double.  2*pi is the pair _TWO_PI_HI +
    _TWO_PI_LO, and q*_TWO_PI_HI is subtracted exactly, so the result,
    in about [-pi, pi], is within a few ulp of pi of the exact reduction
    for any phase below about 1e14 rad.  A non-finite sum gives NaN.
    """
    hi, lo = phases[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for p_hi, p_lo in phases[1:]:
            hi, e = _two_sum(hi, p_hi)
            lo = (lo + p_lo) + e
        q = np.rint(hi / _TWO_PI_HI)
        p, e = _two_product(q, _TWO_PI_HI)
        e = np.where(np.isfinite(e), e, 0.0)
        return ((hi - p) - e) + (lo - q * _TWO_PI_LO)


def _conv_phase(a: float, dt: float, z, x):
    """``qp_convolve``'s chirp phase 2*a*z*(z - x)*dt^2, left to right."""
    return 2.0 * a * z * (z - x) * (dt * dt)


def _axis_step(p: ParamSet, n: int, dt: float, axis: str) -> None:
    """Refuse an axis whose kernel phase or convolution chirp overflows float64.

    The kernel phase is read in plain float64, time + DFT + frequency
    side in ``_mod_2pi``'s order with each side ``_quad_hi``, and is not
    finite exactly where ``_kernel``'s phase is NaN, since ``_mod_2pi``
    and ``_quad_phase`` zero every lo part and error term that overflows.
    The time and frequency sides grow with x and w and the DFT term stays
    below 2*pi, so the phase is finite on the axis if it is at
    x = w = n - 1, where an infinite du reads as NaN.  Each partial
    product of ``_conv_phase`` is largest at z = n - 1, x = 0; an infinite
    dt^2 reads there as inf, or as NaN at a = 0 or n = 1.
    """
    du = _freq_step(p, n, dt)
    x = n - 1
    phase = (_quad_hi(p.a, p.d, x, dt) + (2.0 * math.pi / n) * (x * x % n)
             + _quad_hi(p.c, p.e, x, du))
    if not math.isfinite(phase):
        raise ParameterError(f"{axis}: kernel phase overflows float64 at N={n}, "
                             f"dt={dt!r}, du={du!r}")
    if not math.isfinite(_conv_phase(p.a, dt, x, 0)):
        raise ParameterError(f"{axis}: convolution chirp overflows float64 at N={n}, "
                             f"a={p.a!r}, dt={dt!r}")


def _kernel(p: ParamSet, n: int, dt: float, xi, w):
    """(1/sqrt(n)) * exp(-i*phase) at integer index pairs (Python ints or int64 arrays).

    The DFT term (2*pi/N)*x*w has period N in x*w, which is reduced
    mod N in integers, so the term stays exact at any N.
    """
    return np.exp(-1j * _mod_2pi(_time_phase(p, xi, dt), ((2.0 * math.pi / n) * (xi * w % n), 0.0),
                                 _freq_phase(p, w, n, dt))) / math.sqrt(n)


def _kernels(cfg: TransformConfig):
    """The axis-1 i-kernel and the axis-2 j-kernel over all (sample, frequency) pairs."""
    return tuple(_kernel(p, n, dt, *np.ogrid[:n, :n]) for p, n, dt in _axes(cfg))


def _kernel_entry(cfg: TransformConfig, axis: int, xi: int, w: int) -> complex:
    p, n, dt = _axes(cfg)[axis - 1]
    xi, w = operator.index(xi), operator.index(w)
    if not (0 <= xi < n and 0 <= w < n):
        raise IndexError(f"axis-{axis} indices out of range for N{axis}={n}: ({xi}, {w})")
    return complex(_kernel(p, n, dt, xi, w))


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


def _sandwich(z1, z2, comps, side):
    """Kernel contraction of a component array for one kernel placement.

    z1 is the i-complex axis-1 kernel and z2 the j-complex axis-2 kernel,
    cos + j*sin carried as cos + i*sin, both indexed (summed, out).
    Returns a new (n1, n2, 4) component array.
    """
    b0, b2 = z2.real, z2.imag
    uv = comps.view(np.complex128)
    u, v = uv[..., 0], uv[..., 1]
    if side == TWO_SIDED:
        fu = _contract(z1, u, b0) - _contract(z1, v, b2)
        fv = _contract(z1, v, b0) + _contract(z1, u, b2)
    elif side == LEFT_SIDED:
        fu = _contract(z1, u, b0) - _contract(z1, np.conj(v), b2)
        fv = _contract(z1, v, b0) + _contract(z1, np.conj(u), b2)
    else:
        zc = np.conj(z1)
        fu = _contract(z1, u, b0) - _contract(zc, v, b2)
        fv = _contract(zc, v, b0) + _contract(z1, u, b2)
    return np.stack([fu, fv], axis=-1).view(np.float64)


def _check_dims(f: QSignal2D, cfg: TransformConfig):
    if (f.n1, f.n2) != (cfg.grid.n1, cfg.grid.n2):
        raise ValueError(
            f"signal shape {(f.n1, f.n2)} does not match grid {(cfg.grid.n1, cfg.grid.n2)}")


def forward_direct(f: QSignal2D, cfg: TransformConfig) -> QSignal2D:
    """Transform by direct summation against precomputed kernel matrices."""
    _check_dims(f, cfg)
    return QSignal2D._adopt(_sandwich(*_kernels(cfg), f.comps, cfg.side))


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
    z1, z2 = _kernels(cfg)
    if cfg.side == TWO_SIDED:
        return QSignal2D._adopt(_sandwich(np.conj(z1).T, np.conj(z2).T, F.comps, TWO_SIDED))
    other_side = RIGHT_SIDED if cfg.side == LEFT_SIDED else LEFT_SIDED
    return QSignal2D._adopt(qconj(_sandwich(z1.T, z2.T, qconj(F.comps), other_side)))


def _split_planes(comps: np.ndarray) -> np.ndarray:
    """Orthogonal planes split (Hitzer & Sangwine, 2013) into a new array.

    Returns the (n1, n2, 2) complex planes p+ = u - i*v = (w + z) + i*(x - y)
    in [..., 0] and p- = u + i*v = (w - z) + i*(x + y) in [..., 1].
    """
    uv = comps.view(np.complex128)
    planes = np.empty(uv.shape, dtype=np.complex128)
    plus, minus = planes[..., 0], planes[..., 1]
    np.multiply(uv[..., 1], 1j, out=minus)
    np.subtract(uv[..., 0], minus, out=plus)
    minus += uv[..., 0]
    return planes


def _chirp_planes(planes: np.ndarray, left, right) -> None:
    """In place, exp(i*a) * q * exp(j*b) as exp(i*(a - b))*p+ and exp(i*(a + b))*p-.

    ``left`` is exp(i*a) over axis 1 and ``right`` the bookkeeping exp(i*b)
    of exp(j*b) over axis 2, each broadcast, never formed as an N1 x N2 grid.
    """
    planes *= left[:, None, None]
    planes *= np.stack([np.conj(right), right], axis=-1)


def _chirp_join(planes: np.ndarray, left, right, scale: float = 1.0) -> np.ndarray:
    """In place, post-chirp by (left * scale/2, right) and join: (u, v) = (p+ + p-, i*(p+ - p-)).

    p+ - p- is taken as (p+ + p-) - 2*p-: no temporary plane, and finite
    wherever a separate p+ - p- is, as 2*p- is a plane without its 1/2.
    """
    _chirp_planes(planes, left * (0.5 * scale), right)
    plus, minus = planes[..., 0], planes[..., 1]
    plus += minus
    minus *= -2
    minus += plus
    minus *= 1j
    return planes.view(np.float64)


def _pointwise_sandwich(comps, left, right):
    """left * q * right per sample, as for ``_chirp_planes``; a new component array."""
    return _chirp_join(_split_planes(comps), left, right)


def modulated_signal(f: QSignal2D, eps1: int, eps2: int) -> QSignal2D:
    """exp(i*2*pi*eps1*x1/N1) * f * exp(j*2*pi*eps2*x2/N2) for integer shifts.

    Each shift is reduced mod N before it multiplies the int64 index, so
    that no product wraps.
    """
    left, right = (np.exp(2j * math.pi * (operator.index(eps) % n * np.arange(n) % n) / n)
                   for eps, n in ((eps1, f.n1), (eps2, f.n2)))
    return QSignal2D._adopt(_pointwise_sandwich(f.comps, left, right))


def circular_shift(f: QSignal2D, k1: int, k2: int) -> QSignal2D:
    """f[(x1 - k1) mod N1, (x2 - k2) mod N2] for integer shifts."""
    return QSignal2D._adopt(np.roll(f.comps, (operator.index(k1), operator.index(k2)), axis=(0, 1)))


def _check_two_sided(cfg: TransformConfig, what: str) -> None:
    if cfg.side != TWO_SIDED:
        raise ParameterError(f"{what} takes the two-sided transform only, got side {cfg.side!r}")
