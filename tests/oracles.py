"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written with scalar quaternion
arithmetic, explicit kernel matrices or, for ``loop_qp_convolve``, the
per-output ``qmul`` loop the matrix form of ``qp_convolve`` replaced,
never through the vectorised production code paths it is checking.
The seeded input generators and the traced-memory gauge at the end are
shared by the test modules.
"""

import math
import tracemalloc

import numpy as np

from dqqpft.params import ParamSet
from dqqpft.quaternion import Quaternion, qmul
from dqqpft.signal import QSignal2D


def expi(theta: float) -> Quaternion:
    return Quaternion(math.cos(theta), math.sin(theta), 0.0, 0.0)


def expj(theta: float) -> Quaternion:
    return Quaternion(math.cos(theta), 0.0, math.sin(theta), 0.0)


def axis_phase(p, n, dt, du, xi, w) -> float:
    return (p.a * xi * xi * dt * dt + 2.0 * math.pi * xi * w / n
            + p.c * w * w * du * du + p.d * xi * dt + p.e * w * du)


def brute_forward(f: QSignal2D, cfg) -> QSignal2D:
    """Four-nested-loop evaluation of the defining transform sum."""
    g = cfg.grid
    du1 = 2.0 * math.pi * cfg.p1.b / (g.n1 * g.dt1)
    du2 = 2.0 * math.pi * cfg.p2.b / (g.n2 * g.dt2)
    scale = 1.0 / math.sqrt(g.n1 * g.n2)
    out = np.empty((g.n1, g.n2, 4))
    for w1 in range(g.n1):
        for w2 in range(g.n2):
            acc = Quaternion()
            for x1 in range(g.n1):
                lk = expi(-axis_phase(cfg.p1, g.n1, g.dt1, du1, x1, w1))
                for x2 in range(g.n2):
                    rk = expj(-axis_phase(cfg.p2, g.n2, g.dt2, du2, x2, w2))
                    s = f.at(x1, x2)
                    if cfg.side == "two_sided":
                        acc = acc + lk * s * rk
                    elif cfg.side == "left_sided":
                        acc = acc + lk * rk * s
                    else:
                        acc = acc + s * lk * rk
            out[w1, w2] = (acc * scale).to_array()
    return QSignal2D(out)


def loop_dqpft_1d(comps, p, dt) -> np.ndarray:
    """Sample-by-sample sum of q[x] * exp(-i*ph(x, w)) / sqrt(N) over an (N, 4) array."""
    n = len(comps)
    du = 2.0 * math.pi * p.b / (n * dt)
    qs = [Quaternion.from_array(q) for q in comps]
    out = np.empty((n, 4))
    for w in range(n):
        acc = Quaternion()
        for xi in range(n):
            acc = acc + qs[xi] * expi(-axis_phase(p, n, dt, du, xi, w))
        out[w] = (acc * (1.0 / math.sqrt(n))).to_array()
    return out


def brute_inverse(F: QSignal2D, cfg) -> QSignal2D:
    """Four-nested-loop inverse: conjugated kernels, summed over frequency.

    The two-sided inverse keeps the i-factor on the left and the j-factor
    on the right; a one-sided inverse multiplies the conjugated kernel
    product in reversed order, j-factor first, on the same side.
    """
    g = cfg.grid
    du1 = 2.0 * math.pi * cfg.p1.b / (g.n1 * g.dt1)
    du2 = 2.0 * math.pi * cfg.p2.b / (g.n2 * g.dt2)
    scale = 1.0 / math.sqrt(g.n1 * g.n2)
    out = np.empty((g.n1, g.n2, 4))
    for x1 in range(g.n1):
        for x2 in range(g.n2):
            acc = Quaternion()
            for w1 in range(g.n1):
                lk = expi(axis_phase(cfg.p1, g.n1, g.dt1, du1, x1, w1))
                for w2 in range(g.n2):
                    rk = expj(axis_phase(cfg.p2, g.n2, g.dt2, du2, x2, w2))
                    s = F.at(w1, w2)
                    if cfg.side == "two_sided":
                        acc = acc + lk * s * rk
                    elif cfg.side == "left_sided":
                        acc = acc + rk * lk * s
                    else:
                        acc = acc + s * rk * lk
            out[x1, x2] = (acc * scale).to_array()
    return QSignal2D(out)


def scalar_two_sided(f: QSignal2D, k1: np.ndarray, k2: np.ndarray) -> QSignal2D:
    """Two-sided apply of explicit kernel matrices with scalar quaternions.

    k1 is the i-complex left kernel, k2 the cos/sin bookkeeping of the
    j-complex right kernel, both indexed (sample, frequency).
    """
    n1, n2 = f.shape
    out = np.empty((n1, n2, 4))
    for w1 in range(n1):
        for w2 in range(n2):
            acc = Quaternion()
            for x1 in range(n1):
                lk = Quaternion(k1[x1, w1].real, k1[x1, w1].imag, 0.0, 0.0)
                for x2 in range(n2):
                    rk = Quaternion(k2[x2, w2].real, 0.0, k2[x2, w2].imag, 0.0)
                    acc = acc + lk * f.at(x1, x2) * rk
            out[w1, w2] = acc.to_array()
    return QSignal2D(out)


def qfrft_kernel(theta: float, n: int, dt: float) -> np.ndarray:
    """Discrete fractional kernel written out from the angle directly."""
    half_cot = math.cos(theta) / math.sin(theta) / 2.0
    du = 2.0 * math.pi / math.sin(theta) / (n * dt)
    xi = np.arange(n, dtype=float)[:, None]
    w = np.arange(n, dtype=float)[None, :]
    return np.exp(1j * (half_cot * xi * xi * dt * dt
                        - 2.0 * np.pi * xi * w / n
                        + half_cot * w * w * du * du)) / math.sqrt(n)


def qlct_kernel(a: float, b: float, d: float, n: int, dt: float) -> np.ndarray:
    """Discrete linear-canonical kernel written out from (a, b, d) directly."""
    du = 2.0 * math.pi * (1.0 / b) / (n * dt)
    xi = np.arange(n, dtype=float)[:, None]
    w = np.arange(n, dtype=float)[None, :]
    return np.exp(1j * ((a / (2.0 * b)) * xi * xi * dt * dt
                        - 2.0 * np.pi * xi * w / n
                        + (d / (2.0 * b)) * w * w * du * du)) / math.sqrt(n)


def naive_dft2(x: np.ndarray, sign1: int, sign2: int) -> np.ndarray:
    """Matrix-form O(N^2)-per-axis DFT with one exponent sign per axis."""
    n1, n2 = x.shape
    w1 = np.exp(sign1 * 2j * np.pi * np.outer(np.arange(n1), np.arange(n1)) / n1)
    w2 = np.exp(sign2 * 2j * np.pi * np.outer(np.arange(n2), np.arange(n2)) / n2)
    return w1.T @ x @ w2


def brute_qp_convolve(f: QSignal2D, g: QSignal2D, cfg) -> QSignal2D:
    """Scalar-loop evaluation of the chirp-weighted circular convolution."""
    n1, n2 = f.shape
    dt1sq = cfg.grid.dt1 ** 2
    dt2sq = cfg.grid.dt2 ** 2
    out = np.empty((n1, n2, 4))
    for x1 in range(n1):
        for x2 in range(n2):
            acc = Quaternion()
            for z1 in range(n1):
                wl = expi(-2.0 * cfg.p1.a * z1 * (z1 - x1) * dt1sq)
                for z2 in range(n2):
                    wr = expj(-2.0 * cfg.p2.a * z2 * (z2 - x2) * dt2sq)
                    acc = acc + wl * f.at(z1, z2) \
                        * g.at((x1 - z1) % n1, (x2 - z2) % n2) * wr
            out[x1, x2] = acc.to_array()
    return QSignal2D(out)


def loop_qp_convolve(f: QSignal2D, g: QSignal2D, cfg) -> QSignal2D:
    """One output sample per iteration, three vectorised ``qmul`` calls each."""
    n1, n2 = f.n1, f.n2
    dt1sq = cfg.grid.dt1 ** 2
    dt2sq = cfg.grid.dt2 ** 2
    a1, a2 = cfg.p1.a, cfg.p2.a
    z1 = np.arange(n1)
    z2 = np.arange(n2)
    fc = f.comps
    gc = g.comps
    out = np.empty((n1, n2, 4))
    wl = np.zeros((n1, 4))
    wr = np.zeros((n2, 4))
    for x1 in range(n1):
        th1 = 2.0 * a1 * z1 * (z1 - x1) * dt1sq
        wl[:, 0] = np.cos(th1)
        wl[:, 1] = -np.sin(th1)
        rows = gc[(x1 - z1) % n1]
        for x2 in range(n2):
            th2 = 2.0 * a2 * z2 * (z2 - x2) * dt2sq
            wr[:, 0] = np.cos(th2)
            wr[:, 2] = -np.sin(th2)
            gb = rows[:, (x2 - z2) % n2]
            term = qmul(qmul(qmul(wl[:, None, :], fc), gb), wr[None, :, :])
            out[x1, x2] = term.sum(axis=(0, 1))
    return QSignal2D(out)


def rand_params(rng) -> ParamSet:
    a, c, d, e = rng.uniform(-2.0, 2.0, size=4)
    b = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
    return ParamSet(a, b, c, d, e)


def rand_signal(rng, n1: int, n2: int) -> QSignal2D:
    return QSignal2D(rng.uniform(-1.0, 1.0, size=(n1, n2, 4)))


def traced_peak(fn, *args) -> int:
    """Peak bytes traced while ``fn(*args)`` runs; numpy reports its buffers."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
