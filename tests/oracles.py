"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written with scalar quaternion
arithmetic, explicit kernel matrices or, for ``loop_qp_convolve``, the
per-output ``qmul`` loop the matrix form of ``qp_convolve`` replaced,
never through the vectorised production code paths it is checking.

The references that ``dqqpft.verify`` also runs have their one copy
there and are imported under the names the tests use: the matrix DFT
(``naive_dft2``), the scalar two-sided apply (``scalar_two_sided``),
the written-out qfrft and qlct kernels, the scalar convolution sum
(``brute_qp_convolve``, with ``expi``/``expj``) and the seeded
``rand_params``/``rand_signal`` draws.  The configs, the 2x2 worked
example and the traced-memory gauge at the end are shared by the test
modules.
"""

import math
import tracemalloc

import numpy as np

from dqqpft.params import preset_qft
from dqqpft.quaternion import Quaternion, qmul
from dqqpft.signal import QSignal2D
from dqqpft.transform import TWO_SIDED, make_config
from dqqpft.verify import (
    _brute_qp_convolve as brute_qp_convolve,
    _expi as expi,
    _expj as expj,
    _naive_dft2 as naive_dft2,
    _qfrft_kernel as qfrft_kernel,
    _qlct_kernel as qlct_kernel,
    _rand_params as rand_params,
    _rand_signal as rand_signal,
    _scalar_sandwich as scalar_two_sided,
)

# the 2x2 worked example: its spectrum under qft, energy 3150 on both sides
EXAMPLE_IN = [[35.0, 30.0], [25.0, 20.0]]
EXAMPLE_OUT = [[55.0, 5.0], [10.0, 0.0]]


def qft_cfg(n1, n2):
    p1, p2 = preset_qft()
    return make_config(p1, p2, n1, n2)


def rand_cfg(rng, n1, n2, side=TWO_SIDED):
    """Random config drawn as params, params, dt1, dt2."""
    return make_config(rand_params(rng), rand_params(rng), n1, n2,
                       rng.uniform(0.25, 2.0), rng.uniform(0.25, 2.0), side)


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


def traced_peak(fn, *args) -> int:
    """Peak bytes traced while ``fn(*args)`` runs; numpy reports its buffers."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
