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
``rand_params``/``rand_signal``/``rand_cfg`` draws, and the written-out
float64 kernel phase (``axis_phase``) with its 1D loop
(``loop_dqpft_1d``).  The configs, the 2x2 worked example and the
traced-memory gauge at the end are shared by the test modules.

``exact_phase_tables``/``exact_transform_bins`` are the large-N
reference: phases in 60-digit decimal, reduced mod 2*pi before they are
rounded, and a separable O(N1*N2) sum per output bin in numpy complex
arithmetic, so the fast path can be checked at sizes where the scalar
references would take hours.
"""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np

from dqqpft.params import preset_qft
from dqqpft.quaternion import Quaternion, qmul
from dqqpft.signal import QSignal2D
from dqqpft.transform import make_config
from dqqpft.verify import (
    _brute_qp_convolve as brute_qp_convolve,
    _expi as expi,
    _expj as expj,
    _loop_dqpft_1d as loop_dqpft_1d,
    _naive_dft2 as naive_dft2,
    _qfrft_kernel as qfrft_kernel,
    _qlct_kernel as qlct_kernel,
    _rand_cfg as rand_cfg,
    _rand_params as rand_params,
    _rand_signal as rand_signal,
    _ref_axis_phase as axis_phase,
    _scalar_sandwich as scalar_two_sided,
)

# the 2x2 worked example: its spectrum under qft, energy 3150 on both sides
EXAMPLE_IN = [[35.0, 30.0], [25.0, 20.0]]
EXAMPLE_OUT = [[55.0, 5.0], [10.0, 0.0]]


def qft_cfg(n1, n2):
    p1, p2 = preset_qft()
    return make_config(p1, p2, n1, n2)


def brute_forward(f: QSignal2D, cfg) -> QSignal2D:
    """Four-nested-loop evaluation of the defining transform sum."""
    g = cfg.grid
    du1, du2 = cfg.du1, cfg.du2
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


def brute_inverse(F: QSignal2D, cfg) -> QSignal2D:
    """Four-nested-loop inverse: conjugated kernels, summed over frequency.

    The two-sided inverse keeps the i-factor on the left and the j-factor
    on the right; a one-sided inverse multiplies the conjugated kernel
    product in reversed order, j-factor first, on the same side.
    """
    g = cfg.grid
    du1, du2 = cfg.du1, cfg.du2
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


_PI60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def exact_phase_tables(p, n, dt):
    """Both sides of an axis's kernel phase at every index, from 60-digit decimal.

    Returns float arrays of a*x^2*dt^2 + d*x*dt and c*w^2*du^2 + e*w*du
    for x, w = 0..n-1, each reduced mod 2*pi in decimal before rounding,
    with du = 2*pi*b/(n*dt) derived in decimal from its definition.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        two_pi = 2 * _PI60
        a, b, c, d, e = (Decimal(v) for v in p.as_tuple())
        h = Decimal(dt)
        du = two_pi * b / (n * h)
        time = [float((a * x * x * h * h + d * x * h) % two_pi) for x in range(n)]
        freq = [float((c * w * w * du * du + e * w * du) % two_pi) for w in range(n)]
    return np.array(time), np.array(freq)


def exact_transform_bins(comps, cfg, bins, sign):
    """The transform (sign -1) or its inverse (sign +1) at each (k1, k2) of ``bins``.

    Sums exp(sign*i*ph1) * q * exp(sign*j*ph2) / sqrt(N1*N2) over the
    other index, with ph from ``exact_phase_tables`` and the DFT term
    2*pi*(x*w mod N)/N.  With q = u + v*j, X = e^{i*alpha}*u and
    Y = e^{i*alpha}*v, (X + Y*j) * e^{j*beta} is
    (X*cos(beta) - Y*sin(beta)) + (X*sin(beta) + Y*cos(beta))*j.
    Returns a (len(bins), 4) component array.
    """
    g = cfg.grid
    tables = [exact_phase_tables(p, n, dt)
              for p, n, dt in ((cfg.p1, g.n1, g.dt1), (cfg.p2, g.n2, g.dt2))]
    uv = comps.view(np.complex128)
    u, v = uv[..., 0], uv[..., 1]
    out = np.empty((len(bins), 2), dtype=np.complex128)
    for row, k in enumerate(bins):
        ph = []
        for (time, freq), n, kk in zip(tables, (g.n1, g.n2), k):
            idx = np.arange(n)
            dft = 2.0 * math.pi * (idx * kk % n) / n
            # forward: sum over x at frequency k; inverse: sum over w at sample k
            ph.append(time + dft + freq[kk] if sign < 0 else time[kk] + dft + freq)
        alpha, beta = sign * ph[0], sign * ph[1]
        cb, sb = np.cos(beta), np.sin(beta)
        rot = np.exp(1j * alpha)
        out[row, 0] = rot @ (u @ cb - v @ sb)
        out[row, 1] = rot @ (u @ sb + v @ cb)
    return out.view(np.float64) / math.sqrt(g.n1 * g.n2)


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
