"""Independent output checks for the benchmark.

Nothing here imports the library: the Hamilton product, the transform's
defining sum, the quadratic-phase convolution sum and the qcsv parser are
written out again from their definitions, so a defect shared by the
library's modules cannot hide from the checks.

Phases are evaluated in 60-digit decimal arithmetic and reduced modulo
2*pi before cos/sin, so the oracle sees the float64 phase rounding the
library makes at large indices instead of sharing it.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
_TWO_PI = 2 * _PI


def ham(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of (..., 4) arrays in (w, x, y, z) order."""
    pw, px, py, pz = (p[..., n] for n in range(4))
    qw, qx, qy, qz = (q[..., n] for n in range(4))
    return np.stack([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ], axis=-1)


def _reduce(phase: Decimal) -> float:
    """phase mod 2*pi as a float in [0, 2*pi)."""
    return float(phase % _TWO_PI) % (2.0 * math.pi)


def _exp_unit(theta: np.ndarray, unit: int) -> np.ndarray:
    """Quaternions exp(-u*theta) for the imaginary unit u = i (1) or j (2)."""
    out = np.zeros(theta.shape + (4,))
    out[..., 0] = np.cos(theta)
    out[..., unit] = -np.sin(theta)
    return out


def _axis_phases(p, n: int, dt: float, w: int) -> np.ndarray:
    """Kernel phase a*x^2*dt^2 + 2*pi*x*w/n + c*w^2*du^2 + d*x*dt + e*w*du, x = 0..n-1.

    du = 2*pi*b/(n*dt) is derived in decimal from its definition.
    """
    a, b, c, d, e = (Decimal(float(v)) for v in p)
    with localcontext() as ctx:
        ctx.prec = 60
        dtd = Decimal(float(dt))
        du = _TWO_PI * b / (n * dtd)
        freq = _reduce(c * w * w * du * du + e * w * du)
        time = [_reduce(a * x * x * dtd * dtd + d * x * dtd) for x in range(n)]
    xs = np.arange(n)
    dft = 2.0 * math.pi * ((xs * w) % n) / n
    return np.asarray(time) + dft + freq


def transform_sample(f: np.ndarray, p1, p2, dt1: float, dt2: float,
                     w1: int, w2: int) -> np.ndarray:
    """F[w1, w2] = sum_x exp(-i*ph1) * f[x] * exp(-j*ph2) / sqrt(n1*n2).

    ``f`` is an (n1, n2, 4) component array; ``p1``/``p2`` are the
    (a, b, c, d, e) quintuples of the two axes.
    """
    n1, n2 = f.shape[:2]
    left = _exp_unit(_axis_phases(p1, n1, dt1, w1), 1)
    right = _exp_unit(_axis_phases(p2, n2, dt2, w2), 2)
    terms = ham(ham(left[:, None, :], f), right[None, :, :])
    return terms.sum(axis=(0, 1)) / math.sqrt(n1 * n2)


def conv_sample(f: np.ndarray, g: np.ndarray, a1: float, a2: float,
                dt1: float, dt2: float, x1: int, x2: int) -> np.ndarray:
    """Quadratic-phase convolution at (x1, x2):

    sum_z exp(-2i*a1*z1*(z1-x1)*dt1^2) * f[z] * g[(x-z) mod N]
          * exp(-2j*a2*z2*(z2-x2)*dt2^2)
    """
    n1, n2 = f.shape[:2]
    with localcontext() as ctx:
        ctx.prec = 60
        c1 = 2 * Decimal(a1) * Decimal(dt1) * Decimal(dt1)
        c2 = 2 * Decimal(a2) * Decimal(dt2) * Decimal(dt2)
        th1 = np.asarray([_reduce(c1 * (z * (z - x1))) for z in range(n1)])
        th2 = np.asarray([_reduce(c2 * (z * (z - x2))) for z in range(n2)])
    gs = g[(x1 - np.arange(n1)) % n1][:, (x2 - np.arange(n2)) % n2]
    terms = ham(ham(ham(_exp_unit(th1, 1)[:, None, :], f), gs),
                _exp_unit(th2, 2)[None, :, :])
    return terms.sum(axis=(0, 1))


def energy(q: np.ndarray) -> float:
    return float(np.sum(np.square(q)))


def max_norm(q: np.ndarray) -> float:
    return float(np.sqrt(np.max(np.sum(np.square(q), axis=-1))))


def parse_qcsv(path):
    """(n1, n2), (dt1, dt2), parameter-pair text and (n1, n2, 4) samples.

    The sample body is parsed by ``numpy.loadtxt`` straight from the file,
    so the check adds little to the process's peak memory.
    """
    header, skip = [], 0
    with open(path, encoding="ascii") as fh:
        for line in fh:
            skip += 1
            line = line.strip()
            if line and not line.startswith("#"):
                header.append(line)
                if len(header) == 3:
                    break
    n1, n2 = (int(v) for v in header[0].split(","))
    dt1, dt2 = (float(v) for v in header[1].split(","))
    flat = np.loadtxt(path, delimiter=",", comments="#", skiprows=skip, ndmin=2)
    if flat.shape != (n1 * n2, 4):
        raise ValueError(f"qcsv holds samples of shape {flat.shape}, header says {n1 * n2} x 4")
    return (n1, n2), (dt1, dt2), header[2], flat.reshape(n1, n2, 4)
