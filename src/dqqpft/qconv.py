"""Quadratic-phase convolution and its spectral factorisation check.

The convolution weights each term of a circular convolution with the
time chirps exp(-2i*a1*z1*(z1-x1)*dt1^2) on the left of f and
exp(-2j*a2*z2*(z2-x2)*dt2^2) on the right of g, which is exactly what
makes the cross terms of the transform kernels cancel.  The companion
factorisation (``conv_theorem_rhs``) holds as an equality only in a
restricted regime (time chirps N-periodic, f in the i-complex subfield,
the spectrum of g real); ``conv_theorem_check`` therefore reports
deviations instead of enforcing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fast import forward_fast, make_plan
from .quaternion import qmul, qnorm_sq
from .signal import QSignal2D
from .transform import TransformConfig, _check_dims

__all__ = ["ConvReport", "qp_convolve", "conv_theorem_rhs", "conv_theorem_check"]


@dataclass(frozen=True)
class ConvReport:
    """Both sides of the factorisation identity plus their deviations."""

    lhs_spectrum: QSignal2D
    rhs_spectrum: QSignal2D
    max_abs_deviation: float
    max_rel_deviation: float

    def to_text(self) -> str:
        lines = [
            "quadratic-phase convolution factorisation check",
            f"grid              {self.lhs_spectrum.n1} x {self.lhs_spectrum.n2}",
            f"max_abs_deviation {self.max_abs_deviation:.6e}",
            f"max_rel_deviation {self.max_rel_deviation:.6e}",
        ]
        return "\n".join(lines)


def _check_pair(f: QSignal2D, g: QSignal2D, cfg: TransformConfig):
    if f.shape != g.shape:
        raise ValueError(f"operand shapes differ: {f.shape} vs {g.shape}")
    _check_dims(f, cfg)


def qp_convolve(f: QSignal2D, g: QSignal2D, cfg: TransformConfig) -> QSignal2D:
    """Chirp-weighted circular convolution of two quaternion signals.

    out[x] = sum_z exp(-2i*a1*z1*(z1-x1)*dt1^2) * f[z]
                 * g[(x - z) mod N] * exp(-2j*a2*z2*(z2-x2)*dt2^2)

    The second operand is indexed circularly, so the unit impulse at the
    origin is a two-sided identity.
    """
    _check_pair(f, g, cfg)
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


def conv_theorem_rhs(f: QSignal2D, g: QSignal2D, cfg: TransformConfig) -> QSignal2D:
    """Literal spectral factorisation of the quadratic-phase convolution.

    sqrt(N1*N2) * Psi_i * (sum_n u_n * Q[f_n] * Q[g]) * Psi_j with
    u_n in (1, i, j, k) ranging over the real components of f and
    Psi_i = exp(+i(c1*w1^2*du1^2 + e1*w1*du1)), Psi_j its j analogue.
    """
    _check_pair(f, g, cfg)
    g1, g2 = cfg.grid.n1, cfg.grid.n2
    plan = make_plan(cfg)
    qg = forward_fast(g, plan).comps
    units = np.eye(4)
    acc = np.zeros((g1, g2, 4))
    for n in range(4):
        comp = QSignal2D.from_real(f.comps[..., n])
        qn = forward_fast(comp, plan).comps
        acc = acc + qmul(qmul(units[n], qn), qg)
    w1 = np.arange(g1)
    w2 = np.arange(g2)
    b1 = cfg.p1.c * w1 * w1 * cfg.grid.du1 ** 2 + cfg.p1.e * w1 * cfg.grid.du1
    b2 = cfg.p2.c * w2 * w2 * cfg.grid.du2 ** 2 + cfg.p2.e * w2 * cfg.grid.du2
    psi_i = np.zeros((g1, 4))
    psi_i[:, 0] = np.cos(b1)
    psi_i[:, 1] = np.sin(b1)
    psi_j = np.zeros((g2, 4))
    psi_j[:, 0] = np.cos(b2)
    psi_j[:, 2] = np.sin(b2)
    out = qmul(qmul(psi_i[:, None, :], acc), psi_j[None, :, :])
    return QSignal2D(out * math.sqrt(g1 * g2))


def conv_theorem_check(f: QSignal2D, g: QSignal2D, cfg: TransformConfig) -> ConvReport:
    """Compare the transform of f*g with the factorised right-hand side.

    Always returns a report; it never raises on deviation, because the
    factorisation is only an identity in the restricted regime the
    docstring of this module describes.
    """
    lhs = forward_fast(qp_convolve(f, g, cfg), make_plan(cfg))
    rhs = conv_theorem_rhs(f, g, cfg)
    diff = float(np.sqrt(np.max(qnorm_sq(lhs.comps - rhs.comps))))
    scale = float(np.sqrt(np.max(qnorm_sq(lhs.comps))))
    rel = diff if scale == 0.0 else diff / scale
    return ConvReport(lhs, rhs, diff, rel)
