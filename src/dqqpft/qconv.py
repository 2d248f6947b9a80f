"""Quadratic-phase convolution and its spectral factorisation check.

The convolution weights each term of a circular convolution with the
time chirps exp(-2i*a1*z1*(z1-x1)*dt1^2) on the left of f and
exp(-2j*a2*z2*(z2-x2)*dt2^2) on the right of g, which is exactly what
makes the cross terms of the transform kernels cancel.  ``qp_convolve``
evaluates that sum in full, O((N1*N2)^2) flops in O(N1*N2) memory: a
loop over column blocks min(N1, N2) wide and over output rows, each step
one complex matrix product on the symplectic pair.  A unit impulse as
either operand still reproduces the other bit for bit (see its
docstring).  The companion factorisation (``conv_theorem_rhs``) holds as
an equality only in a restricted regime (time chirps N-periodic, f in
the i-complex subfield, the spectrum of g real); ``conv_theorem_check``
therefore reports deviations instead of enforcing them.
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

    The sum is evaluated in full, O((N1*N2)^2) flops, as complex matrix
    products over the pair q = t + u*j (t = w + x*i, u = y + z*i).  In
    that form the left i-chirp scales t and u alike, the right j-chirp
    c - s*j maps (t, u) to (c*t + s*u, c*u - s*t), and p*q has the parts
    p_t*q_t - p_u*conj(q_u) and p_t*q_u + p_u*conj(q_t).  For each output
    row x1 and each block of columns m = (x2 - z2) mod N2, one matrix
    product sums over z1 the chirped rows of f against the rows
    (x1 - z1) mod N1 of g; the right chirp then weights each partial sum
    S[z2, m] and ``np.bincount`` adds it into column (z2 + m) mod N2.
    Blocks are min(N1, N2) columns wide, so no buffer grows past a few
    times N1*N2 entries.  With a unit impulse as either operand every sum
    has one nonzero term, weighted by exactly cos(0) = 1 and sin(0) = 0,
    so the result reproduces the other operand bit for bit in any
    summation order.
    """
    _check_pair(f, g, cfg)
    n1, n2 = f.n1, f.n2
    dt1sq = cfg.grid.dt1 ** 2
    dt2sq = cfg.grid.dt2 ** 2
    a1, a2 = cfg.p1.a, cfg.p2.a
    z1 = np.arange(n1)
    z2 = np.arange(n2)[:, None]
    # the (w, x, y, z) axis read as the complex pair (t, u)
    fp = f.comps.view(np.complex128).transpose(0, 2, 1)
    gp = g.comps.view(np.complex128)
    out = np.zeros((n1, n2, 4))
    width = min(n1, n2)
    for m0 in range(0, n2, width):
        x2 = (z2 + np.arange(m0, min(m0 + width, n2))) % n2
        th2 = 2.0 * a2 * z2 * (z2 - x2) * dt2sq
        c, s = np.cos(th2), np.sin(th2)
        # bincount bin of each real component of the weighted S[z2, m]
        bins = (4 * x2[..., None] + np.arange(4)).ravel()
        gt, gu = gp[:, m0:m0 + width, 0], gp[:, m0:m0 + width, 1]
        # row (z1, p) holds what f_p[z1] multiplies into (S_t | S_u)
        gb = np.stack((np.concatenate((gt, gu), axis=1),
                       np.concatenate((-gu.conj(), gt.conj()), axis=1)), axis=1)
        for x1 in range(n1):
            th1 = 2.0 * a1 * z1 * (z1 - x1) * dt1sq
            alpha = np.cos(th1) - 1j * np.sin(th1)
            lhs = (alpha[:, None, None] * fp).reshape(2 * n1, n2)
            rhs = gb[(x1 - z1) % n1].reshape(2 * n1, -1)
            st, su = np.split(lhs.T @ rhs, 2, axis=1)
            terms = np.stack((c * st + s * su, c * su - s * st), axis=-1)
            out[x1] += np.bincount(bins, weights=terms.view(np.float64).ravel(),
                                   minlength=4 * n2).reshape(n2, 4)
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


def conv_theorem_check(f: QSignal2D, g: QSignal2D, cfg: TransformConfig, *,
                       conv: QSignal2D | None = None) -> ConvReport:
    """Compare the transform of f*g with the factorised right-hand side.

    ``conv`` is ``qp_convolve(f, g, cfg)`` when the caller already has it;
    otherwise it is computed here.  Always returns a report; it never
    raises on deviation, because the factorisation is only an identity in
    the restricted regime the docstring of this module describes.
    """
    if conv is None:
        conv = qp_convolve(f, g, cfg)
    lhs = forward_fast(conv, make_plan(cfg))
    rhs = conv_theorem_rhs(f, g, cfg)
    diff = float(np.sqrt(np.max(qnorm_sq(lhs.comps - rhs.comps))))
    scale = float(np.sqrt(np.max(qnorm_sq(lhs.comps))))
    rel = diff if scale == 0.0 else diff / scale
    return ConvReport(lhs, rhs, diff, rel)
