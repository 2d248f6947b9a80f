"""Quadratic-phase convolution and its convolution theorem.

The convolution weights each term of a circular convolution with the
time chirps exp(-2i*a1*z1*(z1-x1)*dt1^2) on the left of f and
exp(-2j*a2*z2*(z2-x2)*dt2^2) on the right of g, which is exactly what
makes the cross terms of the transform kernels cancel; both phases are
``transform._conv_phase``.  ``qp_convolve`` evaluates that sum in full,
O((N1*N2)^2) flops in O(N1*N2) memory, and a unit impulse as either
operand reproduces the other bit for bit (see its docstring).
``conv_theorem_rhs`` gives the spectrum of the result from the spectra
of f and g.  It is an identity for any f and g under one condition,
a = d = 0 on both axes; ``conv_theorem_check`` reports the deviation and
never enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fast import _dft_planes, _scale, forward_fast, make_plan
from .signal import QSignal2D, max_deviation, rel_deviation
from .transform import TransformConfig, _check_dims, _chirp_join, _conv_phase

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
    products over the pair q = u + v*j (u = w + x*i, v = y + z*i).  In
    that form the left i-chirp scales u and v alike, the right j-chirp
    c - s*j maps (u, v) to (c*u + s*v, c*v - s*u), and p*q has the parts
    p_u*q_u - p_v*conj(q_v) and p_u*q_v + p_v*conj(q_u).  For each output
    row x1 and each block of columns m = (x2 - z2) mod N2, one matrix
    product sums in the order k = (x1 - z1) mod N1: rows k of g against
    the chirped rows z1 = (x1 - k) mod N1 of f.  So a block's g enters
    every step as the same matrix, and the rows of f as one contiguous
    window of a copy reversed and doubled once per call.  The right chirp
    then weights each partial sum S[m, z2] and ``np.bincount`` adds it
    into column (z2 + m) mod N2; the first block writes the row of the
    output and later blocks add to it.  Blocks are min(N2, 2*N1) columns
    wide and the left chirp is built for min(N1, 4*N2) rows at a time,
    the widest for which no buffer holds more than 4*N1*N2 complex
    entries: the block of g holds 4*N1*width, S holds 2*width*N2, the
    doubled f 4*N1*N2 and the chirp table N1 per row.  So when blocks
    split N2 one chunk holds every row, and when chunks split N1 one
    block holds every column.  Both chirps are evaluated per element by
    ``_conv_phase`` at every (z, x), whatever the order.  With a
    unit impulse as either operand every sum has one nonzero term,
    weighted by exactly cos(0) = 1 and sin(0) = 0, and every other term
    is an exact zero, so the result reproduces the other operand bit for
    bit in any summation order.
    """
    _check_pair(f, g, cfg)
    n1, n2 = f.n1, f.n2
    z2 = np.arange(n2)
    # the (w, x, y, z) axis read as the complex pair (u, v)
    fp = f.comps.view(np.complex128).transpose(0, 2, 1)
    gp = g.comps.view(np.complex128)
    # reversed and doubled: the n1 rows from n1-1-x1 on are z1 = (x1 - k) mod n1
    frev = np.concatenate((fp[::-1], fp[::-1]))
    lhs = np.empty((n1, 2, n2), np.complex128)
    lhs2 = lhs.reshape(2 * n1, n2)
    out = np.empty((n1, n2, 4))
    width = min(n2, 2 * n1)
    chunk = min(n1, 4 * n2)
    for m0 in range(0, n2, width):
        w = min(width, n2 - m0)
        x2 = (np.arange(m0, m0 + w)[:, None] + z2) % n2
        th2 = _conv_phase(cfg.p2.a, cfg.grid.dt2, z2, x2)
        # the j-chirp on each float (re, im) of S_u[m, z2] and S_v[m, z2]
        c = np.cos(th2).repeat(2, axis=1)
        s = np.sin(th2).repeat(2, axis=1)
        s = np.stack((-s, s))
        # bincount bin of each of those floats
        bins = 4 * x2.repeat(2, axis=1) + np.tile([0, 1], n2)
        bins = np.stack((bins, bins + 2)).ravel()
        gu, gv = gp[:, m0:m0 + w, 0], gp[:, m0:m0 + w, 1]
        # row (k, p) holds what f_p[(x1 - k) mod n1] multiplies into (S_u | S_v)
        gb = np.empty((n1, 2, 2, w), np.complex128)
        gb[:, 0, 0], gb[:, 0, 1] = gu, gv
        np.negative(gv.conj(), out=gb[:, 1, 0])
        np.conjugate(gu, out=gb[:, 1, 1])
        gbt = gb.reshape(2 * n1, 2 * w).T
        st = np.empty((2 * w, n2), np.complex128)
        sf = st.view(np.float64).reshape(2, w, 2 * n2)
        terms = np.empty_like(sf)
        weights = terms.reshape(-1)
        for r0 in range(0, n1, chunk):
            # the left chirp of rows x1 in [r0, r0 + chunk) at z1 = (x1 - k) mod n1
            x1 = np.arange(r0, min(r0 + chunk, n1))[:, None]
            z1 = (x1 - np.arange(n1)) % n1
            th1 = _conv_phase(cfg.p1.a, cfg.grid.dt1, z1, x1)
            alphas = (np.cos(th1) - 1j * np.sin(th1))[:, :, None, None]
            for x, alpha in enumerate(alphas, r0):
                np.multiply(alpha, frev[n1 - 1 - x:2 * n1 - 1 - x], out=lhs)
                np.matmul(gbt, lhs2, out=st)
                # (c*S_u + s*S_v, c*S_v - s*S_u), by way of sf = (-s*S_u, s*S_v)
                np.multiply(c, sf, out=terms)
                sf *= s
                terms += sf[::-1]
                row = np.bincount(bins, weights, 4 * n2).reshape(n2, 4)
                # the first block writes the row; bincount never sums to -0.0,
                # so this is the bits of 0.0 + row
                if m0:
                    out[x] += row
                else:
                    out[x] = row
    return QSignal2D._adopt(out)


def conv_theorem_rhs(f: QSignal2D, g: QSignal2D, cfg: TransformConfig) -> QSignal2D:
    """Spectrum of ``qp_convolve(f, g, cfg)``; exact for any f and g if a = d = 0.

    F+- and G+- are the plain DFTs of the pre-chirped planes of f and g
    (``_dft_planes``); R1, R2 reflect w -> -w mod N on axes 1 and 2.
    Twice the product's planes, whence the scale 1/2 into the join:

        H+ = (F+ + R2 F-) G+ + (F+ - R2 F-) conj(R1 G-)
        H- = (R2 F+ + F-) G- - (R2 F+ - F-) conj(R1 G+).
    """
    _check_pair(f, g, cfg)
    n1, n2 = cfg.grid.n1, cfg.grid.n2
    plan = make_plan(cfg)
    (fp, fm), (gp, gm) = (np.moveaxis(_dft_planes(sig.comps, (plan.pre1, plan.pre2), -1), -1, 0)
                          for sig in (f, g))
    r1, r2 = -np.arange(n1) % n1, -np.arange(n2) % n2
    r2fp, r2fm = fp[:, r2], fm[:, r2]
    planes = np.stack([(fp + r2fm) * gp + (fp - r2fm) * np.conj(gm[r1]),
                       (r2fp + fm) * gm - (r2fp - fm) * np.conj(gp[r1])], axis=-1)
    return QSignal2D._adopt(_chirp_join(planes, plan.post1, plan.post2, 0.5 * _scale(plan)))


def conv_theorem_check(f: QSignal2D, g: QSignal2D, cfg: TransformConfig, *,
                       conv: QSignal2D | None = None) -> ConvReport:
    """Compare the transform of f*g with ``conv_theorem_rhs``.

    ``conv`` is ``qp_convolve(f, g, cfg)`` when the caller already has it;
    otherwise it is computed here.  Always returns a report; it never
    raises on deviation, because the theorem is an identity only when
    a = d = 0 on both axes.
    """
    if conv is None:
        conv = qp_convolve(f, g, cfg)
    lhs = forward_fast(conv, make_plan(cfg))
    rhs = conv_theorem_rhs(f, g, cfg)
    return ConvReport(lhs, rhs, max_deviation(lhs, rhs), rel_deviation(rhs, lhs))
