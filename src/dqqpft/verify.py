"""Seeded property suite: asserted invariants plus diagnostic deviations.

Every property draws its own inputs from one seeded generator, measures
a worst-case deviation and compares it against a pinned tolerance.
Identities that do not hold in general (the convolution theorem where
a != 0 or d != 0, chirped circular translations) are reported as
diagnostics: their deviations are printed but never counted as failures.
The conjugate decomposition is an exact identity on every signal and is
asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fast import (
    _fft2_raw,
    conjugate_transform_decomposition,
    dqft2_via_fft,
    dqpft_1d,
    forward_fast,
    inverse_fast,
    make_plan,
    modulation_rhs,
    translation_rhs,
)
from .params import ParamSet, _freq_step, preset_qfrft, preset_qft, preset_qlct
from .qconv import conv_theorem_check, qp_convolve
from .quaternion import J, Quaternion
from .signal import QSignal2D, max_deviation, rel_deviation
from .transform import (
    LEFT_SIDED,
    RIGHT_SIDED,
    TWO_SIDED,
    _sandwich,
    circular_shift,
    forward_direct,
    inverse_direct,
    left_kernel,
    make_config,
    modulated_signal,
)

__all__ = ["PropertyResult", "run_verify", "all_passed", "format_report"]


@dataclass
class PropertyResult:
    name: str
    max_dev: float
    tol: float | None = None
    note: str = ""

    @property
    def diagnostic(self) -> bool:
        return self.tol is None

    @property
    def passed(self) -> bool | None:
        if self.tol is None:
            return None
        return self.max_dev <= self.tol


def _rand_params(rng) -> ParamSet:
    a, c, d, e = rng.uniform(-2.0, 2.0, size=4)
    b = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
    return ParamSet(a, b, c, d, e)


def _rand_signal(rng, n1: int, n2: int) -> QSignal2D:
    return QSignal2D(rng.uniform(-1.0, 1.0, size=(n1, n2, 4)))


def _rand_cfg(rng, n1: int, n2: int, side=TWO_SIDED):
    """Random config drawn as params, params, dt1, dt2."""
    p1, p2 = _rand_params(rng), _rand_params(rng)
    dt1, dt2 = rng.uniform(0.25, 2.0, size=2)
    return make_config(p1, p2, n1, n2, dt1, dt2, side)


def _naive_dft2(x: np.ndarray, sign1: int, sign2: int) -> np.ndarray:
    n1, n2 = x.shape
    w1 = np.exp(sign1 * 2j * np.pi * np.outer(np.arange(n1), np.arange(n1)) / n1)
    w2 = np.exp(sign2 * 2j * np.pi * np.outer(np.arange(n2), np.arange(n2)) / n2)
    return w1.T @ x @ w2


def _scalar_sandwich(sig: QSignal2D, k1: np.ndarray, k2: np.ndarray) -> QSignal2D:
    """Reference two-sided apply with scalar quaternion arithmetic.

    k1 holds the i-complex left kernel, k2 the cos/sin bookkeeping of the
    j-complex right kernel, both indexed (sample, frequency).
    """
    n1, n2 = sig.shape
    out = np.empty((n1, n2, 4))
    for w1 in range(n1):
        for w2 in range(n2):
            acc = Quaternion()
            for x1 in range(n1):
                lk = Quaternion(k1[x1, w1].real, k1[x1, w1].imag, 0.0, 0.0)
                for x2 in range(n2):
                    rk = Quaternion(k2[x2, w2].real, 0.0, k2[x2, w2].imag, 0.0)
                    acc = acc + lk * sig.at(x1, x2) * rk
            out[w1, w2] = acc.to_array()
    return QSignal2D(out)


def _oracle_kernel(alpha: float, gamma: float, n: int, dt: float, du: float) -> np.ndarray:
    """Written-out kernel exp(i*(alpha*x^2*dt^2 - 2*pi*x*w/n + gamma*w^2*du^2))/sqrt(n)."""
    xi = np.arange(n)[:, None].astype(float)
    w = np.arange(n)[None, :].astype(float)
    return np.exp(1j * (alpha * xi * xi * dt * dt
                        - 2.0 * np.pi * xi * w / n
                        + gamma * w * w * du * du)) / math.sqrt(n)


def _qfrft_kernel(theta: float, n: int, dt: float) -> np.ndarray:
    """Discrete fractional kernel written out from the angle directly."""
    half_cot = math.cos(theta) / math.sin(theta) / 2.0
    du = 2.0 * math.pi / math.sin(theta) / (n * dt)
    return _oracle_kernel(half_cot, half_cot, n, dt, du)


def _qlct_kernel(a: float, b: float, d: float, n: int, dt: float) -> np.ndarray:
    """Discrete linear-canonical kernel written out from (a, b, d) directly."""
    du = 2.0 * math.pi * (1.0 / b) / (n * dt)
    return _oracle_kernel(a / (2.0 * b), d / (2.0 * b), n, dt, du)


def _expi(theta: float) -> Quaternion:
    return Quaternion(math.cos(theta), math.sin(theta), 0.0, 0.0)


def _expj(theta: float) -> Quaternion:
    return Quaternion(math.cos(theta), 0.0, math.sin(theta), 0.0)


def _brute_qp_convolve(f: QSignal2D, g: QSignal2D, cfg) -> QSignal2D:
    """Scalar-loop evaluation of the chirp-weighted circular convolution.

    At a = 0 both chirps are the exact unit quaternion, so this is the
    plain circular convolution sum of f[z] * g[x - z].
    """
    n1, n2 = f.shape
    dt1sq = cfg.grid.dt1 ** 2
    dt2sq = cfg.grid.dt2 ** 2
    out = np.empty((n1, n2, 4))
    for x1 in range(n1):
        for x2 in range(n2):
            acc = Quaternion()
            for z1 in range(n1):
                wl = _expi(-2.0 * cfg.p1.a * z1 * (z1 - x1) * dt1sq)
                for z2 in range(n2):
                    wr = _expj(-2.0 * cfg.p2.a * z2 * (z2 - x2) * dt2sq)
                    acc = acc + wl * f.at(z1, z2) \
                        * g.at((x1 - z1) % n1, (x2 - z2) % n2) * wr
            out[x1, x2] = acc.to_array()
    return QSignal2D(out)


def _qft_oracle(f: QSignal2D) -> QSignal2D:
    """Normalised two-sided quaternion DFT from written-out kernels.

    The kernels are exp(-2*pi*i*x*w/N)/sqrt(N) on both axes; they meet
    the signal in the direct path's own contraction, ``_sandwich``.
    """
    z1, z2 = (_oracle_kernel(0.0, 0.0, n, 1.0, 0.0) for n in (f.n1, f.n2))
    return QSignal2D._adopt(_sandwich(z1, z2, f.comps, TWO_SIDED))


def _quaternion_algebra(rng, results):
    dev_norm = 0.0
    dev_cyc = 0.0
    dev_embed = 0.0
    for _ in range(300):
        p, q, r = (Quaternion(*rng.uniform(-2, 2, size=4)) for _ in range(3))
        prod = p * q
        dev_norm = max(dev_norm,
                       abs(prod.norm() - p.norm() * q.norm()) / max(prod.norm(), 1e-30))
        s0 = (p * q * r).w
        dev_cyc = max(dev_cyc, abs(s0 - (r * p * q).w), abs(s0 - (q * r * p).w))
        c = complex(*rng.uniform(-2, 2, size=2))
        lhs = Quaternion(c.real, c.imag) * J
        rhs = J * Quaternion(c.real, -c.imag)
        dev_embed = max(dev_embed, (lhs - rhs).norm())
    results.append(PropertyResult("quaternion-norm-multiplicative", dev_norm, 1e-12))
    results.append(PropertyResult("quaternion-cyclic-scalar", dev_cyc, 1e-12))
    results.append(PropertyResult("complex-embed-j-rule", dev_embed, 0.0))


def _fft_properties(rng, results):
    # every sign pair: the fast path runs (-1, +1) and (+1, -1) on p+
    signs = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    sizes = [(1, 1), (1, 4), (2, 3), (4, 4), (5, 7), (6, 10), (8, 8), (9, 3), (16, 16)]
    sizes += [tuple(rng.integers(1, 17, size=2)) for _ in range(12)]
    dev_oracle = 0.0
    dev_round = 0.0
    for n1, n2 in sizes:
        x = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
        for s1, s2 in signs:
            fwd = _fft2_raw(x, s1, s2)
            ref = _naive_dft2(x, s1, s2)
            scale = max(np.max(np.abs(ref)), 1e-30)
            dev_oracle = max(dev_oracle, float(np.max(np.abs(fwd - ref))) / scale)
            back = _fft2_raw(fwd, -s1, -s2) / (n1 * n2)
            dev_round = max(dev_round, float(np.max(np.abs(back - x))))
    results.append(PropertyResult("fft-vs-naive-dft", dev_oracle, 1e-11))
    results.append(PropertyResult("fft-roundtrip", dev_round, 1e-11))


def _kernel_modulus(rng, results):
    dev = 0.0
    for _ in range(1000):
        n1 = int(rng.integers(1, 17))
        cfg = _rand_cfg(rng, n1, int(rng.integers(1, 5)))
        xi = int(rng.integers(0, n1))
        w = int(rng.integers(0, n1))
        dev = max(dev, abs(abs(left_kernel(cfg, xi, w)) * math.sqrt(n1) - 1.0))
    results.append(PropertyResult("kernel-modulus", dev, 1e-12))


def _core_corpus(rng, results):
    fixed = [(2, 2), (4, 4), (6, 10), (8, 8), (16, 16)]
    dev_fast = dev_round = dev_round_fast = dev_energy = dev_lin = 0.0
    for i in range(200):
        if i < len(fixed):
            n1, n2 = fixed[i]
        else:
            n1, n2 = (int(v) for v in rng.integers(2, 17, size=2))
        cfg = _rand_cfg(rng, n1, n2)
        plan = make_plan(cfg)
        f = _rand_signal(rng, n1, n2)
        F = forward_direct(f, cfg)
        dev_fast = max(dev_fast, rel_deviation(forward_fast(f, plan), F))
        dev_round = max(dev_round, rel_deviation(inverse_direct(F, cfg), f))
        dev_round_fast = max(dev_round_fast, rel_deviation(inverse_fast(F, plan), f))
        ef, es = f.energy(), F.energy()
        dev_energy = max(dev_energy, abs(es - ef) / ef)
        if i % 10 == 0:
            g2 = _rand_signal(rng, n1, n2)
            al, be = rng.uniform(-2, 2, size=2)
            lhs = forward_direct(al * f + be * g2, cfg)
            rhs = al * F + be * forward_direct(g2, cfg)
            dev_lin = max(dev_lin, rel_deviation(lhs, rhs))
    results.append(PropertyResult("linearity", dev_lin, 1e-12))
    results.append(PropertyResult("fast-vs-direct", dev_fast, 1e-10))
    results.append(PropertyResult("roundtrip-direct", dev_round, 1e-10))
    results.append(PropertyResult("roundtrip-fast", dev_round_fast, 1e-10))
    # the spectrum/time energy ratio is 1: a 1/(N1*N2)-scaled reading of
    # the Plancherel identity is off by exactly that factor and does not hold
    results.append(PropertyResult("energy-preservation", dev_energy, 1e-10))


def _special_cases(rng, results):
    dev_qft = 0.0
    for _ in range(30):
        n1, n2 = (int(v) for v in rng.integers(2, 17, size=2))
        p1, p2 = preset_qft()
        cfg = make_config(p1, p2, n1, n2)
        f = _rand_signal(rng, n1, n2)
        dev_qft = max(dev_qft, rel_deviation(forward_direct(f, cfg), _qft_oracle(f)))
    results.append(PropertyResult("qft-collapse", dev_qft, 1e-12))

    dev_frft = 0.0
    for _ in range(5):
        n1, n2 = (int(v) for v in rng.integers(2, 9, size=2))
        th1, th2 = rng.uniform(0.3, 2.8, size=2)
        dt1, dt2 = rng.uniform(0.5, 1.5, size=2)
        p1, p2 = preset_qfrft(th1, th2)
        cfg = make_config(p1, p2, n1, n2, dt1, dt2)
        f = _rand_signal(rng, n1, n2)
        ref = _scalar_sandwich(f, _qfrft_kernel(th1, n1, dt1), _qfrft_kernel(th2, n2, dt2))
        dev_frft = max(dev_frft, rel_deviation(forward_direct(f, cfg), ref))
    results.append(PropertyResult("qfrft-collapse-vs-oracle", dev_frft, 1e-12))

    dev_lct = 0.0
    for _ in range(5):
        n1, n2 = (int(v) for v in rng.integers(2, 9, size=2))
        abd1 = tuple(rng.uniform(-2, 2, size=3))
        abd2 = tuple(rng.uniform(-2, 2, size=3))
        abd1 = (abd1[0], abd1[1] + (2.5 if abs(abd1[1]) < 0.2 else 0.0), abd1[2])
        abd2 = (abd2[0], abd2[1] + (2.5 if abs(abd2[1]) < 0.2 else 0.0), abd2[2])
        dt1, dt2 = rng.uniform(0.5, 1.5, size=2)
        p1, p2 = preset_qlct(abd1, abd2)
        cfg = make_config(p1, p2, n1, n2, dt1, dt2)
        f = _rand_signal(rng, n1, n2)
        ref = _scalar_sandwich(f, _qlct_kernel(*abd1, n1, dt1), _qlct_kernel(*abd2, n2, dt2))
        dev_lct = max(dev_lct, rel_deviation(forward_direct(f, cfg), ref))
    results.append(PropertyResult("qlct-collapse-vs-oracle", dev_lct, 1e-12))


def _ref_axis_phase(p: ParamSet, n: int, dt: float, du: float, xi, w) -> float:
    """The kernel phase written out in float64 from its definition."""
    return (p.a * xi * xi * dt * dt + 2.0 * math.pi * xi * w / n
            + p.c * w * w * du * du + p.d * xi * dt + p.e * w * du)


def _loop_dqpft_1d(comps: np.ndarray, p: ParamSet, dt: float) -> np.ndarray:
    """Sample-by-sample sum of q[x] * exp(-i*ph(x, w)) / sqrt(N) over an (N, 4) array."""
    n = len(comps)
    du = _freq_step(p, n, dt)
    qs = [Quaternion.from_array(q) for q in comps]
    out = np.empty((n, 4))
    for w in range(n):
        acc = Quaternion()
        for xi in range(n):
            acc = acc + qs[xi] * _expi(-_ref_axis_phase(p, n, dt, du, xi, w))
        out[w] = (acc * (1.0 / math.sqrt(n))).to_array()
    return out


def _dqpft_1d_oracle(rng, results):
    dev = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 12))
        p = _rand_params(rng)
        dt = float(rng.uniform(0.5, 1.5))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = dqpft_1d(x, p, dt)
        comps = np.zeros((n, 4))
        comps[:, 0], comps[:, 1] = x.real, x.imag
        want = _loop_dqpft_1d(comps, p, dt)
        dev = max(dev, float(np.max(np.abs(got - (want[:, 0] + 1j * want[:, 1])))))
    results.append(PropertyResult("dqpft1d-vs-loop", dev, 1e-12))


def _theorem_checks(rng, results):
    dev_mod = 0.0
    for _ in range(40):
        n1, n2 = (int(v) for v in rng.integers(2, 9, size=2))
        cfg = _rand_cfg(rng, n1, n2)
        f = _rand_signal(rng, n1, n2)
        e1 = int(rng.integers(0, n1))
        e2 = int(rng.integers(0, n2))
        lhs = forward_direct(modulated_signal(f, e1, e2), cfg)
        dev_mod = max(dev_mod, rel_deviation(lhs, modulation_rhs(f, cfg, e1, e2)))
    results.append(PropertyResult("modulation-identity", dev_mod, 1e-10))

    dev_circ = 0.0
    dev_pad = 0.0
    dev_wrap = 0.0
    for _ in range(30):
        n1, n2 = (int(v) for v in rng.integers(3, 9, size=2))
        k1 = int(rng.integers(0, n1))
        k2 = int(rng.integers(0, n2))
        f = _rand_signal(rng, n1, n2)

        # circular shifts need the time-side phase to be N-periodic: a = d = 0
        flat1, flat2 = _rand_params(rng), _rand_params(rng)
        p1 = ParamSet(0.0, flat1.b, flat1.c, 0.0, flat1.e)
        p2 = ParamSet(0.0, flat2.b, flat2.c, 0.0, flat2.e)
        cfg0 = make_config(p1, p2, n1, n2, *rng.uniform(0.25, 2.0, size=2))
        lhs = forward_direct(circular_shift(f, k1, k2), cfg0)
        dev_circ = max(dev_circ, rel_deviation(lhs, translation_rhs(f, cfg0, k1, k2)))

        # full parameter sets: keep the shifted support away from the wrap
        cfg = _rand_cfg(rng, n1, n2)
        comps = np.array(f.comps)
        comps[n1 - k1:, :] = 0.0  # an empty slice at k = 0
        comps[:, n2 - k2:] = 0.0
        fpad = QSignal2D(comps)
        lhs = forward_direct(circular_shift(fpad, k1, k2), cfg)
        dev_pad = max(dev_pad, rel_deviation(lhs, translation_rhs(fpad, cfg, k1, k2)))

        lhs = forward_direct(circular_shift(f, k1, k2), cfg)
        dev_wrap = max(dev_wrap, rel_deviation(lhs, translation_rhs(f, cfg, k1, k2)))
    results.append(PropertyResult("translation-circular-zero-chirp", dev_circ, 1e-10))
    results.append(PropertyResult("translation-nonwrapping-support", dev_pad, 1e-10))
    results.append(PropertyResult(
        "translation-circular-chirped", dev_wrap, None,
        note="wrapped chirped shifts are outside the identity's hypotheses"))

    dev_pure = 0.0
    dev_genl = 0.0
    for _ in range(25):
        n1, n2 = (int(v) for v in rng.integers(2, 9, size=2))
        cfg = _rand_cfg(rng, n1, n2)
        comps = rng.uniform(-1, 1, size=(n1, n2, 4))
        comps[..., 3] = 0.0
        f = QSignal2D(comps)
        got = conjugate_transform_decomposition(f, cfg)
        want = forward_direct(f.conjugate(), cfg)
        dev_pure = max(dev_pure, rel_deviation(got, want))
        fq = _rand_signal(rng, n1, n2)
        dev_genl = max(dev_genl, rel_deviation(conjugate_transform_decomposition(fq, cfg),
                                               forward_direct(fq.conjugate(), cfg)))
    results.append(PropertyResult("conjugate-pure-components", dev_pure, 1e-10))
    results.append(PropertyResult("conjugate-general", dev_genl, 1e-10))


def _convolution_checks(rng, results):
    dev_delta = 0.0
    for _ in range(10):
        n1, n2 = (int(v) for v in rng.integers(2, 6, size=2))
        cfg = _rand_cfg(rng, n1, n2)
        f = _rand_signal(rng, n1, n2)
        delta = np.zeros((n1, n2, 4))
        delta[0, 0, 0] = 1.0
        dsig = QSignal2D(delta)
        dev_delta = max(dev_delta, max_deviation(qp_convolve(f, dsig, cfg), f))
        dev_delta = max(dev_delta, max_deviation(qp_convolve(dsig, f, cfg), f))
    results.append(PropertyResult("convolution-delta-identity", dev_delta, 0.0))

    dev_circ = 0.0
    for _ in range(8):
        n1, n2 = (int(v) for v in rng.integers(2, 5, size=2))
        flat1, flat2 = _rand_params(rng), _rand_params(rng)
        p1 = ParamSet(0.0, flat1.b, flat1.c, flat1.d, flat1.e)
        p2 = ParamSet(0.0, flat2.b, flat2.c, flat2.d, flat2.e)
        cfg = make_config(p1, p2, n1, n2)
        f = _rand_signal(rng, n1, n2)
        g = _rand_signal(rng, n1, n2)
        dev_circ = max(dev_circ, rel_deviation(qp_convolve(f, g, cfg),
                                               _brute_qp_convolve(f, g, cfg)))
    results.append(PropertyResult("convolution-zero-chirp-vs-oracle", dev_circ, 1e-12))

    dev_fact = 0.0
    dev_gen = 0.0
    for _ in range(12):
        n1, n2 = (int(v) for v in rng.integers(2, 7, size=2))
        p1, p2 = (ParamSet(0.0, q.b, q.c, 0.0, q.e) for q in map(_rand_params, (rng, rng)))
        cfg = make_config(p1, p2, n1, n2, *rng.uniform(0.25, 2.0, size=2))
        f, g = _rand_signal(rng, n1, n2), _rand_signal(rng, n1, n2)
        dev_fact = max(dev_fact, conv_theorem_check(f, g, cfg).max_rel_deviation)

        cfg2 = _rand_cfg(rng, n1, n2)
        rep = conv_theorem_check(_rand_signal(rng, n1, n2), _rand_signal(rng, n1, n2), cfg2)
        dev_gen = max(dev_gen, rep.max_rel_deviation)
    results.append(PropertyResult("convolution-factorisation-verified-regime", dev_fact, 1e-10))
    results.append(PropertyResult(
        "convolution-factorisation-general", dev_gen, None,
        note="a != 0 or d != 0 breaks the identity; not asserted"))


def _fast_internals(rng, results):
    dev = 0.0
    for _ in range(30):
        n1, n2 = (int(v) for v in rng.integers(2, 17, size=2))
        psi = _rand_signal(rng, n1, n2)
        ref = _qft_oracle(psi) * math.sqrt(n1 * n2)
        dev = max(dev, rel_deviation(dqft2_via_fft(psi), ref))
    results.append(PropertyResult("dqft2-via-fft-vs-direct", dev, 1e-10))


def _sided_agreement(rng, results):
    dev = 0.0
    for _ in range(12):
        n1, n2 = (int(v) for v in rng.integers(2, 9, size=2))
        base = _rand_cfg(rng, n1, n2)
        f = QSignal2D.from_components(rng.uniform(-1, 1, size=(n1, n2)))
        ref = forward_direct(f, base)
        for side in (LEFT_SIDED, RIGHT_SIDED):
            cfg = make_config(base.p1, base.p2, n1, n2, base.grid.dt1, base.grid.dt2, side)
            dev = max(dev, rel_deviation(forward_direct(f, cfg), ref))
    results.append(PropertyResult("sided-agree-on-real-signals", dev, 1e-12))


def run_verify(seed: int = 42) -> list[PropertyResult]:
    """Run the whole suite with one seeded generator; deterministic output."""
    rng = np.random.default_rng(seed)
    results: list[PropertyResult] = []
    _quaternion_algebra(rng, results)
    _fft_properties(rng, results)
    _kernel_modulus(rng, results)
    _core_corpus(rng, results)
    _special_cases(rng, results)
    _dqpft_1d_oracle(rng, results)
    _theorem_checks(rng, results)
    _convolution_checks(rng, results)
    _fast_internals(rng, results)
    _sided_agreement(rng, results)
    return results


def all_passed(results: list[PropertyResult]) -> bool:
    return all(r.passed for r in results if not r.diagnostic)


def format_report(results: list[PropertyResult]) -> str:
    lines = []
    for r in results:
        if r.diagnostic:
            note = f"  ({r.note})" if r.note else ""
            lines.append(f"DIAGNOSTIC {r.name} max_dev={r.max_dev:.3e}{note}")
        else:
            state = "PASS" if r.passed else "FAIL"
            lines.append(f"PROPERTY {r.name} {state} max_dev={r.max_dev:.3e}")
    lines.append("RESULT " + ("PASS" if all_passed(results) else "FAIL"))
    return "\n".join(lines)
