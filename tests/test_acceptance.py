"""End-to-end acceptance suite: one criterion per test, one line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from dqqpft.bench import run_bench
from dqqpft.fast import (
    _fft2_raw,
    dqft2_via_fft,
    forward_fast,
    make_plan,
    modulation_rhs,
    translation_rhs,
)
from dqqpft.params import ParamSet, preset_qfrft, preset_qft, preset_qlct
from dqqpft.qconv import conv_theorem_check, qp_convolve
from dqqpft.signal import QSignal2D, max_deviation, rel_deviation
from dqqpft.transform import (
    circular_shift,
    forward_direct,
    inverse_direct,
    make_config,
    modulated_signal,
)
from oracles import (
    EXAMPLE_IN,
    EXAMPLE_OUT,
    brute_qp_convolve,
    naive_dft2,
    qfrft_kernel,
    qlct_kernel,
    rand_cfg,
    rand_params,
    rand_signal,
    scalar_two_sided,
)

CORPUS_SIZES = ((2, 2), (4, 4), (6, 10), (8, 8), (16, 16))
DRAWS_PER_SIZE = 200


def _pass(num: int, name: str, extra: str = ""):
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:02d} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(20260809)
    draws = []
    for n1, n2 in CORPUS_SIZES:
        for _ in range(DRAWS_PER_SIZE):
            cfg = rand_cfg(rng, n1, n2)
            draws.append((cfg, make_plan(cfg), rand_signal(rng, n1, n2)))
    return draws


def test_criterion_01_example_reproduction():
    p1, p2 = preset_qft()
    cfg = make_config(p1, p2, 2, 2, 1.0, 1.0)
    plan = make_plan(cfg)
    f = QSignal2D.from_components(EXAMPLE_IN)
    want = np.array(EXAMPLE_OUT)
    for runner in (lambda: forward_direct(f, cfg), lambda: forward_fast(f, plan)):
        F = runner()  # warm-up, also the correctness check
        np.testing.assert_allclose(F.w, want, atol=1e-12)
        np.testing.assert_allclose(F.comps[..., 1:], 0, atol=1e-12)
        best = float("inf")
        for _ in range(20):
            t0 = time.perf_counter()
            runner()
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3, f"2x2 transform took {best * 1e3:.3f} ms"
    _pass(1, "example reproduction, direct and fast, under 1 ms")


def test_criterion_02_fast_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    worst = 0.0
    for cfg, plan, f in corpus:
        worst = max(worst, rel_deviation(forward_fast(f, plan), forward_direct(f, cfg)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"fast vs direct relative deviation {worst:.3e}"
    assert elapsed < 30.0, f"corpus sweep took {elapsed:.1f} s"
    _pass(2, "fast path matches direct on 1000 random draws",
          f"max rel dev {worst:.2e}, {elapsed:.1f} s")


def test_criterion_03_roundtrip(corpus):
    worst = 0.0
    for cfg, _, f in corpus:
        worst = max(worst, rel_deviation(inverse_direct(forward_direct(f, cfg), cfg), f))
    assert worst <= 1e-10, f"roundtrip deviation {worst:.3e}"
    _pass(3, "inverse of forward is identity on the corpus", f"max rel dev {worst:.2e}")


def test_criterion_04_energy_preservation(corpus):
    worst = 0.0
    for cfg, _, f in corpus:
        ef = f.energy()
        worst = max(worst, abs(forward_direct(f, cfg).energy() - ef) / ef)
    assert worst <= 1e-10, f"energy drift {worst:.3e}"
    # worked example: 3150 on both sides of the transform
    assert QSignal2D.from_components(EXAMPLE_IN).energy() == 3150.0
    assert QSignal2D.from_components(EXAMPLE_OUT).energy() == 3150.0
    # the 1/(N1*N2)-scaled reading of the energy identity does not hold:
    # the measured ratio is 1, as verify's energy-preservation asserts
    _pass(4, "spectrum energy equals signal energy", f"max rel drift {worst:.2e}")


def test_criterion_05_special_case_collapse():
    rng = np.random.default_rng(5)
    worst_qft = 0.0
    for _ in range(25):
        n1, n2 = (int(v) for v in rng.integers(2, 17, size=2))
        p1, p2 = preset_qft()
        cfg = make_config(p1, p2, n1, n2)
        f = rand_signal(rng, n1, n2)
        ref = dqft2_via_fft(f) * (1.0 / math.sqrt(n1 * n2))
        worst_qft = max(worst_qft, rel_deviation(forward_direct(f, cfg), ref))
    assert worst_qft <= 1e-12

    worst_frft = 0.0
    worst_lct = 0.0
    for _ in range(4):
        n1, n2 = (int(v) for v in rng.integers(2, 9, size=2))
        dt1, dt2 = rng.uniform(0.5, 1.5, size=2)
        f = rand_signal(rng, n1, n2)

        th1, th2 = rng.uniform(0.3, 2.8, size=2)
        cfg = make_config(*preset_qfrft(th1, th2), n1, n2, dt1, dt2)
        ref = scalar_two_sided(f, qfrft_kernel(th1, n1, dt1), qfrft_kernel(th2, n2, dt2))
        worst_frft = max(worst_frft, rel_deviation(forward_direct(f, cfg), ref))

        abd1 = (rng.uniform(-2, 2), rng.uniform(0.3, 2) * rng.choice([-1, 1]), rng.uniform(-2, 2))
        abd2 = (rng.uniform(-2, 2), rng.uniform(0.3, 2) * rng.choice([-1, 1]), rng.uniform(-2, 2))
        cfg = make_config(*preset_qlct(abd1, abd2), n1, n2, dt1, dt2)
        ref = scalar_two_sided(f, qlct_kernel(*abd1, n1, dt1), qlct_kernel(*abd2, n2, dt2))
        worst_lct = max(worst_lct, rel_deviation(forward_direct(f, cfg), ref))
    assert worst_frft <= 1e-12
    assert worst_lct <= 1e-12
    _pass(5, "qft/qfrft/qlct parameter choices match independent oracles",
          f"devs {worst_qft:.1e}/{worst_frft:.1e}/{worst_lct:.1e}")


def test_criterion_06_modulation_identity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for n1 in range(2, 9):
        for n2 in range(2, 9):
            cfg = rand_cfg(rng, n1, n2)
            f = rand_signal(rng, n1, n2)
            e1, e2 = int(rng.integers(0, n1)), int(rng.integers(0, n2))
            lhs = forward_direct(modulated_signal(f, e1, e2), cfg)
            worst = max(worst, rel_deviation(lhs, modulation_rhs(f, cfg, e1, e2)))
    assert worst <= 1e-10, f"modulation deviation {worst:.3e}"
    _pass(6, "modulation identity on every size up to 8x8", f"max rel dev {worst:.2e}")


def test_criterion_07_translation_identity():
    rng = np.random.default_rng(7)
    worst_flat = 0.0
    worst_pad = 0.0
    diag = 0.0
    for _ in range(30):
        n1, n2 = (int(v) for v in rng.integers(3, 9, size=2))
        k1, k2 = int(rng.integers(0, n1)), int(rng.integers(0, n2))
        f = rand_signal(rng, n1, n2)

        q1, q2 = rand_params(rng), rand_params(rng)
        flat = make_config(ParamSet(0.0, q1.b, q1.c, 0.0, q1.e),
                           ParamSet(0.0, q2.b, q2.c, 0.0, q2.e), n1, n2)
        lhs = forward_direct(circular_shift(f, k1, k2), flat)
        worst_flat = max(worst_flat, rel_deviation(lhs, translation_rhs(f, flat, k1, k2)))

        cfg = rand_cfg(rng, n1, n2)
        comps = np.array(f.comps)
        if k1:
            comps[n1 - k1:, :] = 0.0
        if k2:
            comps[:, n2 - k2:] = 0.0
        fp = QSignal2D(comps)
        lhs = forward_direct(circular_shift(fp, k1, k2), cfg)
        worst_pad = max(worst_pad, rel_deviation(lhs, translation_rhs(fp, cfg, k1, k2)))

        # chirped wrap-around case: measured only, never asserted
        lhs = forward_direct(circular_shift(f, k1, k2), cfg)
        diag = max(diag, rel_deviation(lhs, translation_rhs(f, cfg, k1, k2)))
    assert worst_flat <= 1e-10
    assert worst_pad <= 1e-10
    _pass(7, "translation identity in its two valid regimes",
          f"devs {worst_flat:.2e}/{worst_pad:.2e}; chirped circular diagnostic {diag:.2e} not asserted")


def test_criterion_08_convolution():
    rng = np.random.default_rng(8)
    # unit impulse is a two-sided identity, exactly
    for _ in range(4):
        n1, n2 = (int(v) for v in rng.integers(2, 6, size=2))
        cfg = rand_cfg(rng, n1, n2)
        f = rand_signal(rng, n1, n2)
        dl = np.zeros((n1, n2, 4))
        dl[0, 0, 0] = 1.0
        dsig = QSignal2D(dl)
        np.testing.assert_array_equal(qp_convolve(f, dsig, cfg).comps, f.comps)
        np.testing.assert_array_equal(qp_convolve(dsig, f, cfg).comps, f.comps)

    # zero time-chirp case equals a plain circular convolution
    worst_circ = 0.0
    for _ in range(4):
        n1, n2 = (int(v) for v in rng.integers(2, 4, size=2))
        q1, q2 = rand_params(rng), rand_params(rng)
        cfg = make_config(ParamSet(0.0, q1.b, q1.c, q1.d, q1.e),
                          ParamSet(0.0, q2.b, q2.c, q2.d, q2.e), n1, n2)
        f, g = rand_signal(rng, n1, n2), rand_signal(rng, n1, n2)
        ref = brute_qp_convolve(f, g, cfg)
        worst_circ = max(worst_circ, max_deviation(qp_convolve(f, g, cfg), ref))
    assert worst_circ <= 1e-12

    # factorisation identity in the verified regime; diagnostic elsewhere
    worst_fact = 0.0
    diag = 0.0
    for _ in range(6):
        n1, n2 = (int(v) for v in rng.integers(2, 6, size=2))
        q1, q2 = rand_params(rng), rand_params(rng)
        cfg = make_config(ParamSet(0.0, q1.b, q1.c, 0.0, q1.e),
                          ParamSet(0.0, q2.b, q2.c, 0.0, q2.e), n1, n2,
                          rng.uniform(0.25, 2.0), rng.uniform(0.25, 2.0))
        comps = rng.uniform(-1, 1, size=(n1, n2, 4))
        comps[..., 2:] = 0.0
        fc = QSignal2D(comps)
        g = inverse_direct(QSignal2D.from_components(rng.uniform(-1, 1, size=(n1, n2))), cfg)
        worst_fact = max(worst_fact, conv_theorem_check(fc, g, cfg).max_abs_deviation)
        free = rand_cfg(rng, n1, n2)
        diag = max(diag, conv_theorem_check(rand_signal(rng, n1, n2),
                                            rand_signal(rng, n1, n2), free).max_rel_deviation)
    assert worst_fact <= 1e-10
    _pass(8, "convolution identities and verified-regime factorisation",
          f"circ {worst_circ:.1e}, fact {worst_fact:.1e}; general diagnostic {diag:.2e} not asserted")


def test_criterion_09_fft_vs_naive_dft_all_sizes():
    rng = np.random.default_rng(9)
    worst = 0.0
    for n1 in range(1, 17):
        for n2 in range(1, 17):
            x = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
            for sign1, sign2 in [(-1, -1), (-1, 1), (1, -1), (1, 1)]:
                got = _fft2_raw(x, sign1, sign2)
                ref = naive_dft2(x, sign1, sign2)
                worst = max(worst, float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))))
    assert worst <= 1e-11, f"fft deviation {worst:.3e}"
    _pass(9, "fft matches the naive DFT on every size pair up to 16, every sign pair",
          f"max rel dev {worst:.2e}")


def test_criterion_10_fast_path_speedup():
    t0 = time.perf_counter()
    rows = run_bench(sizes=(16, 32, 64), repeats=3)
    elapsed = time.perf_counter() - t0
    at64 = rows[-1]
    assert at64.size == 64
    assert at64.speedup >= 10.0, f"speedup at 64x64 only {at64.speedup:.1f}x"
    assert elapsed < 60.0, f"bench took {elapsed:.1f} s"
    _pass(10, "fast path at least 10x faster at 64x64",
          f"{at64.speedup:.0f}x, bench {elapsed:.1f} s")
