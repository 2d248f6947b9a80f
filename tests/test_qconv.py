import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqqpft.params import ParameterError, ParamSet
from dqqpft.qconv import ConvReport, conv_theorem_check, conv_theorem_rhs, qp_convolve
from dqqpft.signal import QSignal2D, max_deviation, rel_deviation
from dqqpft.transform import forward_direct, make_config
from oracles import (
    brute_qp_convolve,
    loop_qp_convolve,
    qft_cfg,
    rand_cfg,
    rand_params,
    rand_signal,
)


def delta(n1, n2):
    comps = np.zeros((n1, n2, 4))
    comps[0, 0, 0] = 1.0
    return QSignal2D(comps)


def test_delta_is_right_identity_exactly():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n1, n2 = (int(v) for v in rng.integers(2, 6, size=2))
        cfg = rand_cfg(rng, n1, n2)
        f = rand_signal(rng, n1, n2)
        got = qp_convolve(f, delta(n1, n2), cfg)
        np.testing.assert_array_equal(got.comps, f.comps)


def test_delta_is_left_identity_exactly():
    rng = np.random.default_rng(1)
    for _ in range(5):
        n1, n2 = (int(v) for v in rng.integers(2, 6, size=2))
        cfg = rand_cfg(rng, n1, n2)
        g = rand_signal(rng, n1, n2)
        got = qp_convolve(delta(n1, n2), g, cfg)
        np.testing.assert_array_equal(got.comps, g.comps)


def test_zero_chirp_equals_plain_circular_convolution():
    rng = np.random.default_rng(2)
    for _ in range(4):
        n1, n2 = (int(v) for v in rng.integers(2, 4, size=2))
        cfg = qft_cfg(n1, n2)
        f = rand_signal(rng, n1, n2)
        g = rand_signal(rng, n1, n2)
        assert max_deviation(qp_convolve(f, g, cfg), brute_qp_convolve(f, g, cfg)) < 1e-12


def test_chirped_convolution_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    for _ in range(4):
        n1, n2 = (int(v) for v in rng.integers(2, 5, size=2))
        cfg = rand_cfg(rng, n1, n2)
        f = rand_signal(rng, n1, n2)
        g = rand_signal(rng, n1, n2)
        assert max_deviation(qp_convolve(f, g, cfg), brute_qp_convolve(f, g, cfg)) < 1e-12


# blocks are min(N2, 2*N1) columns wide: 2x251 splits into 63 blocks of
# width 4, the last one 3 wide, and 3x20 into blocks of width 6, 6, 6 and 2;
# the left chirp is built for min(N1, 4*N2) rows at a time: 9x2 splits its
# rows into chunks of 8 and 1, and 17x1 into four of 4 and one of 1
BLOCK_SHAPES = [(32, 48), (48, 32), (13, 17), (1, 17), (17, 1), (2, 251), (3, 20), (9, 2)]


@pytest.mark.parametrize("n1,n2", BLOCK_SHAPES)
def test_matches_loop_oracle_at_block_splitting_shapes(n1, n2):
    rng = np.random.default_rng(n1 * 1000 + n2)
    cfg = rand_cfg(rng, n1, n2)
    assert cfg.p1.a != 0.0 and cfg.p2.a != 0.0
    f = rand_signal(rng, n1, n2)
    g = rand_signal(rng, n1, n2)
    assert rel_deviation(qp_convolve(f, g, cfg), loop_qp_convolve(f, g, cfg)) <= 1e-12


@pytest.mark.parametrize("n1,n2", BLOCK_SHAPES)
def test_delta_identities_exact_at_block_splitting_shapes(n1, n2):
    rng = np.random.default_rng(n1 * 1000 + n2 + 1)
    cfg = rand_cfg(rng, n1, n2)
    f = rand_signal(rng, n1, n2)
    np.testing.assert_array_equal(qp_convolve(f, delta(n1, n2), cfg).comps, f.comps)
    np.testing.assert_array_equal(qp_convolve(delta(n1, n2), f, cfg).comps, f.comps)


@settings(max_examples=30, deadline=None)
@given(n1=st.integers(1, 9), n2=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_matches_scalar_oracle_over_small_shapes(n1, n2, seed):
    rng = np.random.default_rng(seed)
    cfg = rand_cfg(rng, n1, n2)
    f = rand_signal(rng, n1, n2)
    g = rand_signal(rng, n1, n2)
    assert rel_deviation(qp_convolve(f, g, cfg), brute_qp_convolve(f, g, cfg)) <= 1e-12


@pytest.mark.parametrize("n1,n2", [(1, 1024), (1024, 1)])
def test_skinny_grid_memory_stays_bounded(n1, n2):
    # numpy reports its buffers to tracemalloc; an N2 x N2 (or N1 x N1)
    # intermediate would take 16 MB here
    rng = np.random.default_rng(10)
    cfg = rand_cfg(rng, n1, n2)
    f = rand_signal(rng, n1, n2)
    g = rand_signal(rng, n1, n2)
    tracemalloc.start()
    try:
        qp_convolve(f, g, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("n1,n2", [(64, 256), (256, 64)])
def test_memory_stays_linear_where_blocks_widen(n1, n2):
    # blocks of min(N2, 2*N1) columns; each buffer holds at most 4*N1*N2
    # complex entries, and the peak stays within 48*N1*N2 of them
    rng = np.random.default_rng(11)
    cfg = rand_cfg(rng, n1, n2)
    f = rand_signal(rng, n1, n2)
    g = rand_signal(rng, n1, n2)
    tracemalloc.start()
    try:
        qp_convolve(f, g, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * n1 * n2 * 16


def test_convolution_chirp_overflow_boundary():
    # 2*a*2*(2 - 0)*1 at N1 = 3, dt1 = 1: DBL_MAX/8 reaches DBL_MAX, the next double inf
    a = np.finfo(float).max / 8
    qft = ParamSet(0.0, 1.0, 0.0, 0.0, 0.0)
    cfg = make_config(ParamSet(a, 1.0, 0.0, 0.0, 0.0), qft, 3, 5)
    rng = np.random.default_rng(4)
    out = qp_convolve(rand_signal(rng, 3, 5), rand_signal(rng, 3, 5), cfg)
    assert np.isfinite(out.comps).all()
    with pytest.raises(ParameterError, match="^axis 1: convolution chirp overflows"):
        make_config(ParamSet(math.nextafter(a, math.inf), 1.0, 0.0, 0.0, 0.0), qft, 3, 5)


def test_qp_convolve_dimension_mismatch():
    rng = np.random.default_rng(4)
    cfg = rand_cfg(rng, 2, 2)
    with pytest.raises(ValueError):
        qp_convolve(rand_signal(rng, 2, 2), rand_signal(rng, 2, 3), cfg)


def test_rhs_zero_signal():
    rng = np.random.default_rng(5)
    cfg = rand_cfg(rng, 3, 3)
    out = conv_theorem_rhs(QSignal2D.zeros(3, 3), rand_signal(rng, 3, 3), cfg)
    np.testing.assert_allclose(out.comps, 0, atol=1e-12)


def test_rhs_qft_delta_complex_subfield_equals_forward():
    # with the Fourier preset and g a unit impulse, the right-hand side is
    # the spectrum of f itself
    rng = np.random.default_rng(6)
    n1, n2 = 4, 3
    cfg = qft_cfg(n1, n2)
    comps = rng.uniform(-1, 1, size=(n1, n2, 4))
    comps[..., 2:] = 0.0
    f = QSignal2D(comps)
    g = delta(n1, n2)
    lhs = forward_direct(qp_convolve(f, g, cfg), cfg)
    rhs = conv_theorem_rhs(f, g, cfg)
    assert rel_deviation(rhs, lhs) < 1e-10
    assert rel_deviation(rhs, forward_direct(f, cfg)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(n1=st.integers(1, 9), n2=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
@example(n1=33, n2=48, seed=0)
def test_factorisation_verified_regime(n1, n2, seed):
    # time chirps off (a = d = 0): the theorem holds for any quaternion f and g
    rng = np.random.default_rng(seed)
    q1, q2 = rand_params(rng), rand_params(rng)
    p1 = ParamSet(0.0, q1.b, q1.c, 0.0, q1.e)
    p2 = ParamSet(0.0, q2.b, q2.c, 0.0, q2.e)
    cfg = make_config(p1, p2, n1, n2, rng.uniform(0.25, 2.0), rng.uniform(0.25, 2.0))
    f, g = rand_signal(rng, n1, n2), rand_signal(rng, n1, n2)
    assert conv_theorem_check(f, g, cfg).max_rel_deviation <= 1e-10


def test_check_delta_delta():
    cfg = qft_cfg(2, 2)
    report = conv_theorem_check(delta(2, 2), delta(2, 2), cfg)
    assert report.max_abs_deviation < 1e-12
    # delta * delta = delta, whose spectrum is the constant 1/sqrt(N1*N2)
    np.testing.assert_allclose(report.lhs_spectrum.w, 0.5, atol=1e-12)


def test_check_general_signals_reports_without_failing():
    rng = np.random.default_rng(8)
    cfg = rand_cfg(rng, 3, 3)
    report = conv_theorem_check(rand_signal(rng, 3, 3), rand_signal(rng, 3, 3), cfg)
    assert isinstance(report, ConvReport)
    assert report.max_abs_deviation >= 0.0
    assert math.isfinite(report.max_rel_deviation)
    assert report.lhs_spectrum.shape == report.rhs_spectrum.shape == (3, 3)


def test_report_serialises_deviations_in_scientific_notation():
    rng = np.random.default_rng(9)
    cfg = rand_cfg(rng, 2, 2)
    text = conv_theorem_check(rand_signal(rng, 2, 2), rand_signal(rng, 2, 2), cfg).to_text()
    assert "max_abs_deviation" in text and "max_rel_deviation" in text
    assert "e-" in text or "e+" in text
