import cmath
import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqqpft.transform
from dqqpft import dqpft_1d
from dqqpft.fast import (
    conjugate_transform_decomposition,
    dqft2_via_fft,
    make_plan,
    make_psi,
    modulation_rhs,
    translation_rhs,
)
from dqqpft.params import ParameterError, ParamSet, preset_qft
from dqqpft.qconv import conv_theorem_rhs
from dqqpft.quaternion import Quaternion
from dqqpft.signal import QSignal2D, max_deviation, rel_deviation
from dqqpft.transform import (
    LEFT_SIDED,
    RIGHT_SIDED,
    TWO_SIDED,
    TransformConfig,
    _kernels,
    _pointwise_sandwich,
    circular_shift,
    forward_direct,
    inverse_direct,
    left_kernel,
    make_config,
    modulated_signal,
    right_kernel,
)
from dqqpft.verify import _qft_oracle
from oracles import (
    EXAMPLE_IN,
    EXAMPLE_OUT,
    brute_forward,
    brute_inverse,
    expi,
    expj,
    loop_dqpft_1d,
    qft_cfg,
    rand_cfg,
    rand_params,
    rand_signal,
    traced_peak,
)

# --- config ---------------------------------------------------------------

def test_config_rejects_a_hand_built_grid_with_a_bad_field():
    from dqqpft.params import Grid
    p1, p2 = preset_qft()
    with pytest.raises(ParameterError, match="n1 must be a positive integer, got 0"):
        TransformConfig(p1, p2, Grid(0, 2, 1.0, 1.0))
    with pytest.raises(ParameterError, match="dt1 must be a positive finite step, got nan"):
        TransformConfig(p1, p2, Grid(2, 2, math.nan, 1.0))


def test_config_rejects_unknown_side():
    p1, p2 = preset_qft()
    with pytest.raises(ParameterError):
        make_config(p1, p2, 2, 2, side="diagonal")


_EDGE_VALUES = (0.0, 1.0, 1e150, 1e300, 1.7e308)


def test_config_refuses_exactly_where_the_kernel_or_the_chirp_overflows():
    # a seeded draw from the edge values, signs included; the kernel entry
    # at x = w = N - 1 runs the double-double phase the config never does
    rng = np.random.default_rng(33)
    qft = ParamSet(0.0, 1.0, 0.0, 0.0, 0.0)
    seen = collections.Counter()
    for _ in range(400):
        a, c, d, e = (rng.choice(_EDGE_VALUES, 4) * rng.choice([-1.0, 1.0], 4)).tolist()
        b = float(rng.choice([1e-300, 1.0, 1e300]) * rng.choice([-1.0, 1.0]))
        dt = float(rng.choice([5e-324, 1e-310, 1.0, 1e150, 1e200]))
        n = int(rng.choice([1, 2, 3, 17]))
        p = ParamSet(a, b, c, d, e)
        axis = int(rng.integers(1, 3))
        pair, sizes, steps = (p, qft), (n, 1), (dt, 1.0)
        if axis == 2:
            pair, sizes, steps = pair[::-1], sizes[::-1], steps[::-1]
        if not np.isfinite(dqqpft.transform._kernel(p, n, dt, n - 1, n - 1)):
            refusal = "kernel phase"
        elif not math.isfinite(dqqpft.transform._conv_phase(p.a, dt, n - 1, 0)):
            refusal = "convolution chirp"
        else:
            refusal = None
        seen[refusal] += 1
        if refusal is None:
            make_config(*pair, *sizes, *steps)
            continue
        with pytest.raises(ParameterError, match=f"^axis {axis}: {refusal} overflows float64"):
            make_config(*pair, *sizes, *steps)
    assert len(seen) == 3 and min(seen.values()) >= 20, seen


def test_config_validation_runs_no_double_double_and_no_numpy(monkeypatch):
    def refuse(*args):
        raise AssertionError("building a config ran the double-double phase")

    monkeypatch.setattr(dqqpft.transform, "_mod_2pi", refuse)
    monkeypatch.setattr(dqqpft.transform, "_two_product", refuse)
    monkeypatch.setattr(dqqpft.transform, "np", None)
    p = ParamSet(0.3, -1.7, 0.1, 0.2, 0.4)
    assert make_config(p, p, 6, 10, 0.8, 1.25).du2 == 2 * math.pi * -1.7 / (10 * 1.25)
    with pytest.raises(ParameterError, match="^axis 1: kernel phase overflows float64"):
        make_config(p, p, 2, 2, 1e-310)


# --- kernels --------------------------------------------------------------

def test_kernel_at_origin_is_inverse_sqrt_n():
    rng = np.random.default_rng(0)
    for _ in range(10):
        cfg = rand_cfg(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        assert left_kernel(cfg, 0, 0) == pytest.approx(1 / math.sqrt(cfg.grid.n1))
        assert right_kernel(cfg, 0, 0) == pytest.approx(1 / math.sqrt(cfg.grid.n2))


def test_kernel_qft_two_point():
    cfg = qft_cfg(2, 2)
    assert left_kernel(cfg, 1, 1) == pytest.approx(-1 / math.sqrt(2), abs=1e-15)
    assert right_kernel(cfg, 1, 1) == pytest.approx(-1 / math.sqrt(2), abs=1e-15)


def test_kernel_single_point_grid():
    cfg = qft_cfg(1, 1)
    assert left_kernel(cfg, 0, 0) == 1.0
    assert right_kernel(cfg, 0, 0) == 1.0


@pytest.mark.parametrize("n", [65537, 10_000_019])
def test_kernel_dft_term_is_exact_at_large_n(n):
    # (N-1)^2 = 1 mod N; the float phase (2*pi/N)*(N-1)*(N-1), near
    # 2*pi*N, is 1.7e-11 rad off at N = 65537
    cfg = qft_cfg(n, n)
    want = cmath.exp(-2j * math.pi / n) / math.sqrt(n)
    assert abs(left_kernel(cfg, n - 1, n - 1) - want) <= 1e-14
    assert abs(right_kernel(cfg, n - 1, n - 1) - want) <= 1e-14


def test_kernel_modulus_randomised():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n1 = int(rng.integers(1, 17))
        n2 = int(rng.integers(1, 17))
        cfg = make_config(rand_params(rng), rand_params(rng), n1, n2,
                          rng.uniform(0.25, 2.0), rng.uniform(0.25, 2.0))
        k = left_kernel(cfg, int(rng.integers(0, n1)), int(rng.integers(0, n1)))
        assert abs(k) * math.sqrt(n1) == pytest.approx(1.0, abs=1e-12)
        k = right_kernel(cfg, int(rng.integers(0, n2)), int(rng.integers(0, n2)))
        assert abs(k) * math.sqrt(n2) == pytest.approx(1.0, abs=1e-12)


def test_kernel_entries_are_the_direct_path_matrices():
    # the public entries and forward_direct read one kernel
    rng = np.random.default_rng(2)
    for _ in range(40):
        n1, n2 = (int(v) for v in rng.integers(1, 13, size=2))
        cfg = rand_cfg(rng, n1, n2)
        z1, z2 = _kernels(cfg)
        left = np.array([[left_kernel(cfg, x, w) for w in range(n1)] for x in range(n1)])
        right = np.array([[right_kernel(cfg, x, w) for w in range(n2)] for x in range(n2)])
        np.testing.assert_allclose(left, z1, rtol=0, atol=1e-15)
        np.testing.assert_allclose(right, z2, rtol=0, atol=1e-15)


def test_kernel_index_range():
    cfg = qft_cfg(2, 3)
    with pytest.raises(IndexError):
        left_kernel(cfg, 2, 0)
    with pytest.raises(IndexError):
        left_kernel(cfg, 0, -1)
    with pytest.raises(IndexError):
        right_kernel(cfg, 3, 0)
    with pytest.raises(TypeError):
        left_kernel(cfg, 1.0, 0)


# --- forward, direct ------------------------------------------------------

def test_forward_direct_worked_example():
    F = forward_direct(QSignal2D.from_components(EXAMPLE_IN), qft_cfg(2, 2))
    np.testing.assert_allclose(F.w, EXAMPLE_OUT, atol=1e-12)
    np.testing.assert_allclose(F.comps[..., 1:], 0, atol=1e-12)


def test_forward_direct_zero_signal():
    F = forward_direct(QSignal2D.zeros(3, 4), qft_cfg(3, 4))
    np.testing.assert_array_equal(F.comps, 0)


def test_forward_direct_matches_brute_oracle():
    rng = np.random.default_rng(2)
    for _ in range(6):
        cfg = rand_cfg(rng, 3, 3)
        f = rand_signal(rng, 3, 3)
        assert max_deviation(forward_direct(f, cfg), brute_forward(f, cfg)) < 1e-12


def test_forward_direct_dimension_mismatch():
    with pytest.raises(ValueError):
        forward_direct(QSignal2D.zeros(2, 3), qft_cfg(3, 2))


def test_linearity_over_reals():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n1, n2 = (int(v) for v in rng.integers(2, 7, size=2))
        cfg = rand_cfg(rng, n1, n2)
        f, g = rand_signal(rng, n1, n2), rand_signal(rng, n1, n2)
        al, be = rng.uniform(-3, 3, size=2)
        lhs = forward_direct(al * f + be * g, cfg)
        rhs = al * forward_direct(f, cfg) + be * forward_direct(g, cfg)
        assert rel_deviation(lhs, rhs) < 1e-12


# --- sided variants -------------------------------------------------------

@pytest.mark.parametrize("side", [LEFT_SIDED, RIGHT_SIDED])
def test_sided_forward_matches_brute_oracle(side):
    rng = np.random.default_rng(4)
    for _ in range(4):
        n1, n2 = (int(v) for v in rng.integers(2, 5, size=2))
        cfg = rand_cfg(rng, n1, n2, side)
        f = rand_signal(rng, n1, n2)
        assert max_deviation(forward_direct(f, cfg), brute_forward(f, cfg)) < 1e-12


@pytest.mark.parametrize("side", [TWO_SIDED, LEFT_SIDED, RIGHT_SIDED])
def test_sided_inverse_matches_brute_oracle(side):
    rng = np.random.default_rng(15)
    for n1, n2 in ((1, 1), (1, 4), (3, 1), (2, 3), (4, 5)):
        cfg = rand_cfg(rng, n1, n2, side)
        F = rand_signal(rng, n1, n2)
        assert max_deviation(inverse_direct(F, cfg), brute_inverse(F, cfg)) < 1e-12


@pytest.mark.parametrize("side", [TWO_SIDED, LEFT_SIDED, RIGHT_SIDED])
def test_sided_roundtrip(side):
    rng = np.random.default_rng(5)
    for _ in range(4):
        n1, n2 = (int(v) for v in rng.integers(2, 8, size=2))
        cfg = rand_cfg(rng, n1, n2, side)
        f = rand_signal(rng, n1, n2)
        assert rel_deviation(inverse_direct(forward_direct(f, cfg), cfg), f) < 1e-10


def test_sides_agree_on_real_signals():
    rng = np.random.default_rng(6)
    p1, p2 = rand_params(rng), rand_params(rng)
    f = QSignal2D.from_components(rng.uniform(-1, 1, size=(4, 5)))
    ref = forward_direct(f, make_config(p1, p2, 4, 5))
    for side in (LEFT_SIDED, RIGHT_SIDED):
        got = forward_direct(f, make_config(p1, p2, 4, 5, side=side))
        assert rel_deviation(got, ref) < 1e-12


# --- the plain two-sided DFT the qft preset collapses to -------------------
# _qft_oracle is the written-out reference of verify's qft-collapse

def test_dqft2_delta_gives_constant_one():
    comps = np.zeros((3, 4, 4))
    comps[0, 0, 0] = 1.0
    F = _qft_oracle(QSignal2D(comps)) * math.sqrt(3 * 4)
    np.testing.assert_allclose(F.w, 1.0, atol=1e-14)
    np.testing.assert_allclose(F.comps[..., 1:], 0, atol=1e-14)


def test_dqft2_worked_example_unnormalised():
    F = _qft_oracle(QSignal2D.from_components(EXAMPLE_IN)) * 2.0
    np.testing.assert_allclose(F.w, np.array(EXAMPLE_OUT) * 2, atol=1e-11)


def test_forward_equals_scaled_dqft2_under_qft():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n1, n2 = (int(v) for v in rng.integers(2, 9, size=2))
        f = rand_signal(rng, n1, n2)
        got = forward_direct(f, qft_cfg(n1, n2))
        want = dqft2_via_fft(f) * (1 / math.sqrt(n1 * n2))
        assert rel_deviation(got, want) < 1e-12


# --- inverse --------------------------------------------------------------

def test_inverse_of_worked_example():
    back = inverse_direct(QSignal2D.from_components(EXAMPLE_OUT), qft_cfg(2, 2))
    np.testing.assert_allclose(back.w, EXAMPLE_IN, atol=1e-12)


def test_inverse_zero():
    np.testing.assert_array_equal(
        inverse_direct(QSignal2D.zeros(2, 5), qft_cfg(2, 5)).comps, 0)


def test_roundtrip_random_5x5():
    rng = np.random.default_rng(11)
    for _ in range(8):
        cfg = rand_cfg(rng, 5, 5)
        f = rand_signal(rng, 5, 5)
        assert rel_deviation(inverse_direct(forward_direct(f, cfg), cfg), f) < 1e-10


def test_roundtrip_sizes_up_to_16():
    rng = np.random.default_rng(12)
    for n1, n2 in [(2, 16), (16, 2), (11, 13), (16, 16)]:
        cfg = rand_cfg(rng, n1, n2)
        f = rand_signal(rng, n1, n2)
        assert rel_deviation(inverse_direct(forward_direct(f, cfg), cfg), f) < 1e-10


# --- 1D transform ---------------------------------------------------------

def test_dqpft_1d_single_sample_is_identity():
    p = ParamSet(0.7, 1.2, -0.3, 0.5, 0.1)
    x = np.array([2.0 - 1.0j])
    got = dqpft_1d(x, p, 1.0)
    np.testing.assert_allclose(got, x, atol=1e-15)


def test_dqpft_1d_two_point_qft():
    p = ParamSet(0, 1, 0, 0, 0)
    got = dqpft_1d(np.array([1.0, 1.0]), p, 1.0)
    np.testing.assert_allclose(got, [math.sqrt(2), 0], atol=1e-15)


def _rand_1d(rng, n, quat):
    if quat:
        return rng.uniform(-1.0, 1.0, size=(n, 4))
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _comps_1d(x):
    """(N, 4) components of a quaternion array, or of a complex vector as (re, im, 0, 0)."""
    if x.ndim == 2:
        return x
    return np.stack([x.real, x.imag, np.zeros(len(x)), np.zeros(len(x))], axis=-1)


def _rel_1d(got, comps_want):
    """Largest sample error over the largest sample norm, both as (N, 4) components."""
    got = _comps_1d(got)
    return (np.linalg.norm(got - comps_want, axis=1).max()
            / np.linalg.norm(comps_want, axis=1).max())


# N = 1, N = 2 and prime lengths up to 37 are in range
@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 39), quat=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_dqpft_1d_vs_loop_oracle(n, quat, seed):
    rng = np.random.default_rng(seed)
    p, dt = rand_params(rng), rng.uniform(0.25, 2.0)
    x = _rand_1d(rng, n, quat)
    assert _rel_1d(dqpft_1d(x, p, dt), loop_dqpft_1d(_comps_1d(x), p, dt)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 39), quat=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_dqpft_1d_is_the_right_sided_direct_transform_of_an_n_by_1_grid(n, quat, seed):
    rng = np.random.default_rng(seed)
    p, dt = rand_params(rng), rng.uniform(0.25, 2.0)
    x = _rand_1d(rng, n, quat)
    cfg = make_config(p, preset_qft()[0], n, 1, dt, side=RIGHT_SIDED)
    want = forward_direct(QSignal2D(_comps_1d(x)[:, None]), cfg).comps[:, 0]
    assert _rel_1d(dqpft_1d(x, p, dt), want) <= 1e-12


@pytest.mark.parametrize("n", [4096, 4099])
def test_dqpft_1d_at_large_n_is_the_unitary_fft(n):
    x = _rand_1d(np.random.default_rng(n), n, quat=False)
    np.testing.assert_allclose(dqpft_1d(x, preset_qft()[0]), np.fft.fft(x) / math.sqrt(n),
                               rtol=0, atol=1e-12)


def test_dqpft_1d_memory_is_linear_in_n():
    # a dense N x N complex kernel alone would be N times the input's bytes
    rng = np.random.default_rng(33)
    x = _rand_1d(rng, 4096, quat=False)
    assert traced_peak(dqpft_1d, x, rand_params(rng), 0.7) <= 16 * x.nbytes


@pytest.mark.parametrize("bad", [np.array([1.0, np.nan]), np.array([1j, np.inf]),
                                 np.array([[0.0, 0.0, np.inf, 0.0]])])
def test_dqpft_1d_refuses_non_finite_samples(bad):
    with pytest.raises(ValueError, match="non-finite samples"):
        dqpft_1d(bad, preset_qft()[0])


def test_dqpft_1d_quaternion_input():
    rng = np.random.default_rng(14)
    p = rand_params(rng)
    arr = rng.uniform(-1, 1, size=(5, 4))
    got = dqpft_1d(arr, p, 1.0)
    assert got.shape == (5, 4)
    # the kernel multiplies on the right, so components transform like the
    # complex pair (w + ix) and (y - iz)
    t = dqpft_1d(arr[:, 0] + 1j * arr[:, 1], p, 1.0)
    h = dqpft_1d(arr[:, 2] - 1j * arr[:, 3], p, 1.0)
    np.testing.assert_allclose(got[:, 0] + 1j * got[:, 1], t, atol=1e-14)
    np.testing.assert_allclose(got[:, 2] - 1j * got[:, 3], h, atol=1e-14)


def test_dqpft_1d_refuses_complex_component_array():
    p = ParamSet(0, 1, 0, 0, 0)
    with pytest.raises(ValueError, match="from_symplectic"):
        dqpft_1d(np.full((3, 4), 1 + 2j), p, 1.0)
    # a complex vector is the i-complex form and stays valid
    x = np.array([1 + 2j, 3 - 1j, 0.5j])
    np.testing.assert_allclose(dqpft_1d(x, p, 1.0), np.fft.fft(x) / math.sqrt(3), atol=1e-14)


def test_dqpft_1d_validation():
    p = ParamSet(0, 1, 0, 0, 0)
    with pytest.raises(ParameterError):
        dqpft_1d(np.ones(4), p, 0.0)
    with pytest.raises(ValueError):
        dqpft_1d(np.ones((4, 3)), p, 1.0)
    for empty in (np.ones(0), np.ones((0, 4))):
        with pytest.raises(ValueError, match="at least one sample"):
            dqpft_1d(empty, p, 1.0)


# --- energy ---------------------------------------------------------------

def test_energy_worked_example_both_domains():
    assert QSignal2D.from_components(EXAMPLE_IN).energy() == 3150.0
    assert QSignal2D.from_components(EXAMPLE_OUT).energy() == 3150.0
    assert QSignal2D.zeros(3, 3).energy() == 0.0


def test_energy_preserved_by_forward():
    rng = np.random.default_rng(15)
    for _ in range(10):
        n1, n2 = (int(v) for v in rng.integers(2, 9, size=2))
        cfg = rand_cfg(rng, n1, n2)
        f = rand_signal(rng, n1, n2)
        assert forward_direct(f, cfg).energy() == pytest.approx(f.energy(), rel=1e-10)


# --- modulation -----------------------------------------------------------

def test_modulation_zero_shift_is_plain_forward():
    rng = np.random.default_rng(16)
    cfg = rand_cfg(rng, 4, 3)
    f = rand_signal(rng, 4, 3)
    assert rel_deviation(modulation_rhs(f, cfg, 0, 0), forward_direct(f, cfg)) < 1e-14


def test_modulation_qft_is_pure_spectrum_shift():
    rng = np.random.default_rng(17)
    f = rand_signal(rng, 4, 4)
    cfg = qft_cfg(4, 4)
    F = forward_direct(f, cfg)
    got = modulation_rhs(f, cfg, 1, 3)
    want = QSignal2D(np.roll(F.comps, (1, 3), axis=(0, 1)))
    assert rel_deviation(got, want) < 1e-13


def test_modulation_identity_random_4x4():
    rng = np.random.default_rng(18)
    for _ in range(10):
        cfg = rand_cfg(rng, 4, 4)
        f = rand_signal(rng, 4, 4)
        e1, e2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        lhs = forward_direct(modulated_signal(f, e1, e2), cfg)
        assert rel_deviation(lhs, modulation_rhs(f, cfg, e1, e2)) < 1e-10


def test_modulation_identity_exact_even_when_wrapping():
    rng = np.random.default_rng(19)
    cfg = rand_cfg(rng, 5, 6)
    f = rand_signal(rng, 5, 6)
    lhs = forward_direct(modulated_signal(f, 4, 5), cfg)
    assert rel_deviation(lhs, modulation_rhs(f, cfg, 4, 5)) < 1e-10


def test_modulation_index_range():
    rng = np.random.default_rng(20)
    cfg = rand_cfg(rng, 3, 3)
    with pytest.raises(IndexError):
        modulation_rhs(rand_signal(rng, 3, 3), cfg, 3, 0)


# --- translation ----------------------------------------------------------

def test_translation_zero_shift_is_plain_forward():
    rng = np.random.default_rng(21)
    cfg = rand_cfg(rng, 3, 4)
    f = rand_signal(rng, 3, 4)
    assert rel_deviation(translation_rhs(f, cfg, 0, 0), forward_direct(f, cfg)) < 1e-13


def test_translation_qft_circular_shift():
    rng = np.random.default_rng(22)
    f = rand_signal(rng, 5, 4)
    cfg = qft_cfg(5, 4)
    lhs = forward_direct(circular_shift(f, 2, 3), cfg)
    assert rel_deviation(lhs, translation_rhs(f, cfg, 2, 3)) < 1e-10


def test_translation_chirped_nonwrapping_support():
    rng = np.random.default_rng(23)
    for _ in range(6):
        n1, n2 = (int(v) for v in rng.integers(4, 8, size=2))
        k1, k2 = int(rng.integers(1, n1)), int(rng.integers(1, n2))
        cfg = rand_cfg(rng, n1, n2)
        comps = rng.uniform(-1, 1, size=(n1, n2, 4))
        comps[n1 - k1:, :] = 0.0
        comps[:, n2 - k2:] = 0.0  # keep the shifted copy clear of the wrap
        f = QSignal2D(comps)
        lhs = forward_direct(circular_shift(f, k1, k2), cfg)
        assert rel_deviation(lhs, translation_rhs(f, cfg, k1, k2)) < 1e-10


def test_translation_inner_chirp_is_exact_to_rounding():
    # the inner chirp 2*a*x*k*dt^2 reaches ~3e5 rad here, where a float64
    # evaluation is ~1e-11 rad off
    rng = np.random.default_rng(24)
    n2, k2 = 256, 100
    cfg = make_config(preset_qft()[0], ParamSet(1.91, 0.7, 0.3, -0.4, 0.6), 1, n2, 1.0, 1.77)
    comps = rng.uniform(-1, 1, size=(1, n2, 4))
    comps[:, n2 - k2:] = 0.0  # keep the shifted copy clear of the wrap
    f = QSignal2D(comps)
    lhs = forward_direct(circular_shift(f, 0, k2), cfg)
    assert rel_deviation(lhs, translation_rhs(f, cfg, 0, k2)) < 1e-13


def test_circular_shift_semantics():
    f = QSignal2D.from_components([[1.0, 2.0], [3.0, 4.0]])
    s = circular_shift(f, 1, 0)
    np.testing.assert_array_equal(s.w, [[3.0, 4.0], [1.0, 2.0]])


# --- conjugate decomposition ----------------------------------------------

def test_conjugate_real_signal():
    rng = np.random.default_rng(24)
    cfg = rand_cfg(rng, 3, 3)
    f = QSignal2D.from_components(rng.uniform(-1, 1, size=(3, 3)))
    got = conjugate_transform_decomposition(f, cfg)
    assert rel_deviation(got, forward_direct(f, cfg)) < 1e-13


def test_conjugate_single_i_component():
    rng = np.random.default_rng(25)
    cfg = rand_cfg(rng, 3, 4)
    g = rng.uniform(-1, 1, size=(3, 4))
    f = QSignal2D.from_components(np.zeros_like(g), g)
    got = conjugate_transform_decomposition(f, cfg)
    want = forward_direct(f.conjugate(), cfg)  # conj(i*g) = -i*g
    assert rel_deviation(got, want) < 1e-13


def test_conjugate_j_component_also_matches():
    rng = np.random.default_rng(26)
    cfg = rand_cfg(rng, 4, 3)
    g = rng.uniform(-1, 1, size=(4, 3))
    f = QSignal2D.from_components(np.zeros_like(g), None, g)
    got = conjugate_transform_decomposition(f, cfg)
    assert rel_deviation(got, forward_direct(f.conjugate(), cfg)) < 1e-13


def test_conjugate_decomposition_is_exact_on_general_signals():
    rng = np.random.default_rng(27)
    for _ in range(10):
        n1, n2 = (int(v) for v in rng.integers(1, 7, size=2))
        cfg = rand_cfg(rng, n1, n2)
        f = rand_signal(rng, n1, n2)
        got = conjugate_transform_decomposition(f, cfg)
        assert rel_deviation(got, forward_direct(f.conjugate(), cfg)) < 1e-12
    # a pure k sample: conj(k) = -k, and -i*Q[f3]*j = -i*j = -k
    comps = np.zeros((1, 1, 4))
    comps[0, 0, 3] = 1.0
    fk = QSignal2D(comps)
    cfg1 = qft_cfg(1, 1)
    got = conjugate_transform_decomposition(fk, cfg1)
    want = forward_direct(fk.conjugate(), cfg1)
    assert want.at(0, 0) == Quaternion(0, 0, 0, -1)
    assert got.at(0, 0) == Quaternion(0, 0, 0, -1)


def test_identity_helpers_take_their_spectra_from_the_fast_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an identity helper ran the direct O((N1*N2)^2) path")

    rng = np.random.default_rng(28)
    cfg = rand_cfg(rng, 3, 4)
    f = rand_signal(rng, 3, 4)
    want = forward_direct(f.conjugate(), cfg)
    # the direct path's one contraction, whichever module calls forward_direct
    monkeypatch.setattr(dqqpft.transform, "_contract", refuse)
    modulation_rhs(f, cfg, 1, 2)
    translation_rhs(f, cfg, 1, 2)
    assert rel_deviation(conjugate_transform_decomposition(f, cfg), want) < 1e-13


# --- the component-array form ----------------------------------------------

@pytest.mark.parametrize("with_left,with_right",
                         [(True, True), (True, False), (False, True), (False, False)])
def test_pointwise_sandwich_matches_scalar_product(with_left, with_right):
    rng = np.random.default_rng(31)
    for _ in range(6):
        n1, n2 = (int(v) for v in rng.integers(1, 8, size=2))
        comps = rng.uniform(-1.0, 1.0, size=(n1, n2, 4))
        comps.flags.writeable = False
        a = rng.uniform(-4.0, 4.0, size=n1) if with_left else np.zeros(n1)
        b = rng.uniform(-4.0, 4.0, size=n2) if with_right else np.zeros(n2)
        got = _pointwise_sandwich(comps, np.exp(1j * a), np.exp(1j * b))
        assert got.shape == (n1, n2, 4)
        for x1 in range(n1):
            for x2 in range(n2):
                want = expi(a[x1]) * Quaternion.from_array(comps[x1, x2]) * expj(b[x2])
                np.testing.assert_allclose(got[x1, x2], want.to_array(), rtol=0, atol=1e-15)


def test_array_code_never_builds_the_symplectic_pair(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("array code went through the (t, h) symplectic pair")

    monkeypatch.setattr(QSignal2D, "to_symplectic", refuse)
    monkeypatch.setattr(QSignal2D, "from_symplectic", refuse)
    rng = np.random.default_rng(32)
    f, g = rand_signal(rng, 4, 5), rand_signal(rng, 4, 5)
    for side in (TWO_SIDED, LEFT_SIDED, RIGHT_SIDED):
        cfg = rand_cfg(rng, 4, 5, side)
        assert max_deviation(inverse_direct(forward_direct(f, cfg), cfg), f) < 1e-12
    cfg = rand_cfg(rng, 4, 5)
    dqft2_via_fft(f)
    dqpft_1d(f.comps[0], cfg.p1)
    modulated_signal(f, 1, 2)
    modulation_rhs(f, cfg, 1, 2)
    translation_rhs(f, cfg, 1, 2)
    make_psi(f, make_plan(cfg))
    conv_theorem_rhs(f, g, cfg)
