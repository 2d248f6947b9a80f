import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqqpft.fast
from dqqpft.fast import (
    _fft2_raw,
    dqft2_via_fft,
    forward_fast,
    inverse_fast,
    make_plan,
    make_psi,
)
from dqqpft.params import ParameterError, preset_qft
from dqqpft.signal import QSignal2D, max_deviation, rel_deviation
from dqqpft.transform import (
    LEFT_SIDED,
    dqft2,
    forward_direct,
    inverse_direct,
    make_config,
)
from dqqpft.verify import _alt_dqft2, _mixed_axis_grid
from oracles import naive_dft2, rand_params, rand_signal, traced_peak

EXAMPLE_IN = [[35.0, 30.0], [25.0, 20.0]]
EXAMPLE_OUT = [[55.0, 5.0], [10.0, 0.0]]


def qft_cfg(n1, n2):
    p1, p2 = preset_qft()
    return make_config(p1, p2, n1, n2)


def rand_cfg(rng, n1, n2):
    return make_config(rand_params(rng), rand_params(rng), n1, n2,
                       rng.uniform(0.25, 2.0), rng.uniform(0.25, 2.0))


# --- plan and chirp stage ---------------------------------------------------

def test_plan_tables_have_unit_modulus_and_right_lengths():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n1, n2 = (int(v) for v in rng.integers(1, 17, size=2))
        plan = make_plan(rand_cfg(rng, n1, n2))
        for vec, n in ((plan.pre1, n1), (plan.post1, n1), (plan.pre2, n2), (plan.post2, n2)):
            assert vec.shape == (n,)
            np.testing.assert_allclose(np.abs(vec), 1.0, atol=1e-14)


def test_plan_requires_two_sided():
    rng = np.random.default_rng(1)
    cfg = make_config(rand_params(rng), rand_params(rng), 2, 2, side=LEFT_SIDED)
    with pytest.raises(ParameterError):
        make_plan(cfg)


def test_make_psi_is_identity_under_qft():
    rng = np.random.default_rng(2)
    f = rand_signal(rng, 3, 5)
    psi = make_psi(f, make_plan(qft_cfg(3, 5)))
    np.testing.assert_allclose(psi.comps, f.comps, atol=1e-15)


def test_make_psi_real_signal_right_chirp_disabled():
    rng = np.random.default_rng(3)
    p1 = rand_params(rng)
    p2 = type(p1)(0.0, p1.b, p1.c, 0.0, p1.e)  # a2 = d2 = 0: right chirp is 1
    cfg = make_config(p1, p2, 4, 3)
    g = rng.uniform(-1, 1, size=(4, 3))
    psi = make_psi(QSignal2D.from_real(g), make_plan(cfg))
    # left chirp times a real signal stays in the i-complex subfield
    np.testing.assert_allclose(psi.comps[..., 2:], 0, atol=1e-15)
    xi = np.arange(4)
    chirp = np.exp(-1j * (p1.a * xi * xi * cfg.grid.dt1 ** 2 + p1.d * xi * cfg.grid.dt1))
    np.testing.assert_allclose(psi.w + 1j * psi.x, chirp[:, None] * g, atol=1e-14)


def test_make_psi_preserves_energy():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n1, n2 = (int(v) for v in rng.integers(2, 9, size=2))
        f = rand_signal(rng, n1, n2)
        psi = make_psi(f, make_plan(rand_cfg(rng, n1, n2)))
        assert psi.energy() == pytest.approx(f.energy(), rel=1e-12)


# --- plane FFT ---------------------------------------------------------------

@pytest.mark.parametrize("sign1,sign2", [(-1, -1), (-1, 1), (1, -1), (1, 1)])
def test_raw_transform_takes_one_sign_per_axis(sign1, sign2):
    rng = np.random.default_rng(3)
    for n1, n2 in [(1, 1), (1, 7), (7, 1), (5, 6), (13, 17), (1, 13), (16, 3), (12, 12),
                   (1, 17), (1, 31), (1, 100), (1, 129), (257, 3), (3, 251)]:
        x = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
        want = naive_dft2(x, sign1, sign2)
        np.testing.assert_allclose(_fft2_raw(x, sign1, sign2), want, atol=1e-12 * n1 * n2)


def test_raw_transform_with_equal_signs_is_numpy_fft2():
    rng = np.random.default_rng(4)
    for n1, n2 in [(257, 3), (96, 250), (1, 7)]:
        x = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
        np.testing.assert_array_equal(_fft2_raw(x, -1, -1), np.fft.fft2(x))
        np.testing.assert_array_equal(_fft2_raw(x, 1, 1), np.fft.ifft2(x, norm="forward"))


# --- quaternion DFT via two complex FFTs ------------------------------------

def test_dqft2_via_fft_delta():
    comps = np.zeros((4, 4, 4))
    comps[0, 0, 0] = 1.0
    got = dqft2_via_fft(QSignal2D(comps))
    np.testing.assert_allclose(got.w, 1.0, atol=1e-14)
    np.testing.assert_allclose(got.comps[..., 1:], 0, atol=1e-14)


def test_dqft2_via_fft_worked_example():
    got = dqft2_via_fft(QSignal2D.from_real(EXAMPLE_IN))
    np.testing.assert_allclose(got.w, np.array(EXAMPLE_OUT) * 2, atol=1e-11)


def test_dqft2_via_fft_matches_direct():
    rng = np.random.default_rng(5)
    for n1, n2 in [(8, 8), (6, 10), (5, 7), (1, 4), (3, 1), (16, 16)]:
        psi = rand_signal(rng, n1, n2)
        assert rel_deviation(dqft2_via_fft(psi), dqft2(psi)) < 1e-10


# --- full fast pipeline ------------------------------------------------------

def test_forward_fast_worked_example():
    F = forward_fast(QSignal2D.from_real(EXAMPLE_IN), make_plan(qft_cfg(2, 2)))
    np.testing.assert_allclose(F.w, EXAMPLE_OUT, atol=1e-12)
    np.testing.assert_allclose(F.comps[..., 1:], 0, atol=1e-12)


def test_forward_fast_zero():
    plan = make_plan(qft_cfg(3, 5))
    np.testing.assert_array_equal(forward_fast(QSignal2D.zeros(3, 5), plan).comps, 0)


def test_forward_fast_matches_direct_across_shapes():
    rng = np.random.default_rng(7)
    for n1, n2 in [(2, 2), (4, 4), (6, 10), (8, 8), (16, 16), (5, 9), (1, 7),
                   (257, 3), (2, 251), (64, 48)]:
        cfg = rand_cfg(rng, n1, n2)
        f = rand_signal(rng, n1, n2)
        dev = rel_deviation(forward_fast(f, make_plan(cfg)), forward_direct(f, cfg))
        assert dev < 1e-10


def test_forward_fast_dimension_mismatch():
    plan = make_plan(qft_cfg(2, 2))
    with pytest.raises(ValueError):
        forward_fast(QSignal2D.zeros(3, 2), plan)


def test_inverse_fast_matches_inverse_direct():
    rng = np.random.default_rng(8)
    for n1, n2 in [(4, 4), (6, 10), (5, 3)]:
        cfg = rand_cfg(rng, n1, n2)
        plan = make_plan(cfg)
        F = rand_signal(rng, n1, n2)
        assert rel_deviation(inverse_fast(F, plan), inverse_direct(F, cfg)) < 1e-10


def test_fast_roundtrip():
    rng = np.random.default_rng(9)
    shapes = [tuple(int(v) for v in rng.integers(2, 13, size=2)) for _ in range(6)]
    for n1, n2 in shapes + [(257, 257), (96, 250), (1024, 1024)]:
        plan = make_plan(rand_cfg(rng, n1, n2))
        f = rand_signal(rng, n1, n2)
        F = forward_fast(f, plan)
        assert rel_deviation(inverse_fast(F, plan), f) < 1e-10
        assert abs(F.energy() - f.energy()) < 1e-10 * f.energy()


def _fast_vs_direct_devs(f, cfg):
    """Forward and inverse against direct, round trip and energy drift."""
    plan = make_plan(cfg)
    F = forward_fast(f, plan)
    return (rel_deviation(F, forward_direct(f, cfg)),
            rel_deviation(inverse_fast(f, plan), inverse_direct(f, cfg)),
            rel_deviation(inverse_fast(F, plan), f),
            abs(F.energy() - f.energy()) / f.energy())


@settings(max_examples=30, deadline=None)
@given(n1=st.integers(1, 13), n2=st.integers(1, 13), seed=st.integers(0, 2**32 - 1))
def test_fast_matches_direct_over_small_shapes(n1, n2, seed):
    # 1 x N, N x 1 and prime-by-prime grids included
    rng = np.random.default_rng(seed)
    assert max(_fast_vs_direct_devs(rand_signal(rng, n1, n2), rand_cfg(rng, n1, n2))) <= 1e-10


@pytest.mark.parametrize("n1,n2", [(13, 17), (1, 31), (31, 1)])
def test_fast_matches_direct_at_prime_and_skinny_shapes(n1, n2):
    rng = np.random.default_rng(n1 * 100 + n2)
    assert max(_fast_vs_direct_devs(rand_signal(rng, n1, n2), rand_cfg(rng, n1, n2))) <= 1e-10


@pytest.mark.parametrize("transform", [forward_fast, inverse_fast])
def test_each_transform_makes_two_fft_calls(monkeypatch, transform):
    # one plain complex DFT per plane; perfbench traces this very name
    calls = []
    raw = dqqpft.fast._fft2_raw

    def counting(x, sign1, sign2):
        calls.append((x.shape, sign1, sign2))
        return raw(x, sign1, sign2)

    monkeypatch.setattr(dqqpft.fast, "_fft2_raw", counting)
    rng = np.random.default_rng(13)
    transform(rand_signal(rng, 6, 5), make_plan(rand_cfg(rng, 6, 5)))
    # p+ first, with the j-axis sign flipped, then p-
    signs = [(-1, 1), (-1, -1)] if transform is forward_fast else [(1, -1), (1, 1)]
    assert calls == [((6, 5),) + pair for pair in signs]


# --- output adopted without a copy ------------------------------------------

@pytest.mark.parametrize("transform", [forward_fast, inverse_fast])
def test_output_is_read_only_contiguous_and_unshared(transform):
    rng = np.random.default_rng(14)
    f = rand_signal(rng, 7, 4)
    out = transform(f, make_plan(rand_cfg(rng, 7, 4)))
    assert not out.comps.flags.writeable
    assert out.comps.flags.c_contiguous
    assert out.comps.dtype == np.float64 and out.comps.shape == (7, 4, 4)
    assert not np.shares_memory(out.comps, f.comps)
    with pytest.raises(ValueError):
        out.comps[0, 0, 0] = 1.0


@pytest.mark.parametrize("transform", [forward_fast, inverse_fast])
def test_transform_keeps_two_planes_and_the_output_alive(transform):
    # at most p+, p- and one FFT's intermediate and output are alive at once,
    # each half the input's size
    rng = np.random.default_rng(17)
    f = rand_signal(rng, 256, 512)
    plan = make_plan(rand_cfg(rng, 256, 512))
    assert traced_peak(transform, f, plan) <= 2.4 * f.comps.nbytes


@pytest.mark.parametrize("transform", [forward_fast, inverse_fast])
def test_overflowing_transform_still_rejects_non_finite_output(transform):
    plan = make_plan(qft_cfg(1, 1))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="signal contains non-finite samples"):
        transform(QSignal2D(np.full((1, 1, 4), 1e308)), plan)
    out = transform(QSignal2D(np.full((1, 1, 4), 8e307)), plan)
    assert np.all(np.isfinite(out.comps))


def test_fortran_ordered_input_is_accepted():
    rng = np.random.default_rng(16)
    comps = np.asfortranarray(rng.uniform(-1, 1, size=(5, 6, 4)))
    cfg = rand_cfg(rng, 5, 6)
    f = QSignal2D(comps)
    assert rel_deviation(forward_fast(f, make_plan(cfg)), forward_direct(f, cfg)) < 1e-10


# --- diagnostic recombination ------------------------------------------------

def test_alt_recombination_collapses_for_axis2_even_real_signal():
    # real input, even in the second axis: the reflected grid equals the
    # grid itself and the shortcut collapses to the mixed-axis grid
    rng = np.random.default_rng(10)
    base = rng.uniform(-1, 1, size=(4, 3))
    even = np.concatenate([base, base[:, 1:][:, ::-1]], axis=1)  # n2 = 5, even
    psi = QSignal2D.from_real(even)
    t, h = psi.to_symplectic()
    pt = _fft2_raw(t, -1, -1)
    ph = _fft2_raw(h, -1, -1)
    got = _alt_dqft2(psi)
    want = _mixed_axis_grid(pt, ph)
    assert max_deviation(got, want) < 1e-10


def test_alt_recombination_deviation_is_recorded_not_asserted():
    rng = np.random.default_rng(12)
    psi = rand_signal(rng, 4, 4)
    dev = rel_deviation(_alt_dqft2(psi), dqft2(psi))
    assert math.isfinite(dev)  # measured only; no equality claim
