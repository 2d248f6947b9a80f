import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqqpft.fast
from dqqpft.fast import (
    _fft2_raw,
    conjugate_transform_decomposition,
    dqft2_via_fft,
    forward_fast,
    inverse_fast,
    make_plan,
    make_psi,
    modulation_rhs,
    translation_rhs,
)
from dqqpft.params import ParameterError
from dqqpft.signal import QSignal2D, rel_deviation
from dqqpft.transform import (
    LEFT_SIDED,
    circular_shift,
    forward_direct,
    inverse_direct,
    make_config,
    modulated_signal,
)
from dqqpft.verify import _qft_oracle
from oracles import (
    EXAMPLE_IN,
    EXAMPLE_OUT,
    exact_transform_bins,
    naive_dft2,
    qft_cfg,
    rand_cfg,
    rand_params,
    rand_signal,
    traced_peak,
)


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
    psi = make_psi(QSignal2D.from_components(g), make_plan(cfg))
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


@pytest.mark.parametrize("sign1,sign2", [(-1, -1), (-1, 1), (1, -1), (1, 1)])
def test_raw_transform_into_a_plane_view_is_the_out_of_place_result(sign1, sign2):
    # the fast path hands each plane's half of its output buffer as ``out``
    rng = np.random.default_rng(5)
    for n1, n2 in [(1, 1), (1, 7), (7, 1), (13, 17), (257, 257)]:
        x = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
        kept = x.copy()
        want = _fft2_raw(x, sign1, sign2)
        np.testing.assert_array_equal(x, kept)  # without ``out`` the input is untouched
        for half in (0, 1):
            buf = np.zeros((n1, n2, 2), dtype=np.complex128)
            got = _fft2_raw(x, sign1, sign2, out=buf[..., half])
            assert np.shares_memory(got, buf)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(buf[..., 1 - half], 0)
            plane = buf[..., half]
            plane[...] = x
            np.testing.assert_array_equal(_fft2_raw(plane, sign1, sign2, out=plane), want)
        np.testing.assert_array_equal(x, kept)


# --- quaternion DFT via two complex FFTs ------------------------------------

def test_dqft2_via_fft_delta():
    comps = np.zeros((4, 4, 4))
    comps[0, 0, 0] = 1.0
    got = dqft2_via_fft(QSignal2D(comps))
    np.testing.assert_allclose(got.w, 1.0, atol=1e-14)
    np.testing.assert_allclose(got.comps[..., 1:], 0, atol=1e-14)


def test_dqft2_via_fft_worked_example():
    got = dqft2_via_fft(QSignal2D.from_components(EXAMPLE_IN))
    np.testing.assert_allclose(got.w, np.array(EXAMPLE_OUT) * 2, atol=1e-11)


def test_dqft2_via_fft_matches_direct():
    rng = np.random.default_rng(5)
    for n1, n2 in [(8, 8), (6, 10), (5, 7), (1, 4), (3, 1), (16, 16)]:
        psi = rand_signal(rng, n1, n2)
        want = _qft_oracle(psi) * math.sqrt(n1 * n2)
        assert rel_deviation(dqft2_via_fft(psi), want) < 1e-10


# --- full fast pipeline ------------------------------------------------------

def test_forward_fast_worked_example():
    F = forward_fast(QSignal2D.from_components(EXAMPLE_IN), make_plan(qft_cfg(2, 2)))
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
    results = []
    raw = dqqpft.fast._fft2_raw

    def counting(x, sign1, sign2, out=None):
        calls.append((x.shape, sign1, sign2))
        results.append(raw(x, sign1, sign2, out=out))
        return results[-1]

    monkeypatch.setattr(dqqpft.fast, "_fft2_raw", counting)
    rng = np.random.default_rng(13)
    got = transform(rand_signal(rng, 6, 5), make_plan(rand_cfg(rng, 6, 5)))
    # p+ first, with the j-axis sign flipped, then p-
    signs = [(-1, 1), (-1, -1)] if transform is forward_fast else [(1, -1), (1, 1)]
    assert calls == [((6, 5),) + pair for pair in signs]
    # each plane is transformed inside the transform's own output
    assert all(np.shares_memory(r, got.comps) for r in results)


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
def test_transform_works_inside_its_output_buffer(transform):
    # the output and numpy's FFT working memory; no plane, chirp grid,
    # FFT result or finiteness mask is allocated beside it
    rng = np.random.default_rng(18)
    f = rand_signal(rng, 256, 512)
    plan = make_plan(rand_cfg(rng, 256, 512))
    assert traced_peak(transform, f, plan) <= 1.10 * f.comps.nbytes


def test_pointwise_product_works_inside_its_output_buffer():
    # the identity helpers split, chirp and join in their output, as the fast path does
    f = rand_signal(np.random.default_rng(19), 256, 512)
    assert traced_peak(modulated_signal, f, 3, 5) <= 1.10 * f.comps.nbytes


def test_identity_helpers_memory():
    f = rand_signal(np.random.default_rng(20), 512, 512)
    cfg = rand_cfg(np.random.default_rng(21), 512, 512)
    # the running sum, the reused real-component buffer and one transform: 3.02x the grid here
    assert traced_peak(conjugate_transform_decomposition, f, cfg) <= 3.3 * f.comps.nbytes
    # the DFT planes and their rolled copy: 2.00x, where keeping the
    # spectrum past its gather read 3.02x
    assert traced_peak(modulation_rhs, f, cfg, 3, 5) <= 2.2 * f.comps.nbytes
    # one transform: 1.02x
    assert traced_peak(translation_rhs, f, cfg, 3, 5) <= 1.2 * f.comps.nbytes


def test_identity_helpers_wrap_only_the_signal_they_return(monkeypatch):
    rng = np.random.default_rng(22)
    cfg = rand_cfg(rng, 6, 5)
    f = rand_signal(rng, 6, 5)
    inits, adopted = [], []
    init, adopt = QSignal2D.__init__, QSignal2D._adopt.__func__

    def counting_init(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    def counting_adopt(cls, comps):
        adopted.append(comps.shape)
        return adopt(cls, comps)

    monkeypatch.setattr(QSignal2D, "__init__", counting_init)
    monkeypatch.setattr(QSignal2D, "_adopt", classmethod(counting_adopt))
    ffts, sandwiches = [], []
    raw, sandwich = dqqpft.fast._fft2_raw, dqqpft.fast._pointwise_sandwich

    def counting_fft(x, *args, **kwargs):
        ffts.append(x.shape)
        return raw(x, *args, **kwargs)

    def counting_sandwich(comps, *args):
        sandwiches.append(comps.shape)
        return sandwich(comps, *args)

    monkeypatch.setattr(dqqpft.fast, "_fft2_raw", counting_fft)
    monkeypatch.setattr(dqqpft.fast, "_pointwise_sandwich", counting_sandwich)
    for helper, args, fft_calls in ((modulation_rhs, (2, 3), 2), (translation_rhs, (1, 4), 2),
                                    (conjugate_transform_decomposition, (), 8)):
        for calls in (adopted, ffts, sandwiches):
            calls.clear()
        helper(f, cfg, *args)
        assert adopted == [(6, 5, 4)], helper.__name__
        # one chirp-DFT-chirp per transform, with no pointwise pass around it
        assert (len(ffts), len(sandwiches)) == (fft_calls, 0), helper.__name__
    assert inits == []


@pytest.mark.parametrize("shifted", [
    lambda f, cfg, k: translation_rhs(f, cfg, k, 0),
    lambda f, cfg, k: modulation_rhs(f, cfg, 0, k),
    lambda f, cfg, k: circular_shift(f, k, k),
    lambda f, cfg, k: modulated_signal(f, k, k),
], ids=["translation_rhs", "modulation_rhs", "circular_shift", "modulated_signal"])
def test_shifts_are_integers(shifted):
    rng = np.random.default_rng(23)
    cfg = rand_cfg(rng, 5, 4)
    f = rand_signal(rng, 5, 4)
    for k in (1.5, np.float64(2.0)):
        with pytest.raises(TypeError):
            shifted(f, cfg, k)
    np.testing.assert_array_equal(shifted(f, cfg, np.int64(2)).comps, shifted(f, cfg, 2).comps)


def test_modulated_signal_reduces_its_shifts_before_the_product():
    # 2**62 + 1 times an index wraps in int64, and 2**70 does not fit it
    f = rand_signal(np.random.default_rng(24), 5, 4)
    for k in (2**62 + 1, 2**70, -2**62 - 1):
        np.testing.assert_array_equal(modulated_signal(f, k, k).comps,
                                      modulated_signal(f, k % 5, k % 4).comps)


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


# --- accuracy at the sizes the fast path serves ------------------------------

# Skinny grids reach N = 16384 cheaply.  Float64 phases a*(x*dt)^2 lose
# O(N^2 * eps) rad and read up to ~1e-7 here; double-double phases reduced
# mod 2*pi read at most 7.3e-15 over five seeds per grid, so the bound
# has a margin of about 14x.
@pytest.mark.parametrize("n1,n2", [(1, 16384), (16384, 1), (4096, 16), (257, 257),
                                   (96, 250), (1024, 1024)])
def test_fast_path_matches_the_exact_phase_reference(n1, n2):
    rng = np.random.default_rng([n1, n2])
    cfg = rand_cfg(rng, n1, n2)
    f = rand_signal(rng, n1, n2)
    plan = make_plan(cfg)
    bins = list(zip(rng.integers(0, n1, 16), rng.integers(0, n2, 16)))
    rows, cols = np.array(bins).T
    rms = math.sqrt(f.energy() / (n1 * n2))
    for transform, sign in ((forward_fast, -1), (inverse_fast, +1)):
        got = transform(f, plan).comps[rows, cols]
        want = exact_transform_bins(f.comps, cfg, bins, sign)
        assert np.linalg.norm(got - want, axis=1).max() / rms <= 1e-13


# The paper's identities with the fast path on both sides.  Over five
# seeds per grid ([n1, n2, s] for s = 0..4) the worst readings were
# 1.7e-15 (reconstruction), 1.7e-16 (energy), 1.1e-15 (modulation),
# 1.5e-15 (translation on a non-wrapping support) and 7.0e-16
# (conjugation), with no growth from 96x250 to 1024^2, so one bound of
# 1e-14 serves every size.  Float64 phases read 4.1e-13 on the
# modulation identity at 1024^2.
@pytest.mark.parametrize("n1,n2", [(257, 257), (96, 250), (1024, 1024)])
def test_identities_hold_on_the_fast_path_at_large_grids(n1, n2):
    rng = np.random.default_rng([n1, n2, 1])
    cfg = rand_cfg(rng, n1, n2)
    f = rand_signal(rng, n1, n2)
    plan = make_plan(cfg)
    F = forward_fast(f, plan)
    assert rel_deviation(inverse_fast(F, plan), f) <= 1e-14
    assert abs(F.energy() - f.energy()) / f.energy() <= 1e-14
    eps1, eps2 = int(rng.integers(0, n1)), int(rng.integers(0, n2))
    lhs = forward_fast(modulated_signal(f, eps1, eps2), plan)
    assert rel_deviation(lhs, modulation_rhs(f, cfg, eps1, eps2)) <= 1e-14
    # the shifted copy stays clear of the wrap
    k1, k2 = int(rng.integers(1, n1)), int(rng.integers(1, n2))
    comps = np.array(f.comps)
    comps[n1 - k1:, :] = 0.0
    comps[:, n2 - k2:] = 0.0
    fpad = QSignal2D(comps)
    lhs = forward_fast(circular_shift(fpad, k1, k2), plan)
    assert rel_deviation(lhs, translation_rhs(fpad, cfg, k1, k2)) <= 1e-14
    want = forward_fast(f.conjugate(), plan)
    assert rel_deviation(conjugate_transform_decomposition(f, cfg), want) <= 1e-14

