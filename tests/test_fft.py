import numpy as np
import pytest

from dqqpft.fft import _fft2_raw, fft2_complex
from oracles import naive_dft2


def test_delta_row_gives_constant():
    x = np.array([[1.0, 0.0, 0.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(fft2_complex(x), np.ones((1, 4)), atol=1e-15)


def test_constant_row_gives_delta():
    x = np.ones((1, 4), dtype=complex)
    want = np.array([[4.0, 0.0, 0.0, 0.0]])
    np.testing.assert_allclose(fft2_complex(x), want, atol=1e-14)


def test_single_sample():
    x = np.array([[3.0 - 2.0j]])
    np.testing.assert_array_equal(fft2_complex(x), x)
    np.testing.assert_array_equal(fft2_complex(x, "inverse"), x)


def test_matches_naive_dft_on_mixed_sizes():
    rng = np.random.default_rng(0)
    for n1, n2 in [(6, 10), (2, 2), (8, 8), (5, 7), (1, 13), (16, 3), (12, 12),
                   (257, 3), (3, 251)]:
        x = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
        got = fft2_complex(x)
        want = naive_dft2(x, -1)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) / scale < 1e-11


def test_inverse_normalisation_matches_naive():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    got = fft2_complex(x, "inverse")
    want = naive_dft2(x, +1) / 30
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_roundtrip_all_sizes_up_to_16():
    rng = np.random.default_rng(2)
    worst = 0.0
    for n1 in range(1, 17):
        for n2 in range(1, 17):
            x = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
            back = fft2_complex(fft2_complex(x), "inverse")
            worst = max(worst, float(np.max(np.abs(back - x))))
    assert worst < 1e-11


def test_bluestein_path_longer_lengths():
    rng = np.random.default_rng(3)
    for n in (17, 31, 100, 129):
        x = rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))
        got = fft2_complex(x)
        want = naive_dft2(x, -1)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-11


def test_parseval_energy_identity():
    rng = np.random.default_rng(4)
    for n1, n2 in [(4, 4), (6, 10), (7, 5)]:
        x = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
        spec = fft2_complex(x)
        lhs = np.sum(np.abs(spec) ** 2) / (n1 * n2)
        rhs = np.sum(np.abs(x) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        fft2_complex(np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        fft2_complex(np.zeros((2, 2), dtype=complex), "sideways")


@pytest.mark.parametrize("sign1,sign2", [(-1, -1), (-1, 1), (1, -1), (1, 1)])
def test_raw_transform_takes_one_sign_per_axis(sign1, sign2):
    rng = np.random.default_rng(3)
    for n1, n2 in [(1, 1), (1, 7), (7, 1), (5, 6), (13, 17)]:
        x = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
        w1 = np.exp(sign1 * 2j * np.pi * np.outer(np.arange(n1), np.arange(n1)) / n1)
        w2 = np.exp(sign2 * 2j * np.pi * np.outer(np.arange(n2), np.arange(n2)) / n2)
        want = w1.T @ x @ w2
        np.testing.assert_allclose(_fft2_raw(x, sign1, sign2), want, atol=1e-12 * n1 * n2)


def test_raw_transform_with_equal_signs_is_numpy_fft2():
    rng = np.random.default_rng(4)
    for n1, n2 in [(257, 3), (96, 250), (1, 7)]:
        x = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
        np.testing.assert_array_equal(_fft2_raw(x, -1, -1), np.fft.fft2(x))
        np.testing.assert_array_equal(_fft2_raw(x, 1, 1), np.fft.ifft2(x, norm="forward"))
