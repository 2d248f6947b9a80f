import numpy as np
import pytest

from dqqpft.quaternion import Quaternion
from dqqpft.signal import QSignal2D, max_deviation, rel_deviation


def test_shape_validation():
    with pytest.raises(ValueError):
        QSignal2D(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        QSignal2D(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        QSignal2D(np.zeros((0, 2, 4)))


def test_rejects_non_finite():
    comps = np.zeros((2, 2, 4))
    comps[1, 1, 2] = np.nan
    with pytest.raises(ValueError):
        QSignal2D(comps)


def test_components_are_read_only_and_copied():
    src = np.zeros((2, 2, 4))
    sig = QSignal2D(src)
    src[0, 0, 0] = 5.0
    assert sig.comps[0, 0, 0] == 0.0
    with pytest.raises(ValueError):
        sig.comps[0, 0, 0] = 1.0


def test_constructor_copies_into_c_order():
    src = np.asfortranarray(np.arange(24.0).reshape(2, 3, 4))
    sig = QSignal2D(src)
    assert sig.comps.flags.c_contiguous
    assert not np.shares_memory(sig.comps, src)
    np.testing.assert_array_equal(sig.comps, src)
    # a read-only source is copied too, never adopted
    frozen = np.zeros((2, 2, 4))
    frozen.flags.writeable = False
    assert not np.shares_memory(QSignal2D(frozen).comps, frozen)


@pytest.mark.parametrize("build", [
    lambda c: QSignal2D(np.full((1, 1, 4), c)),
    lambda c: QSignal2D([[[c, 1, 1, 1]]]),
    lambda c: QSignal2D.from_components([[1.0]], [[c]]),
    lambda c: QSignal2D.from_components([[c]]),
], ids=["init-array", "init-list", "from_components-x", "from_components-w"])
def test_complex_input_is_refused_not_truncated(build):
    with pytest.raises(ValueError, match="from_symplectic"):
        build(1 + 2j)
    # a complex value with a zero imaginary part is refused too: the dtype decides
    with pytest.raises(ValueError, match="from_symplectic"):
        build(1 + 0j)


def test_from_components_and_at():
    sig = QSignal2D.from_components([[35.0, 30.0], [25.0, 20.0]])
    assert sig.at(0, 1) == Quaternion(30.0)
    assert sig.shape == (2, 2)
    np.testing.assert_array_equal(sig.x, 0)


def test_symplectic_roundtrip():
    rng = np.random.default_rng(0)
    sig = QSignal2D(rng.standard_normal((3, 5, 4)))
    t, h = sig.to_symplectic()
    back = QSignal2D.from_symplectic(t, h)
    np.testing.assert_array_equal(back.comps, sig.comps)
    # spot-check against the scalar definition
    q = sig.at(1, 2)
    assert t[1, 2] == complex(q.w, q.x)
    assert h[1, 2] == complex(q.y, -q.z)


def test_energy():
    sig = QSignal2D.from_components([[35.0, 30.0], [25.0, 20.0]])
    assert sig.energy() == 3150.0
    assert QSignal2D.zeros(4, 4).energy() == 0.0


def test_arithmetic():
    rng = np.random.default_rng(1)
    a = QSignal2D(rng.standard_normal((2, 3, 4)))
    b = QSignal2D(rng.standard_normal((2, 3, 4)))
    np.testing.assert_allclose((a + b).comps, a.comps + b.comps)
    np.testing.assert_allclose((a - b).comps, a.comps - b.comps)
    np.testing.assert_allclose((2.5 * a).comps, a.comps * 2.5)
    np.testing.assert_allclose((-a).comps, -a.comps)
    # results are adopted, not copied, and frozen like any signal
    for out in (a + b, a - b, 2.5 * a, -a, a.conjugate()):
        assert out.comps.flags.c_contiguous and not out.comps.flags.writeable


@pytest.mark.parametrize("op", [QSignal2D.__add__, QSignal2D.__sub__], ids=["add", "sub"])
def test_arithmetic_refuses_mismatched_grids(op):
    # numpy alone would broadcast the 1 x 1 grid to a 3 x 5 result
    with pytest.raises(ValueError, match=r"\(1, 1\) vs \(3, 5\)"):
        op(QSignal2D.zeros(1, 1), QSignal2D.zeros(3, 5))


def test_conjugate():
    sig = QSignal2D.from_components([[1.0]], [[2.0]], [[3.0]], [[4.0]])
    assert sig.conjugate().at(0, 0) == Quaternion(1, -2, -3, -4)


def test_deviation_metrics():
    a = QSignal2D.from_components([[1.0, 0.0], [0.0, 0.0]])
    b = QSignal2D.from_components([[0.0, 0.0], [0.0, 2.0]])
    assert max_deviation(a, a) == 0.0
    assert max_deviation(a, b) == pytest.approx(2.0)
    assert rel_deviation(a, b) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        max_deviation(a, QSignal2D.zeros(3, 3))
