import numpy as np
import pytest

from dqqpft.quaternion import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    qconj,
    qmul,
    qnorm_sq,
)


def rand_q(rng):
    return Quaternion(*rng.uniform(-3, 3, size=4))


def test_hamilton_table():
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * I == J
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE
    assert I * J * K == -ONE


def test_mul_identity_and_hand_example():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = rand_q(rng)
        assert ONE * q == q
        assert q * ONE == q
    # (1 + i) * j expands to j + k by the table
    assert (ONE + I) * J == Quaternion(0, 0, 1, 1)


def test_noncommutativity_witness():
    assert I * J == -(J * I)


def test_conjugate_sign_pattern():
    q = Quaternion(1, 1, 1, 1)
    assert q.conjugate() == Quaternion(1, -1, -1, -1)


def test_conjugate_is_anti_involution():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p, q = rand_q(rng), rand_q(rng)
        assert p.conjugate().conjugate() == p
        lhs = (p * q).conjugate()
        rhs = q.conjugate() * p.conjugate()
        assert (lhs - rhs).norm() < 1e-12 * max(lhs.norm(), 1.0)
    # concrete instance: conj(i*j) = -k = conj(j)*conj(i)
    assert (I * J).conjugate() == -K
    assert J.conjugate() * I.conjugate() == -K


def test_norm_examples():
    assert Quaternion(1, 1, 1, 1).norm_sq() == 4.0
    assert Quaternion().norm_sq() == 0.0
    assert Quaternion(3, 0, 4, 0).norm() == 5.0


def test_norm_is_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p, q = rand_q(rng), rand_q(rng)
        got = (p * q).norm_sq()
        want = p.norm_sq() * q.norm_sq()
        assert got == pytest.approx(want, rel=1e-12)
        assert (p * q).norm() == pytest.approx(p.norm() * q.norm(), rel=1e-12)


def test_scalar_part_cyclic_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(100):
        f, g, h = rand_q(rng), rand_q(rng), rand_q(rng)
        s = (f * g * h).w
        assert (h * f * g).w == pytest.approx(s, abs=1e-12 * max(1.0, abs(s)))
        assert (g * h * f).w == pytest.approx(s, abs=1e-12 * max(1.0, abs(s)))


def test_complex_embedding_is_ring_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = complex(*rng.uniform(-2, 2, size=2))
        b = complex(*rng.uniform(-2, 2, size=2))
        qa, qb = Quaternion(a.real, a.imag), Quaternion(b.real, b.imag)
        prod, total = a * b, a + b
        assert (qa * qb - Quaternion(prod.real, prod.imag)).norm() < 1e-12
        assert qa + qb == Quaternion(total.real, total.imag)


def test_embedded_complex_commutes_past_j_with_conjugation():
    rng = np.random.default_rng(6)
    for _ in range(50):
        c = complex(*rng.uniform(-2, 2, size=2))
        assert Quaternion(c.real, c.imag) * J == J * Quaternion(c.real, -c.imag)


def test_qmul_matches_scalar_product():
    rng = np.random.default_rng(7)
    p = rng.uniform(-2, 2, size=(5, 3, 4))
    q = rng.uniform(-2, 2, size=(5, 3, 4))
    got = qmul(p, q)
    for idx in np.ndindex(5, 3):
        want = Quaternion.from_array(p[idx]) * Quaternion.from_array(q[idx])
        np.testing.assert_allclose(got[idx], want.to_array(), rtol=0, atol=0)


def test_qconj_and_qnorm_sq():
    rng = np.random.default_rng(8)
    q = rng.uniform(-2, 2, size=(4, 4, 4))
    c = qconj(q)
    np.testing.assert_array_equal(c[..., 0], q[..., 0])
    np.testing.assert_array_equal(c[..., 1:], -q[..., 1:])
    np.testing.assert_allclose(qnorm_sq(q), np.sum(q * q, axis=-1), rtol=1e-15)
