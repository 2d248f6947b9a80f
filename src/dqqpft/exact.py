"""Error-free float64 transformations: exact products and sums as two doubles.

Veltkamp's split and Dekker's two-product (T. J. Dekker, "A floating-point
technique for extending the available precision", Numer. Math. 18, 1971)
and Knuth's two-sum, with no fused multiply-add.  Each returns the
rounded result together with its rounding error, whose sum is exact
wherever no intermediate overflows or underflows.  The qcsv writer and
reader use the two-product to scale by powers of ten exactly, the kernel
phases to evaluate their polynomial in double-double.
"""

from __future__ import annotations

_VELTKAMP = 2.0 ** 27 + 1


def _veltkamp(x):
    """x split exactly into a high and a low part of at most 26 bits each.

    The split computes (2**27 + 1)*x, which overflows for |x| above about
    1.3e300; callers that can meet such values guard the result.
    """
    t = _VELTKAMP * x
    hi = t - (t - x)
    return hi, x - hi


def _two_product(a, b, b_split=None):
    """(p, e) with p + e == a*b exactly, p the rounded product.

    ``b_split`` is ``_veltkamp(b)``, for a caller that splits a table once.
    """
    p = a * b
    a_hi, a_lo = _veltkamp(a)
    b_hi, b_lo = _veltkamp(b) if b_split is None else b_split
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _two_sum(a, b):
    """(s, e) with s + e == a + b exactly, s the rounded sum."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)
