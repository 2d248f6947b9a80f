import os
import threading
from decimal import Decimal
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqqpft.io import (
    PpmError,
    QcsvError,
    _format_samples,
    _loop_body,
    _parse_samples,
    read_image_ppm,
    read_qcsv,
    write_image_ppm,
    write_qcsv,
)
from dqqpft.fast import forward_fast, make_plan
from dqqpft.params import ParameterError, format_param_pair, preset_qft
from dqqpft.signal import QSignal2D
from dqqpft.transform import LEFT_SIDED, make_config
from oracles import rand_cfg, rand_signal, traced_peak


def test_qcsv_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    cfg = rand_cfg(rng, 3, 4)
    sig = rand_signal(rng, 3, 4)
    path = tmp_path / "sig.qcsv"
    write_qcsv(path, sig, cfg)
    back, back_cfg = read_qcsv(path)
    np.testing.assert_array_equal(back.comps, sig.comps)
    assert back_cfg.p1 == cfg.p1 and back_cfg.p2 == cfg.p2
    assert back_cfg.grid == cfg.grid


def test_write_qcsv_refuses_one_sided_config_before_opening_the_file(tmp_path):
    # qcsv has no side field: a left-sided spectrum would read back as two-sided
    rng = np.random.default_rng(0)
    base = rand_cfg(rng, 4, 5)
    cfg = make_config(base.p1, base.p2, 4, 5, base.grid.dt1, base.grid.dt2, LEFT_SIDED)
    path = tmp_path / "left.qcsv"
    with pytest.raises(ParameterError, match="qcsv.*left_sided"):
        write_qcsv(path, rand_signal(rng, 4, 5), cfg)
    assert not path.exists()


def test_qcsv_truncated_body_names_missing_line(tmp_path):
    rng = np.random.default_rng(1)
    cfg = rand_cfg(rng, 2, 2)
    path = tmp_path / "sig.qcsv"
    write_qcsv(path, rand_signal(rng, 2, 2), cfg)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(QcsvError) as err:
        read_qcsv(path)
    assert "missing sample 3 of 4" in str(err.value)
    assert err.value.line == 8  # one past the last body line
    # a huge header over a one-sample body fails the same way, without
    # reserving memory for the 10**10 samples the header claims
    path.write_text("100000,100000\n1,1\n0,1,0,0,0:0,1,0,0,0\n1,0,0,0\n")
    with pytest.raises(QcsvError) as err:
        read_qcsv(path)
    assert "missing sample 1 of 10000000000" in str(err.value)
    assert err.value.line == 5


def test_qcsv_extra_body_line(tmp_path):
    rng = np.random.default_rng(2)
    cfg = rand_cfg(rng, 2, 2)
    path = tmp_path / "sig.qcsv"
    write_qcsv(path, rand_signal(rng, 2, 2), cfg)
    path.write_text(path.read_text() + "1,2,3,4\n")
    with pytest.raises(QcsvError, match="extra sample line"):
        read_qcsv(path)


def test_qcsv_header_with_zero_b(tmp_path):
    path = tmp_path / "bad.qcsv"
    path.write_text("2,2\n1,1\n0,0,0,0,0:0,1,0,0,0\n" + "1,0,0,0\n" * 4)
    with pytest.raises(QcsvError, match="b must be nonzero"):
        read_qcsv(path)


def test_qcsv_header_whose_phase_overflows_is_refused_before_the_body(tmp_path):
    # du = 2*pi/(2*1e-310) overflows; the bad sample on line 4 must not hide it
    path = tmp_path / "bad.qcsv"
    path.write_text("2,2\n1e-310,1\n0,1,0,0,0:0,1,0,0,0\nx,0,0,0\n" + "1,0,0,0\n" * 3)
    with pytest.raises(QcsvError, match="^axis 1: kernel phase overflows float64"):
        read_qcsv(path)


def test_qcsv_malformed_header(tmp_path):
    path = tmp_path / "bad.qcsv"
    path.write_text("2\n1,1\n0,1,0,0,0:0,1,0,0,0\n" + "1,0,0,0\n" * 4)
    with pytest.raises(QcsvError, match="line 1"):
        read_qcsv(path)
    path.write_text("2,2\n1,oops\n0,1,0,0,0:0,1,0,0,0\n" + "1,0,0,0\n" * 4)
    with pytest.raises(QcsvError, match="line 2"):
        read_qcsv(path)


def test_qcsv_non_finite_sample_cites_line(tmp_path):
    path = tmp_path / "bad.qcsv"
    path.write_text("2,2\n1,1\n0,1,0,0,0:0,1,0,0,0\n1,0,0,0\n2,0,0,0\nnan,0,0,0\n4,0,0,0\n")
    with pytest.raises(QcsvError) as err:
        read_qcsv(path)
    assert err.value.line == 6
    assert "non-finite" in str(err.value)


def test_qcsv_wrong_sample_arity(tmp_path):
    path = tmp_path / "bad.qcsv"
    path.write_text("1,1\n1,1\n0,1,0,0,0:0,1,0,0,0\n1,0,0\n")
    with pytest.raises(QcsvError, match="expected 4"):
        read_qcsv(path)


def test_qcsv_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "ok.qcsv"
    path.write_text("# comment\n\n1,1\n# another\n1,1\n0,1,0,0,0:0,1,0,0,0\n\n7,0,0,0\n")
    sig, cfg = read_qcsv(path)
    assert sig.at(0, 0).w == 7.0


def wide_range_comps(rng, n1, n2):
    """Samples whose exponents span most of the float64 range."""
    return rng.standard_normal((n1, n2, 4)) * 10.0 ** rng.integers(-300, 300, size=(n1, n2, 4))


def window_comps(rng, n1, n2):
    """Samples of magnitude 1e-4 to 1e17, most of them printed without an exponent."""
    return rng.uniform(-1.0, 1.0, (n1, n2, 4)) * 10.0 ** rng.integers(-3, 18, size=(n1, n2, 4))


# 257**2 rows span 65 write blocks
@pytest.mark.parametrize("n1, n2, comps_of", [
    pytest.param(257, 3, wide_range_comps, id="257-3"),
    pytest.param(257, 257, wide_range_comps, id="257-257"),
    pytest.param(257, 257, window_comps, id="257-257-window"),
])
def test_write_qcsv_matches_per_value_formatting(tmp_path, n1, n2, comps_of):
    rng = np.random.default_rng(10)
    cfg = rand_cfg(rng, n1, n2)
    comps = comps_of(rng, n1, n2)
    comps.flat[:6] = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]
    path = tmp_path / "sig.qcsv"
    write_qcsv(path, QSignal2D(comps), cfg)
    g = cfg.grid
    rows = [
        "# dqqpft qcsv: n1,n2 / dt1,dt2 / params / w,x,y,z samples",
        f"{g.n1},{g.n2}",
        f"{g.dt1:.17g},{g.dt2:.17g}",
        format_param_pair(cfg.p1, cfg.p2),
    ]
    rows.extend(",".join(f"{v:.17g}" for v in sample) for sample in comps.reshape(-1, 4))
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode("ascii")


def per_value_lines(block) -> bytes:
    """Sample lines of a ``(rows, 4)`` block by per-value ``%.17g``, the format's definition."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist()).encode("ascii")


def both_signs_in_rows(values):
    """``values`` and their negations as rows of four, the last row padded with zeros."""
    flat = np.concatenate([values, -np.asarray(values)])
    return np.concatenate([flat, np.zeros(-len(flat) % 4)]).reshape(-1, 4)


# the bit patterns of the values %.17g prints without an exponent, |v| in [1e-4, 1e17)
WINDOW_BITS = (int(np.float64(1e-4).view(np.int64)), int(np.float64(1e17).view(np.int64)) - 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(*WINDOW_BITS), st.booleans()), min_size=1, max_size=64))
def test_sample_kernel_matches_per_value_formatting_in_the_window(draws):
    bits = np.array([b for b, _ in draws], dtype=np.int64)
    values = np.where([neg for _, neg in draws], -1.0, 1.0) * bits.view(np.float64)
    block = np.concatenate([values, np.ones(-len(values) % 4)]).reshape(-1, 4)
    assert _format_samples(block) == per_value_lines(block)


def decade_neighbours():
    """The doubles within 50 ulps of each power of ten from 1e-5 to 1e17."""
    bits = np.array([np.float64(f"1e{e}").view(np.int64) for e in range(-5, 18)])
    return (bits[:, None] + np.arange(-50, 51)).ravel().view(np.float64)


def largest_below_powers_of_ten():
    """The largest double below each power of ten from 1e-3 to 1e17: the closest
    any value of a window decade comes to rounding up to the next one."""
    tops = []
    for e in range(-3, 18):
        power = Fraction(10) ** e
        top = float(power)
        if Fraction(top) >= power:
            top = float(np.nextafter(top, 0.0))
        tops.append(top)
    return np.array(tops)


def rounding_ties():
    """Values whose 17-digit rounding is an exact tie: q/2**(j+1) with q odd,
    in the decade k = 16 - j, so that |v|·10**j = q·5**j/2."""
    rng = np.random.default_rng(15)
    ties = []
    for j in range(1, 21):
        lo = -(-2 ** (j + 1) * Fraction(10) ** (16 - j) // 1)
        hi = min(2**53, 2 ** (j + 1) * Fraction(10) ** (17 - j) // 1)
        q = 2 * rng.integers(lo // 2, hi // 2, size=200) + 1
        ties.append(q / 2.0 ** (j + 1))
        scaled = [Fraction(v) * Fraction(10) ** j for v in ties[-1]]
        assert all(10**16 <= x < 10**17 and x.denominator == 2 for x in scaled)
    return np.concatenate(ties)


def format_edges():
    """Zero, the smallest subnormal and the largest double: the per-value fallback."""
    return np.array([0.0, 5e-324, 1.7976931348623157e308])


@pytest.mark.parametrize("corpus", [decade_neighbours, largest_below_powers_of_ten,
                                    rounding_ties, format_edges])
def test_sample_kernel_matches_per_value_formatting_on_edge_cases(corpus):
    block = both_signs_in_rows(corpus())
    assert _format_samples(block) == per_value_lines(block)


def test_no_window_value_rounds_up_to_the_next_power_of_ten():
    # the kernel's 17-digit integer never carries into an 18th digit
    for e, top in zip(range(-3, 18), largest_below_powers_of_ten()):
        scaled = Fraction(top) * Fraction(10) ** (17 - e)  # 17 digits in the decade below 10**e
        assert 10**16 <= scaled <= 10**17 - 8


def test_qcsv_roundtrip_is_bit_exact_at_96x250(tmp_path):
    rng = np.random.default_rng(11)
    cfg = rand_cfg(rng, 96, 250)
    sig = QSignal2D(wide_range_comps(rng, 96, 250))
    path = tmp_path / "sig.qcsv"
    write_qcsv(path, sig, cfg)
    back, _ = read_qcsv(path)
    np.testing.assert_array_equal(back.comps, sig.comps)
    assert_blocks_read_as_the_loop_reads_them(path.read_text().splitlines()[4:])


def assert_blocks_read_as_the_loop_reads_them(body):
    """``_parse_samples`` takes each 4096-line block of ``body``, every one
    holding exponent forms, to the bits the line loop gives."""
    for start in range(0, len(body), 4096):
        block = body[start:start + 4096]
        assert any("e" in line for line in block)
        kernel = _parse_samples("".join(line + "\n" for line in block).encode("ascii"))
        assert kernel is not None
        expected = _loop_body(enumerate(block), 0, len(block))
        np.testing.assert_array_equal(kernel.view(np.int64), expected.view(np.int64))


def smooth_spectrum(n):
    """The ``qft`` spectrum of the smooth n×n image R, G, B = 255·x, 255·y,
    255·x·y, rounded: a few of its values in most blocks lie below 1e-4."""
    y, x = np.meshgrid(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n), indexing="ij")
    comps = np.zeros((n, n, 4))
    comps[..., 1:] = np.rint(255.0 * np.stack([x, y, x * y], axis=-1))
    cfg = make_config(*preset_qft(), n, n)
    return forward_fast(QSignal2D(comps), make_plan(cfg)), cfg


def test_smooth_spectrum_blocks_are_read_as_the_loop_reads_them(tmp_path):
    spec, cfg = smooth_spectrum(128)
    path = tmp_path / "spec.qcsv"
    write_qcsv(path, spec, cfg)
    assert_blocks_read_as_the_loop_reads_them(path.read_text().splitlines()[4:])


def test_qcsv_body_printed_as_savetxt_prints_is_read_to_the_bits_of_float(tmp_path):
    # numpy.savetxt's default %.18e: 19 digits and 25-byte fields, each with an exponent
    rng = np.random.default_rng(18)
    lines = [",".join("%.18e" % v for v in row)
             for row in wide_range_comps(rng, 50, 100).reshape(-1, 4).tolist()]
    assert max(len(v) for line in lines for v in line.split(",")) >= 25
    path = tmp_path / "spec18.qcsv"
    path.write_text("50,100\n1,1\n0,1,0,0,0:0,1,0,0,0\n" + "".join(line + "\n" for line in lines))
    sig, _ = read_qcsv(path)
    expected = np.array([[float(v) for v in line.split(",")] for line in lines])
    np.testing.assert_array_equal(sig.comps.reshape(-1, 4).view(np.int64), expected.view(np.int64))
    assert_blocks_read_as_the_loop_reads_them(lines)


def assert_read_as_float(texts):
    """``_parse_samples`` on one line per text, ``text,1,-1,0``: each line's
    value equals ``float(text)`` bit for bit."""
    for text in texts:
        values = _parse_samples(f"{text},1,-1,0\n".encode("ascii"))
        assert values is not None, text
        expected = np.array([float(text), 1.0, -1.0, 0.0])
        np.testing.assert_array_equal(values.ravel().view(np.int64), expected.view(np.int64))


def fixed_notation(text):
    """A decimal numeral without its exponent: "1.5e-05" as "0.000015"."""
    return format(Decimal(text), "f")


# the bit patterns of 1e-7 to 1e20: more digits than the kernel takes at both ends
PRINTED_BITS = (int(np.float64(1e-7).view(np.int64)), int(np.float64(1e20).view(np.int64)))
# every finite double's bits: zero, subnormals, and |v| >= 1e17 printed with e+NN
FINITE_BITS = (0, int(np.float64(np.finfo(np.float64).max).view(np.int64)))
# %.{1..17}g, %.{0..18}e, repr and the writer's own text
PRINTED_FORMS = ([f"%.{d}g" for d in range(1, 18)] + [f"%.{d}e" for d in range(19)]
                 + ["repr", "writer"])


def printed(v, form, fixed):
    """``v`` printed in ``form``, its exponent written out if ``fixed``."""
    if form == "repr":
        text = repr(v)
    elif form == "writer":
        text = _format_samples(np.array([[v, 0.0, 0.0, 0.0]])).split(b",")[0].decode("ascii")
    else:
        text = form % v
    return fixed_notation(text) if fixed else text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.one_of(st.integers(*PRINTED_BITS), st.integers(*FINITE_BITS)),
                          st.sampled_from(PRINTED_FORMS), st.booleans(), st.booleans()),
                min_size=1, max_size=32))
def test_decimal_kernel_is_exact_or_refuses(draws):
    # forms mixed within one block: the kernel's values and float's, side by side
    texts = []
    for bits, form, fixed, negative in draws:
        v = float(np.int64(bits).view(np.float64))
        texts.append(printed(-v if negative else v, form, fixed))
    texts += ["0"] * (-len(texts) % 4)
    lines = [",".join(texts[i:i + 4]) for i in range(0, len(texts), 4)]
    values = _parse_samples("".join(line + "\n" for line in lines).encode("ascii"))
    assert values is not None
    expected = np.array([[float(v) for v in line.split(",")] for line in lines])
    np.testing.assert_array_equal(values.view(np.int64), expected.view(np.int64))


def near_half_way_points(digits):
    """Decimals of ``digits`` significant digits within 1e-17 (relative) of
    the point half way between two doubles, from 1e-3 to 1e17, and the
    exact half-way points among them."""
    rng = np.random.default_rng(16)
    texts, ties = [], []
    for x in rng.uniform(1.0, 10.0, 400) * 10.0 ** rng.integers(-3, 17, 400):
        mid = (Fraction(float(x)) + Fraction(float(np.nextafter(x, np.inf)))) / 2
        exp = len(str(int(mid))) - digits if mid >= 1 else -digits - len(str(int(1 / mid)))
        near = round(mid / Fraction(10) ** exp)
        if abs(near * Fraction(10) ** exp - mid) <= mid * Fraction(1, 10**17):
            texts.append(format(Decimal(near).scaleb(exp), "f"))
            if near * Fraction(10) ** exp == mid:
                ties.append(texts[-1])
    return texts, ties


DECIMAL_HARD_CASES = [
    # exact half-way points between two doubles
    "9007199254740993", "9007199254740993.0", "18014398509481986", "-18014398509481986",
    # point, sign and zero forms
    "5.", ".5", "-.5", "0", "-0", "-0.0", "00.000", "-000012.50",
    # 19 and 20 digits
    "1234567890123456789", "-9999999999999999999", "12345678901234567890",
    "0.1234567890123456789", "123456789.0123456789",
    # 22 to 24 bytes, most of them leading zeros
    "0.00012345678901234567", "-0.00012345678901234567", "-0.000123456789012345678",
    "-0.000000000000000000001", ".0000000000000000000001", "-1234567890.1234567890",
]
# numerals the kernel leaves to float, which takes them
FLOAT_NUMERALS = ["+1", "1e5", "1_0"]
NOT_NUMERALS = [".", "-", "--1", "1.2.3", "-.", "", "1-", " 1", "0x10"]


def test_decimal_kernel_hard_cases():
    # the exact ties and the 19- and 20-digit texts are left to float
    assert_read_as_float(DECIMAL_HARD_CASES + FLOAT_NUMERALS)
    # 17 digits near a half-way point, the exact ties among them; at 18 a
    # point inside the numeral makes 19 positions, left to float too
    near, ties = near_half_way_points(17)
    assert len(ties) > 5 and len(near) > len(ties) + 50
    assert_read_as_float(near)
    assert_read_as_float(near_half_way_points(18)[0])
    for text in NOT_NUMERALS:
        assert _parse_samples(f"{text},1,-1,0\n".encode("ascii")) is None, text


def test_decimal_kernel_takes_only_whole_sample_lines():
    for chunk in [b"1,2,3,4", b"1,2,3\n", b"1,2,3,4,5\n", b"1,2,3,4\r\n", b"1,2,3,4\n\n",
                  b"1,2,3,4\n# c\n", b"1,,3,4\n", b"1,2;3,4\n", b"1,2,3,4 \n"]:
        assert _parse_samples(chunk) is None, chunk
    np.testing.assert_array_equal(_parse_samples(b"1,2,3,4\n-5,6.5,.25,0\n"),
                                  [[1, 2, 3, 4], [-5, 6.5, 0.25, 0]])


HEADER_2X2 = "2,2\n1,1\n0,1,0,0,0:0,1,0,0,0\n"  # samples start on line 4


@pytest.mark.parametrize("body", [
    "1_0,0,0,0\n2,0,0,0\n3,0,0,0\n4,0,0,0\n",
    "10,0,0,0\r\n2,0,0,0\r\n3,0,0,0\r\n4,0,0,0\r\n",
    "10,0,0,0\n2,0,0,0\n# mid-body comment\n\n3,0,0,0\n4,0,0,0\n",
], ids=["underscore-digits", "crlf", "comment-and-blank-line"])
def test_qcsv_bodies_taken_by_float_the_kernel_and_the_line_loop_are_accepted(tmp_path, body):
    # "1_0" is read by float in place, the CRLF body by the kernel once text
    # mode turns "\r\n" into "\n", and the mid-body comment by the line loop
    path = tmp_path / "ok.qcsv"
    path.write_bytes((HEADER_2X2 + body).encode("ascii"))
    sig, _ = read_qcsv(path)
    np.testing.assert_array_equal(sig.w, [[10.0, 2.0], [3.0, 4.0]])


def test_qcsv_cr_only_body_is_read_with_its_line_numbers(tmp_path):
    # text mode reads a lone "\r" as a line end, as loadtxt and the loop see it
    path = tmp_path / "cr.qcsv"
    path.write_bytes(b"2,2\r1,1\r0,1,0,0,0:0,1,0,0,0\r10,0,0,0\r2,0,0,0\r3,0,0,0\r4,-0,.5,0\r")
    sig, _ = read_qcsv(path)
    np.testing.assert_array_equal(sig.w, [[10.0, 2.0], [3.0, 4.0]])
    assert np.signbit(sig.x[1, 1]) and sig.y[1, 1] == 0.5
    path.write_bytes((HEADER_2X2 + "10,0,0,0\r2,0,0,0\r3,x,0,0\r4,0,0,0\r").encode("ascii"))
    with pytest.raises(QcsvError, match="is not a number") as err:
        read_qcsv(path)
    assert err.value.line == 6


def test_qcsv_block_with_one_exponent_is_read_as_the_loop_reads_it(tmp_path):
    rng = np.random.default_rng(17)
    values = np.round(rng.uniform(-100.0, 100.0, (64 * 64, 4)), 6)
    lines = [",".join(repr(v) for v in row) for row in values.tolist()]
    lines[1000] = "1.5e-05,-2.5E+3,0,1"  # one block of 4096 lines holds exponents
    path = tmp_path / "exp.qcsv"
    path.write_text("64,64\n1,1\n0,1,0,0,0:0,1,0,0,0\n" + "".join(line + "\n" for line in lines))
    with open(path) as fh:
        block = list(islice(fh, 3, None))
    assert len(block) == 4096 and _parse_samples("".join(block).encode("ascii")) is not None
    expected = _loop_body(enumerate(block), 0, 4096)
    np.testing.assert_array_equal(expected[1000], [1.5e-05, -2500.0, 0.0, 1.0])
    sig, _ = read_qcsv(path)
    np.testing.assert_array_equal(sig.comps.reshape(-1, 4).view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("body, line, message", [
    ("1,0,0,0\n2,0,0,0 # c\n3,0,0,0\n4,0,0,0\n", 5, "is not a number"),
    ("1,0,0,0,0\n" * 4, 4, "expected 4"),
    ("1,0,0\n" * 4, 4, "expected 4"),
    ("1,0,0,0\ninf,0,0,0\n3,0,0,0\n4,0,0,0\n", 5, "non-finite"),
    ("1,0,0,0\n2,0,0,0\n3,0,1e400,0\n4,0,0,0\n", 6, "non-finite"),
], ids=["inline-comment", "five-columns", "three-columns", "inf", "overflow"])
def test_qcsv_bad_body_cites_its_line(tmp_path, body, line, message):
    path = tmp_path / "bad.qcsv"
    path.write_text(HEADER_2X2 + body)
    with pytest.raises(QcsvError, match=message) as err:
        read_qcsv(path)
    assert err.value.line == line


@pytest.mark.parametrize("text, line", [
    ("2,2\n1,1\n0,1,0,0,0:0,1,0,0,0\u00b5\n" + "1,0,0,0\n" * 4, 3),
    (HEADER_2X2 + "1,0,0,0\n2,0,0,0\n3,\u00e9,0,0\n4,0,0,0\n", 6),
    (HEADER_2X2 + "1,0,0,0\n# na\u00efve\n2,0,0,0\n3,0,0,0\n4,0,0,0\n", 5),
], ids=["header", "sample", "comment"])
def test_qcsv_non_ascii_byte_names_its_line(tmp_path, text, line):
    path = tmp_path / "bad.qcsv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(QcsvError, match="non-ASCII byte 0xc") as err:
        read_qcsv(path)
    assert err.value.line == line


def test_qcsv_roundtrip_keeps_the_bits_of_values_formatted_by_percent(tmp_path):
    # zero, subnormals and |v| >= 1e17 are written by % ("-0", "5e-324",
    # "1e+17"); their neighbours in the window by the writer's kernel
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
             -2.225073858507201e-308, 9.9999999999999e-05, 1e-4, -1e-4, 99999999999999984.0,
             1e17, -1e17, 1.2345678901234567e17, 1.7976931348623157e308,
             -1.7976931348623157e308, 0.1, -1 / 3, 2.0**53 + 2, -(2.0**60)]
    comps = np.array(edges).reshape(5, 1, 4)
    path = tmp_path / "edges.qcsv"
    write_qcsv(path, QSignal2D(comps), make_config(*preset_qft(), 5, 1))
    back, _ = read_qcsv(path)
    np.testing.assert_array_equal(back.comps.view(np.int64), comps.view(np.int64))
    np.testing.assert_array_equal(np.signbit(back.comps), np.signbit(comps))


def signal_256x512(comps_of=wide_range_comps):
    rng = np.random.default_rng(13)
    return QSignal2D(comps_of(rng, 256, 512)), rand_cfg(rng, 256, 512)


def test_read_qcsv_memory_is_about_one_grid(tmp_path):
    # the body is read in blocks: the samples plus their concatenation,
    # never the file as one string
    sig, cfg = signal_256x512()
    path = tmp_path / "sig.qcsv"
    write_qcsv(path, sig, cfg)
    assert traced_peak(read_qcsv, path) <= 3 * sig.comps.nbytes


def test_write_qcsv_memory_is_below_one_grid(tmp_path):
    for comps_of in (wide_range_comps, window_comps):
        sig, cfg = signal_256x512(comps_of)
        assert traced_peak(write_qcsv, tmp_path / "sig.qcsv", sig, cfg) <= sig.comps.nbytes


def test_qcsv_huge_header_reserves_no_memory(tmp_path):
    path = tmp_path / "huge.qcsv"
    path.write_text("100000,100000\n1,1\n0,1,0,0,0:0,1,0,0,0\n1,0,0,0\n")

    def read_truncated():
        with pytest.raises(QcsvError, match="missing sample 1 of 10000000000"):
            read_qcsv(path)

    assert traced_peak(read_truncated) < 2**20


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_qcsv_is_read_from_a_pipe(tmp_path):
    rng = np.random.default_rng(14)
    cfg = rand_cfg(rng, 70, 70)  # 4900 sample lines: more than one read block
    path = tmp_path / "sig.qcsv"
    write_qcsv(path, rand_signal(rng, 70, 70), cfg)
    fifo = tmp_path / "sig.fifo"
    os.mkfifo(fifo)
    data = path.read_bytes()

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        piped, piped_cfg = read_qcsv(fifo)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    sig, file_cfg = read_qcsv(path)
    np.testing.assert_array_equal(piped.comps, sig.comps)
    assert piped_cfg == file_cfg


def test_ppm_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    rgb = rng.integers(0, 256, size=(5, 7, 3))
    sig = QSignal2D.from_components(np.zeros((5, 7)), rgb[..., 0], rgb[..., 1], rgb[..., 2])
    path = tmp_path / "img.ppm"
    write_image_ppm(path, sig, "pure")
    back = read_image_ppm(path, "pure")
    np.testing.assert_array_equal(back.comps, sig.comps)


def test_ppm_ascii_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    rgb = rng.integers(0, 256, size=(3, 2, 3))
    sig = QSignal2D.from_components(np.zeros((3, 2)), rgb[..., 0], rgb[..., 1], rgb[..., 2])
    path = tmp_path / "img.ppm"
    write_image_ppm(path, sig, "pure", magic="P3")
    assert path.read_bytes().startswith(b"P3")
    back = read_image_ppm(path, "pure")
    np.testing.assert_array_equal(back.comps, sig.comps)


def test_ppm_ascii_matches_binary_at_256x512(tmp_path):
    rng = np.random.default_rng(12)
    rgb = rng.integers(0, 256, size=(256, 512, 3))
    sig = QSignal2D.from_components(np.zeros((256, 512)), rgb[..., 0], rgb[..., 1], rgb[..., 2])
    write_image_ppm(tmp_path / "img3.ppm", sig, "pure", magic="P3")
    write_image_ppm(tmp_path / "img6.ppm", sig, "pure", magic="P6")
    p3 = read_image_ppm(tmp_path / "img3.ppm", "pure")
    np.testing.assert_array_equal(p3.comps, read_image_ppm(tmp_path / "img6.ppm", "pure").comps)
    np.testing.assert_array_equal(p3.comps, sig.comps)


def test_ppm_ascii_raster_comments_and_trailing_tokens(tmp_path):
    path = tmp_path / "img.ppm"
    # a '#' opens a comment only at the start of a token; tokens after the
    # last sample are never parsed
    path.write_bytes(b"P3\n2 1\n255\n1 2 3\r\n# 7 7 7\r\n4\t5 6 #x\n junk 12#34 999\n")
    sig = read_image_ppm(path, "pure")
    np.testing.assert_array_equal(sig.comps, [[[0, 1, 2, 3], [0, 4, 5, 6]]])


@pytest.mark.parametrize("raster, message", [
    (b"1 2 12#34", "non-integer"),
    (b"1 2 256", "8-bit range"),
    (b"1 2 " + b"9" * 400, "8-bit range"),
    (b"1 2 # 3", "truncated raster: expected 3 values, found 2"),
], ids=["hash-inside-token", "256", "past-float64", "truncated"])
def test_ppm_ascii_raster_errors(tmp_path, raster, message):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P3\n1 1\n255\n" + raster + b"\n")
    with pytest.raises(PpmError, match=message):
        read_image_ppm(path)


def test_ppm_luminance_grey_example(tmp_path):
    grey = np.array([[35, 30], [25, 20]], dtype=np.uint8)
    path = tmp_path / "grey.ppm"
    with open(path, "wb") as fh:
        fh.write(b"P6\n2 2\n255\n" + np.repeat(grey.reshape(-1), 3).astype(np.uint8).tobytes())
    sig = read_image_ppm(path, "luminance")
    np.testing.assert_array_equal(sig.w, [[35.0, 30.0], [25.0, 20.0]])
    np.testing.assert_array_equal(sig.comps[..., 1:], 0)
    out = tmp_path / "back.ppm"
    write_image_ppm(out, sig, "luminance")
    np.testing.assert_array_equal(read_image_ppm(out, "luminance").w, sig.w)


def test_ppm_red_only_maps_to_x_component(tmp_path):
    path = tmp_path / "red.ppm"
    with open(path, "wb") as fh:
        fh.write(b"P6\n2 1\n255\n" + bytes([200, 0, 0, 200, 0, 0]))
    sig = read_image_ppm(path, "pure")
    np.testing.assert_array_equal(sig.x, [[200.0, 200.0]])
    np.testing.assert_array_equal(sig.w, 0)
    np.testing.assert_array_equal(sig.y, 0)
    np.testing.assert_array_equal(sig.z, 0)


def test_ppm_pure_write_discards_w_and_clamps(tmp_path):
    sig = QSignal2D.from_components([[9.0]], [[300.25]], [[-4.0]], [[128.4]])
    path = tmp_path / "img.ppm"
    write_image_ppm(path, sig, "pure")
    back = read_image_ppm(path, "pure")
    assert back.at(0, 0).x == 255.0
    assert back.at(0, 0).y == 0.0
    assert back.at(0, 0).z == 128.0
    assert back.at(0, 0).w == 0.0


def test_ppm_rejects_bad_magic_and_depth(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(PpmError, match="magic"):
        read_image_ppm(path)
    path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(PpmError, match="8-bit"):
        read_image_ppm(path)


def test_ppm_truncated_raster(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(PpmError, match="truncated"):
        read_image_ppm(path)


def test_ppm_header_comments(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6 # magic\n# size next\n1 1\n255\n" + bytes([1, 2, 3]))
    sig = read_image_ppm(path, "pure")
    assert sig.at(0, 0).x == 1.0


def test_write_qcsv_dimension_check(tmp_path):
    p1, p2 = preset_qft()
    cfg = make_config(p1, p2, 2, 2)
    with pytest.raises(ValueError):
        write_qcsv(tmp_path / "x.qcsv", QSignal2D.zeros(3, 3), cfg)
