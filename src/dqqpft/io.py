"""File formats: qcsv quaternion grids and 8-bit PPM images.

qcsv is a line-oriented text format.  After optional comment lines
(starting with '#') and blank lines, the payload is

    n1,n2
    dt1,dt2
    a1,b1,c1,d1,e1:a2,b2,c2,d2,e2
    w,x,y,z          (n1*n2 sample lines, row-major: x1 outer, x2 inner)

There is no side field: ``write_qcsv`` refuses a one-sided config.

Values are written as ``%.17g`` (17 significant digits), so a write/read
round trip reproduces every float64 bit-exactly, and every line ends in
one line feed.  The writer formats the samples in blocks of rows.  A
value that ``%.17g`` prints without an exponent (1e-4 <= |v| < 1e17) goes
through an exact integer kernel in numpy: Dekker's two-product gives
|v|·10**j exactly, so its 17-digit rounding, half to even, is the one
``%`` makes, and the text is laid out from a table of digit groups.  Every
other value (zero, subnormals and the rest below 1e-4, and |v| >= 1e17)
goes through ``%`` itself, so the bytes are those of per-value ``%.17g``.
The reader parses the header line by line, then reads the body in blocks
of 4096 lines straight from the open file, so a file, or a pipe, is never
held as one string and the memory held is about one grid.  Like the writer,
the reader has two tiers:

1. An exact decimal kernel in numpy reads a block whose every line holds
   four comma-separated fields.  It takes a field ``-?D*[.D*]`` of at most
   23 bytes and 18 digit positions: it reads eight digits per 64-bit word
   into an integer D and divides it by 10**f, for f digits after the point.
   Below 2**53 that one IEEE division is correctly rounded.  Above, the
   quotient q is corrected by the remainder D - q·10**f, found exactly with
   the writer's two-product, to within 2**-49 ulp of D/10**f; a value within
   2**-30 ulp of a half-way point is left uncertified.  So every value it
   certifies is the one ``float`` gives, and it certifies the writer's 17
   digits in its window, which lie at least 1/21 ulp from a half-way point.
   ``float`` reads each other field in place, an exponent form among them,
   and every field of a block where such fields are the most.
2. A loop over the lines, which alone raises the sample errors, naming the
   bad line, reads a block with comments or blank lines among the samples,
   a field that ``float`` refuses or reads as non-finite, or extra samples.

A non-ASCII byte anywhere raises an error naming its line.

PPM support covers the 8-bit P3 (ASCII) and P6 (binary) flavours; a P3
raster is tokenised in bulk with one regular expression.  The
"pure" mapping stores pixel (R, G, B) in the (x, y, z) components with
w = 0; "luminance" stores the channel mean in w (exact for grey pixels).
On write, channels are rounded and clamped to [0, 255].
"""

from __future__ import annotations

import math
import re
from itertools import islice

import numpy as np

from .exact import _two_product, _veltkamp
from .params import ParameterError, _parse_floats, format_param_pair, parse_param_pair
from .signal import QSignal2D
from .transform import TransformConfig, _check_dims, _check_two_sided, make_config

__all__ = [
    "QcsvError",
    "PpmError",
    "MAPPINGS",
    "read_qcsv",
    "write_qcsv",
    "read_image_ppm",
    "write_image_ppm",
]

MAPPINGS = ("pure", "luminance")

# sample lines per read block: bounds the text held at once
_BLOCK_ROWS = 1 << 12
# sample lines per write block: the kernel's arrays (about 0.8 MB) stay in cache
_WRITE_ROWS = 1 << 10
# a PPM token, or a comment: '#' opens one only at the start of a token
_PPM_TOKEN = re.compile(rb"#[^\r\n]*|[^ \t\r\n]+")


class QcsvError(ValueError):
    """Malformed qcsv content; ``line`` is the 1-based offending line."""

    def __init__(self, line: int | None, message: str):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class PpmError(ValueError):
    """Unsupported or malformed PPM content."""


def _payload_lines(lines, first: int = 1):
    """(line number, stripped text) of the lines that are neither blank nor comments.

    ``lines`` are numbered from ``first``.  A line holding a byte past
    ASCII (read as an escaped surrogate) raises, naming that line.
    """
    for lineno, raw in enumerate(lines, start=first):
        if not raw.isascii():
            byte = next(ord(ch) - 0xDC00 for ch in raw if not ch.isascii())
            raise QcsvError(lineno, f"non-ASCII byte 0x{byte:02x}; qcsv is ASCII text")
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def _split_floats(lineno: int, text: str, count: int, what: str) -> list[float]:
    try:
        return _parse_floats(text, count, what)
    except ParameterError as exc:
        raise QcsvError(lineno, str(exc)) from None


def _loop_body(lines, seen: int, count: int) -> np.ndarray:
    """Parse the sample lines one by one; raises the sample ``QcsvError``s.

    ``lines`` yields (line number, text) pairs; ``seen`` of the ``count``
    samples precede them.
    """
    rows = []
    for lineno, body in lines:
        index = seen + len(rows)
        if index >= count:
            raise QcsvError(lineno, f"extra sample line; expected exactly {count}")
        vals = _split_floats(lineno, body, 4, f"sample {index}")
        if not all(math.isfinite(v) for v in vals):
            raise QcsvError(lineno, f"sample {index} holds a non-finite value")
        rows.append(vals)
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def _read_body(fh, lineno: int, count: int) -> np.ndarray:
    """The ``count`` samples after header line ``lineno``, read in blocks of lines.

    Rows are kept only as the file yields them: an untrusted header never
    reserves memory, and the file is never held whole.  A block goes to
    ``_parse_samples``, and to the line loop when that gives None or more
    than the samples still due; the loop names the first bad or extra line.
    """
    parts = []
    seen = 0
    tail = (lineno + 1, [])  # the last block that held samples, and its first line
    while block := list(islice(fh, _BLOCK_ROWS)):
        text = "".join(block)
        part = _parse_samples(text.encode("ascii")) if text.isascii() else None
        if part is None or len(part) > count - seen:
            part = _loop_body(_payload_lines(block, lineno + 1), seen, count)
        if len(part):
            parts.append(part)
            seen += len(part)
            tail = (lineno + 1, block)
        lineno += len(block)
    if seen < count:
        last_line = tail[0] - 1
        for last_line, _ in _payload_lines(tail[1], tail[0]):
            pass
        raise QcsvError(last_line + 1, f"missing sample {seen} of {count} (body truncated)")
    return np.concatenate(parts)


def read_qcsv(path) -> tuple[QSignal2D, TransformConfig]:
    """Load a quaternion grid and the transform config stored with it."""
    # surrogateescape carries a non-ASCII byte into the line that holds it,
    # where _payload_lines names it
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        lines = _payload_lines(fh)

        def next_line(what: str):
            try:
                return next(lines)
            except StopIteration:
                raise QcsvError(None, f"unexpected end of file: missing {what}") from None

        lineno, dims = next_line("size header")
        parts = dims.split(",")
        if len(parts) != 2:
            raise QcsvError(lineno, "size header must be 'n1,n2'")
        try:
            n1, n2 = int(parts[0]), int(parts[1])
        except ValueError:
            raise QcsvError(lineno, f"size header must hold integers, got {dims!r}") from None
        if n1 < 1 or n2 < 1:
            raise QcsvError(lineno, f"sizes must be positive, got {n1},{n2}")

        lineno, steps = next_line("sampling-step header")
        dt1, dt2 = _split_floats(lineno, steps, 2, "sampling steps")

        lineno, ptext = next_line("parameter header")
        try:
            p1, p2 = parse_param_pair(ptext)
        except ParameterError as exc:
            raise QcsvError(lineno, str(exc)) from None
        # the header alone decides the config: refuse it before the body is read
        try:
            cfg = make_config(p1, p2, n1, n2, dt1, dt2)
        except ParameterError as exc:
            raise QcsvError(None, str(exc)) from None

        comps = _read_body(fh, lineno, n1 * n2)

    return QSignal2D._adopt(comps.reshape(n1, n2, 4)), cfg


# --- the exact %.17g kernel of the sample writer ---------------------------
#
# A value v with 1e-4 <= |v| < 1e17 prints under %.17g as its 17-digit
# rounding D·10**(k-16), D in [1e16, 1e17), in fixed notation: k lies in
# [-4, 16].  With j = 16 - k in [0, 20], 10**j = 2**j·5**j is an exact
# double (5**j < 2**47), so Dekker's two-product (Veltkamp split, no FMA)
# gives |v|·10**j exactly as p + e.  In the window p >= 1e16 > 2**53 is an
# even integer, so p + rint(e) is D rounded half to even.  No double in the
# window rounds up to 1e17: the largest one below each power of ten has
# p + e at least 8 below it (asserted in the tests).
# (T. J. Dekker, "A floating-point technique for extending the available
# precision", Numer. Math. 18, 1971.)  The table runs on to 10**22, the
# last exact power of ten, for the reader's kernel below.
_POW10 = np.array([float(10**j) for j in range(23)])
_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _times_pow10(a, j):
    """(p, e) with p + e == a·10**j exactly, p the rounded product."""
    return _two_product(a, _POW10[j], (_POW10_HI[j], _POW10_LO[j]))


def _digits17(a):
    """(D, k) with D·10**(k-16) the 17-digit rounding of each ``a`` in [1e-4, 1e17)."""
    k = np.floor(np.log10(a)).astype(np.int64)
    j = np.clip(16 - k, 0, 20)
    p, e = _times_pow10(a, j)
    # log10 can miss k by one next to a power of ten: the exact p + e says which way
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        j[fix] += low[fix].astype(np.int64) - high[fix]
        p[fix], e[fix] = _times_pow10(a[fix], j[fix])
    return p.astype(np.int64) + np.rint(e).astype(np.int64), 16 - j


# A value's text is laid out in a row of 40 bytes, five little-endian 64-bit
# words, and the NUL bytes are deleted afterwards.  Byte 0 holds the sign,
# bytes 1-5 "0." and the leading zeros when k < 0, byte 6 + 2i digit i, and
# byte 7 + 2i the point if it follows digit i.  Byte 39, after digit 16,
# holds the separator.
_WORD = np.dtype("<u8")
_ROW = 40


def _row_words(rows: np.ndarray) -> np.ndarray:
    """``(m, 40)`` row bytes as their words, ``(5, m)``."""
    return rows.view(_WORD).T.copy()


_DIGITS = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
           % 10).astype(np.uint8)
# each group of four digits 0000-9999 as the bytes of one word of digits 1-16
_group_bytes = np.zeros((10000, 8), np.uint8)
_group_bytes[:, ::2] = _DIGITS + ord("0")
_GROUP_WORDS = _group_bytes.view(_WORD).ravel()
# trailing zero digits of each group, 4 for 0000
_GROUP_ZEROS = (_DIGITS[:, ::-1] == 0).cumprod(axis=1, dtype=np.uint8).sum(axis=1, dtype=np.uint8)
# by the count s of trailing digits %g drops: the mask that keeps the rest
_keep = np.full((17, _ROW), 0xFF, np.uint8)
_keep[:, 6:39:2] = np.where(np.arange(17) >= 17 - np.arange(17)[:, None], 0, 0xFF)
_KEEP = _row_words(_keep)
# by the digit (0-15) the point follows, 16 for none: the point alone
_point = np.zeros((17, _ROW), np.uint8)
_point[np.arange(16), 7 + 2 * np.arange(16)] = ord(".")
_POINT = _row_words(_point)
# by (k + 4)·2 + negative: the sign and, when k < 0, "0." and the leading zeros
_prefix = np.zeros((21, 2, _ROW), np.uint8)
_prefix[:, 1, 0] = ord("-")
for _k in range(-4, 0):
    _prefix[_k + 4, :, 1:2 - _k] = np.frombuffer(b"0.000"[:1 - _k], np.uint8)
_PREFIX = _row_words(_prefix.reshape(42, _ROW))[0]
_SEPARATORS = np.array([ord(",") << 56] * 3 + [ord("\n") << 56], dtype=_WORD)
# room for the longest %.17g text, "-2.2250738585072014e-308", and more
_FALLBACK_WIDTH = 39


def _format_samples(block: np.ndarray) -> bytes:
    """The sample lines of a ``(rows, 4)`` block, each value exactly as ``%.17g``."""
    v = block.ravel()
    a = np.abs(v)
    window = (a >= 1e-4) & (a < 1e17)
    d, k = _digits17(np.where(window, a, 1.0))
    lead = d // 10**16
    rest = d - lead * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    groups = (upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4)
    # %g drops the fraction's trailing zeros, and the point when none is left
    zeros = _GROUP_ZEROS[groups[0]]
    for g in groups[1:]:
        zeros = np.where(g == 0, zeros + 4, _GROUP_ZEROS[g])
    strip = np.minimum(zeros, 16 - k)
    after = np.where((k >= 0) & (strip < 16 - k), k, 16)
    words = np.empty((v.size, 5), _WORD)
    words[:, 0] = (_PREFIX[2 * (k + 4) + np.signbit(v)] | (lead.astype(_WORD) + ord("0")) << 48
                   | _POINT[0][after])
    for i, g in enumerate(groups, start=1):
        words[:, i] = _GROUP_WORDS[g] & _KEEP[i][strip] | _POINT[i][after]
    words.reshape(-1, 4, 5)[:, :, 4] |= _SEPARATORS
    others = np.flatnonzero(~window)
    if others.size:
        # the same %.17g, right-aligned: the spaces are deleted with the NULs
        text = f"%{_FALLBACK_WIDTH}.17g" * others.size % tuple(v[others].tolist())
        words.view(np.uint8)[others, :_FALLBACK_WIDTH] = \
            np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _FALLBACK_WIDTH)
    return words.tobytes().translate(None, b"\0 ")


def write_qcsv(path, signal: QSignal2D, cfg: TransformConfig) -> None:
    """Save a quaternion grid and the two-sided transform config stored with it."""
    _check_dims(signal, cfg)
    _check_two_sided(cfg, "qcsv")
    g = cfg.grid
    header = [
        "# dqqpft qcsv: n1,n2 / dt1,dt2 / params / w,x,y,z samples",
        f"{g.n1},{g.n2}",
        f"{g.dt1:.17g},{g.dt2:.17g}",
        format_param_pair(cfg.p1, cfg.p2),
    ]
    flat = signal.comps.reshape(-1, 4)
    # binary: every line ends in "\n" on every platform
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        # bounded blocks: the file is never held as one string
        for start in range(0, len(flat), _WRITE_ROWS):
            fh.write(_format_samples(flat[start:start + _WRITE_ROWS]))


# --- the exact decimal kernel of the sample reader -------------------------
#
# A field -?D*[.D*] of at most 23 bytes is read as the three little-endian
# words of the 24 bytes that end at its separator.  XOR with ASCII '0' and
# a mask of the digit positions leave one digit in each byte, with the
# sign, the point and the bytes of earlier fields set to zero, and eight
# digits per word are combined by multiply-shift (D. Lemire, "Number
# parsing at a gigabyte per second", Softw. Pract. Exper. 51, 2021).  The
# words give Dw = hi·10**16 + mid·10**8 + lo, refused from 10**18 on,
# whose zero digit in the point's slot D = Dw - 9·(Dw // 10**(f+1))·10**f
# takes out, for f digits after the point.  The value is D/10**f, and
# 10**f is exact:
# - D < 2**53 is an exact double, so one IEEE division rounds correctly.
# - Otherwise q = fl(fl(D)/10**f) is within 2 ulps of D/10**f.
#   _times_pow10 gives q·10**f exactly as p + e, so the correction
#   (D - p - e)/10**f is found to a relative 2**-52, and q plus it lies
#   within 2**-49 ulp of D/10**f.  When q plus the correction, moved by
#   2**-83·q (2**-31 to 2**-30 ulp) either way, rounds to one double, no
#   half-way point lies between, and that double is D/10**f correctly
#   rounded.  Otherwise the block is refused.
# The sign goes on last, so "-0" keeps its sign bit.
_FIELD = 24
# by (digit positions n, point code c): the digit bytes of a field's 24.
# n counts the digits and the point; c is f + 1, or 0 for no point.
_digit_bytes = np.zeros((_FIELD, _FIELD, _FIELD), np.uint8)
for _n in range(_FIELD):
    _digit_bytes[_n, :, _FIELD - _n:] = 0xFF
_digit_bytes[:, np.arange(1, _FIELD), _FIELD - np.arange(1, _FIELD)] = 0
_DIGIT_MASKS = _digit_bytes.view(_WORD).reshape(-1, 3)
# by point code c: 10**c, capped at 10**18 > Dw, and 10**18 for no point,
# so that Dw // _SLOT[c] is zero where there is no slot to take out
_SLOT = 10 ** np.minimum(np.r_[18, 1:_FIELD], 18)
_LINE_SEPARATORS = np.frombuffer(b",,,\n", np.uint8)


def _parse_samples(chunk: bytes) -> np.ndarray | None:
    """The ``(rows, 4)`` samples of a block of sample lines, or None.

    Each value is the one ``float`` gives.  A block is taken only when every
    line is four comma-separated fields ending in "\\n".  The kernel takes a
    field ``-?D*[.D*]`` with a digit, at most 23 bytes and 18 digit positions,
    the point's included, from its first nonzero digit on; ``float`` reads
    every other field, and each the kernel cannot certify.  A field that
    ``float`` refuses or reads as non-finite makes the block None.
    """
    if not chunk.endswith(b"\n"):
        return None
    buf = np.frombuffer(chunk, np.uint8)
    # the bytes below '/': separators, '-', '+' and '.'; any other fails the check
    marks = np.flatnonzero(buf < ord("/"))
    kind = buf[marks]
    is_end = (kind < ord("-")) & (kind != ord("+"))
    ends = marks.compress(is_end)
    if ends.size % 4 or not (kind.compress(is_end).reshape(-1, 4) == _LINE_SEPARATORS).all():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    negative = buf[starts] == ord("-")
    length = ends - starts
    refused = length > _FIELD - 1
    # the digit check would refuse an exponent too, but through a mask per field
    for letter in b"eE":
        if letter in chunk:
            refused[np.searchsorted(ends, np.flatnonzero(buf == letter))] = True
    if 2 * np.count_nonzero(refused) > ends.size:  # the kernel would cost more than it saves
        x = np.full(ends.size, np.nan)
    else:
        is_point = kind == ord(".")
        owner = np.cumsum(is_end, dtype=np.int32).compress(is_point)  # the field of each point
        # a field's second point stays among its digits and fails the digit check
        code = np.zeros(ends.size, np.int64)
        code[owner] = ends[owner] - marks.compress(is_point)
        n = length - negative
        if refused.any():  # no digits: the kernel leaves the field to float
            n[refused] = code[refused] = 0
        x = _decimal_values(chunk, ends, n, code)
        sign = x.view(np.uint64)
        sign |= negative.astype(np.uint64) << 63
    others = np.flatnonzero(np.isnan(x))
    if others.size:
        if others.size == ends.size:  # every field: split the block once
            texts = chunk.replace(b"\n", b",").split(b",")[:-1]
        else:
            texts = [chunk[a:b] for a, b in zip(starts[others].tolist(), ends[others].tolist())]
        try:
            x[others] = np.fromiter(map(float, texts), np.float64, others.size)
        except ValueError:
            return None
        if not np.isfinite(x[others]).all():
            return None
    return x.reshape(-1, 4)


def _decimal_values(chunk: bytes, ends, n, code) -> np.ndarray:
    """|value| of each field ending at ``ends``, or NaN where it is not certified."""
    padded = np.frombuffer(bytes(_FIELD) + chunk, np.uint8)
    # overlapping: window i is padded[i:i + 24], the 24 bytes of the chunk
    # before offset i
    windows = np.ndarray(padded.size - _FIELD + 1, f"V{_FIELD}", padded, strides=(1,))
    w = windows[ends].view(_WORD).reshape(-1, 3)
    w ^= 0x3030303030303030
    w &= _DIGIT_MASKS.take(n * _FIELD + code, axis=0)
    if w.view(np.uint8).max() > 9:
        # eight nines make a field with a non-digit byte fail the next check
        w[w.view(np.uint8).reshape(-1, _FIELD).max(axis=1) > 9] = 0x0909090909090909
    # eight digits per word, the first in the low byte: into pairs, then
    # the pairs into the number
    w = w * 10 + (w >> 8)
    w = ((w & 0xFF000000FF) * (100 + (1000000 << 32))
         + (w >> 16 & 0xFF000000FF) * (1 + (10000 << 32))) >> 32
    bad = np.flatnonzero((w[:, 0] >= 100) | (n <= (code > 0)))
    w[bad] = 0
    dw = (w[:, 0] * 10**16 + w[:, 1] * 10**8 + w[:, 2]).astype(np.int64)
    slot = _SLOT[code]
    d = dw - 9 * (dw // slot) * (slot // 10)
    f = np.maximum(code - 1, 0)
    x = d / _POW10[f]
    big = np.flatnonzero(d >= 2**53)
    if big.size:
        q, j = x[big], f[big]
        p, e = _times_pow10(q, j)
        fix = ((d[big] - p.astype(np.int64)).astype(np.float64) - e) / _POW10[j]
        margin = q * 2.0**-83  # 2**-31 to 2**-30 ulp of q
        r = q + (fix - margin)
        x[big] = np.where(r == q + (fix + margin), r, np.nan)
    x[bad] = np.nan
    return x


def _check_mapping(mapping: str):
    if mapping not in MAPPINGS:
        raise ValueError(f"mapping must be one of {MAPPINGS}, got {mapping!r}")


def _ppm_tokens(data: bytes):
    """(token, end offset) pairs of a PPM header.

    Whitespace is exactly space, tab, CR and LF; a '#' that starts a token
    opens a comment running to the end of the line.
    """
    for m in _PPM_TOKEN.finditer(data):
        if not m.group().startswith(b"#"):
            yield m.group().decode("ascii"), m.end()


def read_image_ppm(path, mapping: str = "pure") -> QSignal2D:
    """Read an 8-bit P3/P6 image into a quaternion grid."""
    _check_mapping(mapping)
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _ppm_tokens(data)

    def next_token(what: str):
        try:
            return next(tokens)
        except StopIteration:
            raise PpmError(f"truncated image: missing {what}") from None

    magic, _ = next_token("magic number")
    if magic not in ("P3", "P6"):
        raise PpmError(f"unsupported magic number {magic!r}: expected P3 or P6")
    width, _ = next_token("width")
    height, _ = next_token("height")
    maxval, end = next_token("maxval")
    try:
        width, height, maxval = int(width), int(height), int(maxval)
    except ValueError:
        raise PpmError("image dimensions and maxval must be integers") from None
    if width < 1 or height < 1:
        raise PpmError(f"image dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise PpmError(f"only 8-bit images are supported (maxval 255), got {maxval}")

    count = width * height * 3
    if magic == "P6":
        raster = data[end + 1:end + 1 + count]
        if len(raster) != count:
            raise PpmError(f"truncated raster: expected {count} bytes, found {len(raster)}")
        pix = np.frombuffer(raster, dtype=np.uint8).astype(np.float64)
    else:
        vals = [t for t in _PPM_TOKEN.findall(data, end) if t[:1] != b"#"]
        if len(vals) < count:
            raise PpmError(f"truncated raster: expected {count} values, found {len(vals)}")
        try:
            pix = np.array(list(map(int, vals[:count])), dtype=np.float64)
        except ValueError:
            raise PpmError("raster holds a non-integer value") from None
        except OverflowError:  # an integer past the float64 range
            raise PpmError("raster value out of the 8-bit range") from None
        if np.any(pix < 0) or np.any(pix > 255):
            raise PpmError("raster value out of the 8-bit range")
    rgb = pix.reshape(height, width, 3)
    comps = np.zeros((height, width, 4))
    if mapping == "pure":
        comps[..., 1:] = rgb
    else:
        comps[..., 0] = rgb.mean(axis=2)
    return QSignal2D._adopt(comps)


def write_image_ppm(path, signal: QSignal2D, mapping: str = "pure",
                    magic: str = "P6") -> None:
    """Write a quaternion grid as an 8-bit image, rounding and clamping."""
    _check_mapping(mapping)
    if magic not in ("P3", "P6"):
        raise PpmError(f"unsupported magic number {magic!r}: expected P3 or P6")
    if mapping == "pure":
        rgb = signal.comps[..., 1:4]
    else:
        grey = signal.comps[..., 0]
        rgb = np.repeat(grey[..., None], 3, axis=-1)
    pix = np.clip(np.rint(rgb), 0, 255).astype(np.uint8)
    header = f"{magic}\n{signal.n2} {signal.n1}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if magic == "P6":
            fh.write(pix.tobytes())
        else:
            body = "\n".join(" ".join(str(v) for v in row.reshape(-1))
                             for row in pix)
            fh.write(body.encode("ascii") + b"\n")
