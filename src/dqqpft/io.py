"""File formats: qcsv quaternion grids and 8-bit PPM images.

qcsv is a line-oriented text format.  After optional comment lines
(starting with '#') and blank lines, the payload is

    n1,n2
    dt1,dt2
    a1,b1,c1,d1,e1:a2,b2,c2,d2,e2
    w,x,y,z          (n1*n2 sample lines, row-major: x1 outer, x2 inner)

Values are written with 17 significant digits so a write/read round
trip reproduces every float64 bit-exactly.  The writer formats the samples
in blocks of rows with one C-level ``%`` per block.  The reader parses the
header line by line, then reads the body in blocks of lines straight from
the open file, so a file, or a pipe, is never held as one string and the
memory held is about one grid.  Each block goes to one ``numpy.loadtxt``
call, kept only if it gives rows of four finite values and no more than
the samples still due.  Any other block (comments or blank lines among the
samples, malformed or non-finite values, extra samples) is parsed again
line by line, and that loop alone raises the sample errors, naming the bad
line.  A non-ASCII byte anywhere raises an error naming its line.

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

from .params import ParameterError, _parse_floats, format_param_pair, parse_param_pair
from .signal import QSignal2D
from .transform import TransformConfig, make_config

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

_SAMPLE_FORMAT = "%.17g,%.17g,%.17g,%.17g\n"
# sample lines per read or write block: bounds the text held at once
_BLOCK_ROWS = 1 << 12
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


def _loadtxt_body(block: list[str], room: int) -> np.ndarray | None:
    """The block's samples parsed in C, or None when ``_loop_body`` must decide.

    With ``comments=None`` numpy skips only empty lines and parses a field
    only where ``float`` does, to the same bits, so an accepted block is one
    the loop accepts with the same values.  A block of more than ``room``
    samples is left to the loop, which names the first extra line.
    """
    if not any(map(str.strip, block)):  # loadtxt warns on a block without data
        return None
    try:
        comps = np.loadtxt(block, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if comps.shape[1] != 4 or len(comps) > room or not np.isfinite(comps).all():
        return None
    return comps


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
    reserves memory, and the file is never held whole.
    """
    parts = []
    seen = 0
    tail = (lineno + 1, [])  # the last block that held samples, and its first line
    while block := list(islice(fh, _BLOCK_ROWS)):
        part = _loadtxt_body(block, count - seen)
        if part is None:
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

        comps = _read_body(fh, lineno, n1 * n2)

    try:
        cfg = make_config(p1, p2, n1, n2, dt1, dt2)
    except ParameterError as exc:
        raise QcsvError(None, str(exc)) from None
    return QSignal2D._adopt(comps.reshape(n1, n2, 4)), cfg


def write_qcsv(path, signal: QSignal2D, cfg: TransformConfig) -> None:
    g = cfg.grid
    if (signal.n1, signal.n2) != (g.n1, g.n2):
        raise ValueError(f"signal shape {signal.shape} does not match grid {(g.n1, g.n2)}")
    header = [
        "# dqqpft qcsv: n1,n2 / dt1,dt2 / params / w,x,y,z samples",
        f"{g.n1},{g.n2}",
        f"{g.dt1:.17g},{g.dt2:.17g}",
        format_param_pair(cfg.p1, cfg.p2),
    ]
    flat = signal.comps.reshape(-1, 4)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(header) + "\n")
        # bounded blocks: the file is never held as one string
        for start in range(0, len(flat), _BLOCK_ROWS):
            block = flat[start:start + _BLOCK_ROWS]
            fh.write(_SAMPLE_FORMAT * len(block) % tuple(block.ravel().tolist()))


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
