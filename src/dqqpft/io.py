"""File formats: qcsv quaternion grids and 8-bit PPM images.

qcsv is a line-oriented text format.  After optional comment lines
(starting with '#') and blank lines, the payload is

    n1,n2
    dt1,dt2
    a1,b1,c1,d1,e1:a2,b2,c2,d2,e2
    w,x,y,z          (n1*n2 sample lines, row-major: x1 outer, x2 inner)

Values are written with 17 significant digits so a write/read round
trip reproduces every float64 bit-exactly.

PPM support covers the 8-bit P3 (ASCII) and P6 (binary) flavours.  The
"pure" mapping stores pixel (R, G, B) in the (x, y, z) components with
w = 0; "luminance" stores the channel mean in w (exact for grey pixels).
On write, channels are rounded and clamped to [0, 255].
"""

from __future__ import annotations

import math

import numpy as np

from .params import ParameterError, ParamSet, format_param_pair, make_grid, parse_param_pair
from .signal import QSignal2D
from .transform import TWO_SIDED, TransformConfig

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


class QcsvError(ValueError):
    """Malformed qcsv content; ``line`` is the 1-based offending line."""

    def __init__(self, line: int | None, message: str):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class PpmError(ValueError):
    """Unsupported or malformed PPM content."""


def _payload_lines(raw_lines: list[str]):
    for lineno, raw in enumerate(raw_lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped


def _split_floats(lineno: int, text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise QcsvError(lineno, f"{what}: expected {count} comma-separated values, got {len(parts)}")
    out = []
    for part in parts:
        try:
            out.append(float(part))
        except ValueError:
            raise QcsvError(lineno, f"{what}: {part!r} is not a number") from None
    return out


def read_qcsv(path) -> tuple[QSignal2D, TransformConfig]:
    """Load a quaternion grid and the transform config stored with it."""
    with open(path, "r", encoding="ascii") as fh:
        raw_lines = fh.read().splitlines()
    lines = _payload_lines(raw_lines)

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

    # the header is untrusted: never reserve more rows than the file has lines
    comps = np.empty((min(n1 * n2, len(raw_lines)), 4))
    count = 0
    last_line = lineno
    for lineno, body in lines:
        if count >= n1 * n2:
            raise QcsvError(lineno, f"extra sample line; expected exactly {n1 * n2}")
        vals = _split_floats(lineno, body, 4, f"sample {count}")
        if not all(math.isfinite(v) for v in vals):
            raise QcsvError(lineno, f"sample {count} holds a non-finite value")
        comps[count] = vals
        count += 1
        last_line = lineno
    if count < n1 * n2:
        raise QcsvError(last_line + 1,
                        f"missing sample {count} of {n1 * n2} (body truncated)")

    try:
        grid = make_grid(n1, n2, dt1, dt2, p1, p2)
    except ParameterError as exc:
        raise QcsvError(None, str(exc)) from None
    cfg = TransformConfig(p1, p2, grid, TWO_SIDED)
    return QSignal2D(comps.reshape(n1, n2, 4)), cfg


def write_qcsv(path, signal: QSignal2D, cfg: TransformConfig) -> None:
    g = cfg.grid
    if (signal.n1, signal.n2) != (g.n1, g.n2):
        raise ValueError(f"signal shape {signal.shape} does not match grid {(g.n1, g.n2)}")
    rows = [
        "# dqqpft qcsv: n1,n2 / dt1,dt2 / params / w,x,y,z samples",
        f"{g.n1},{g.n2}",
        f"{g.dt1:.17g},{g.dt2:.17g}",
        format_param_pair(cfg.p1, cfg.p2),
    ]
    flat = signal.comps.reshape(-1, 4)
    rows.extend(",".join(f"{v:.17g}" for v in sample) for sample in flat)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")


def _check_mapping(mapping: str):
    if mapping not in MAPPINGS:
        raise ValueError(f"mapping must be one of {MAPPINGS}, got {mapping!r}")


def _ppm_tokens(data: bytes):
    """Whitespace/comment-aware token stream over a PPM header or P3 body."""
    pos = 0
    n = len(data)
    while pos < n:
        ch = data[pos:pos + 1]
        if ch in b" \t\r\n":
            pos += 1
            continue
        if ch == b"#":
            while pos < n and data[pos:pos + 1] not in b"\r\n":
                pos += 1
            continue
        start = pos
        while pos < n and data[pos:pos + 1] not in b" \t\r\n":
            pos += 1
        yield data[start:pos].decode("ascii"), pos
    return


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
        vals = []
        for tok, _ in tokens:
            vals.append(tok)
            if len(vals) == count:
                break
        if len(vals) != count:
            raise PpmError(f"truncated raster: expected {count} values, found {len(vals)}")
        try:
            pix = np.array([int(v) for v in vals], dtype=np.float64)
        except ValueError:
            raise PpmError("raster holds a non-integer value") from None
        if np.any(pix < 0) or np.any(pix > 255):
            raise PpmError("raster value out of the 8-bit range")
    rgb = pix.reshape(height, width, 3)

    if mapping == "pure":
        return QSignal2D.from_components(np.zeros((height, width)),
                                         rgb[..., 0], rgb[..., 1], rgb[..., 2])
    return QSignal2D.from_real(rgb.mean(axis=2))


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
