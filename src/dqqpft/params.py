"""Parameter quintuples, sampling grids and special-case presets.

Each transform axis is governed by a quintuple (a, b, c, d, e) with
b != 0; the discrete kernel phase on that axis is

    a*xi^2*dt^2 + (2*pi/N)*xi*omega + c*omega^2*du^2 + d*xi*dt + e*omega*du

where the frequency step is always derived as du = 2*pi*b / (N*dt).
A ``Grid`` holds only the sizes and time steps a caller chooses and
validates them when built; du is written once, in ``_freq_step``, and
read as ``TransformConfig.du1``/``du2``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "ParameterError",
    "ParamSet",
    "Grid",
    "preset_qft",
    "preset_qfrft",
    "preset_qlct",
    "parse_param_pair",
    "format_param_pair",
    "parse_preset",
]


class ParameterError(ValueError):
    """Raised for invalid parameter quintuples, grids or angle choices."""


def _finite(v) -> bool:
    """``math.isfinite``, reading an int past the float64 range as not finite."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ParamSet:
    """Axis parameter quintuple (a, b, c, d, e), b != 0, stored as Python floats.

    Each value must be a finite real; an int too large for a float is
    refused as not finite.
    """

    a: float
    b: float
    c: float
    d: float
    e: float

    def __post_init__(self):
        vals = (self.a, self.b, self.c, self.d, self.e)
        if not all(_finite(v) for v in vals):
            raise ParameterError(f"parameter set must be finite, got {vals}")
        if self.b == 0.0:
            raise ParameterError("parameter b must be nonzero")
        for name, v in zip("abcde", vals):
            object.__setattr__(self, name, float(v))

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.e)


@dataclass(frozen=True)
class Grid:
    """Axis sizes and time steps; the frequency steps are derived from them.

    Each size is an int from 1 to 2**53, so that every sample index lies
    below 2**53, where the kernel phases are exact, and each step is a
    positive finite real, stored as a float.
    """

    n1: int
    n2: int
    dt1: float
    dt2: float

    def __post_init__(self):
        for name in ("n1", "n2"):
            n = getattr(self, name)
            if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
                raise ParameterError(f"{name} must be a positive integer, got {n!r}")
            if n > 2**53:
                raise ParameterError(f"{name} must be at most 2**53: the kernel "
                                     "phases are exact for indices below 2**53")
            object.__setattr__(self, name, int(n))
        for name in ("dt1", "dt2"):
            dt = getattr(self, name)
            if not (_finite(dt) and dt > 0.0):
                raise ParameterError(f"{name} must be a positive finite step, got {dt!r}")
            object.__setattr__(self, name, float(dt))


def _freq_step(p: ParamSet, n: int, dt: float) -> float:
    """The sampling relation du = 2*pi*b / (n*dt)."""
    return 2.0 * math.pi * p.b / (n * dt)


def preset_qft() -> tuple[ParamSet, ParamSet]:
    """Plain quaternion Fourier transform: (0, 1, 0, 0, 0) on both axes."""
    p = ParamSet(0.0, 1.0, 0.0, 0.0, 0.0)
    return p, p


def preset_qfrft(theta1: float, theta2: float) -> tuple[ParamSet, ParamSet]:
    """Fractional-transform preset: ``preset_qlct`` at (cos t, sin t, cos t) per axis.

    That is (-cot(t)/2, csc(t), -cot(t)/2, 0, 0).  Non-finite angles and
    angles with sin(theta) == 0 have no csc and are rejected.
    """
    abd = []
    for theta in (theta1, theta2):
        if not _finite(theta):
            raise ParameterError(f"fractional angle must be finite, got {theta!r}")
        s = math.sin(theta)
        if s == 0.0:
            raise ParameterError(f"degenerate angle {theta!r}: sin(theta) must be nonzero")
        c = math.cos(theta)
        if abs(c) < 1e-15:
            # cos(pi/2) rounds to ~6e-17; this close to a right angle the
            # family member is exactly the Fourier case
            c = 0.0
        abd.append((c, s, c))
    return preset_qlct(*abd)


def preset_qlct(abd1: tuple[float, float, float],
                abd2: tuple[float, float, float]) -> tuple[ParamSet, ParamSet]:
    """Linear-canonical preset (-a/2b, 1/b, -d/2b, 0, 0) from (a, b, d) per axis."""
    out = []
    for a, b, d in (abd1, abd2):
        if not all(_finite(v) for v in (a, b, d)):
            raise ParameterError(f"linear-canonical triple must be finite, got {(a, b, d)}")
        a, b, d = float(a), float(b), float(d)
        if b == 0.0:
            raise ParameterError("linear-canonical parameter b must be nonzero")
        derived = (-a / (2.0 * b), 1.0 / b, -d / (2.0 * b))
        if not all(math.isfinite(v) for v in derived):
            raise ParameterError(f"linear-canonical triple {(a, b, d)} overflows float64: {derived}")
        out.append(ParamSet(*derived, 0.0, 0.0))
    return out[0], out[1]


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise ParameterError(f"{what}: expected {count} comma-separated values, got {len(parts)}")
    out = []
    for part in parts:
        try:
            out.append(float(part))
        except ValueError:
            raise ParameterError(f"{what}: {part!r} is not a number") from None
    return out


def parse_param_pair(text: str) -> tuple[ParamSet, ParamSet]:
    """Parse "a1,b1,c1,d1,e1:a2,b2,c2,d2,e2" into a quintuple pair."""
    halves = text.split(":")
    if len(halves) != 2:
        raise ParameterError("parameter pair must be two colon-separated quintuples")
    p1 = ParamSet(*_parse_floats(halves[0], 5, "axis-1 parameters"))
    p2 = ParamSet(*_parse_floats(halves[1], 5, "axis-2 parameters"))
    return p1, p2


def format_param_pair(p1: ParamSet, p2: ParamSet) -> str:
    """Inverse of ``parse_param_pair``; values printed with full precision."""
    def one(p: ParamSet) -> str:
        return ",".join(f"{v:.17g}" for v in p.as_tuple())

    return f"{one(p1)}:{one(p2)}"


def parse_preset(text: str) -> tuple[ParamSet, ParamSet]:
    """Parse a preset string: "qft", "qfrft:t1,t2" or "qlct:a1,b1,d1:a2,b2,d2"."""
    head, _, rest = text.partition(":")
    if head == "qft":
        if rest:
            raise ParameterError("qft preset takes no arguments")
        return preset_qft()
    if head == "qfrft":
        t1, t2 = _parse_floats(rest, 2, "qfrft angles")
        return preset_qfrft(t1, t2)
    if head == "qlct":
        halves = rest.split(":")
        if len(halves) != 2:
            raise ParameterError("qlct preset needs two colon-separated (a,b,d) triples")
        abd1 = tuple(_parse_floats(halves[0], 3, "qlct axis-1 triple"))
        abd2 = tuple(_parse_floats(halves[1], 3, "qlct axis-2 triple"))
        return preset_qlct(abd1, abd2)
    raise ParameterError(f"unknown preset {head!r}")
