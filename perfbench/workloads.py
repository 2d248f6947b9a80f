"""The benchmark's three workloads.

Each workload has ``setup`` (inputs, files and plans, before timing),
``inputs`` (fresh seeded inputs for one op, untimed), ``run`` (the timed
op: calls into the public functions of ``dqqpft`` only) and ``check``
(untimed; returns the largest relative error seen, raises ``CheckFailed``).
The library is looked up through its modules at call time, so the traced
run's wrappers are the functions called.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import dqqpft
import dqqpft.cli

import oracle

TOL = 1e-10


class CheckFailed(Exception):
    """An op's output disagreed with the oracle or a stated identity."""

    def __init__(self, message: str, err: float = math.inf):
        super().__init__(message)
        self.err = err


def _params(rng) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Quintuple pair: b from +-[0.5, 1.5], a, c, d, e from [-0.5, 0.5]."""
    def one():
        a, c, d, e = rng.uniform(-0.5, 0.5, size=4)
        b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        return tuple(float(v) for v in (a, b, c, d, e))
    return one(), one()


def _config(p1, p2, n1: int, n2: int):
    return dqqpft.make_config(dqqpft.ParamSet(*p1), dqqpft.ParamSet(*p2), n1, n2)


def _within(err: float, what: str) -> float:
    if not err <= TOL:
        raise CheckFailed(f"{what}: relative error {err:.3e} exceeds {TOL:g}", err)
    return err


def _spectrum_samples(f: np.ndarray, spec: np.ndarray, p1, p2, rng, count: int) -> float:
    """Largest oracle error over ``count`` seeded spectrum indices, relative
    to the spectrum's RMS sample norm (equal to the input's: the transform
    is unitary)."""
    n1, n2 = f.shape[:2]
    rms = math.sqrt(oracle.energy(f) / (n1 * n2))
    worst = 0.0
    for w1, w2 in zip(rng.integers(0, n1, count), rng.integers(0, n2, count)):
        ref = oracle.transform_sample(f, p1, p2, 1.0, 1.0, int(w1), int(w2))
        err = float(np.linalg.norm(spec[w1, w2] - ref)) / rms
        worst = max(worst, _within(err, f"spectrum sample ({w1}, {w2})"))
    return worst


class CliRoundtrip:
    """dqqpft forward (P6 image -> qcsv) then inverse (qcsv -> P6 image)."""

    name = "cli-roundtrip"

    def __init__(self, workdir: Path, smoke: bool):
        self.n1, self.n2 = (12, 20) if smoke else (256, 512)
        self.samples_per_op = self.n1 * self.n2
        self.img = workdir / "img.ppm"
        self.spec = workdir / "spec.qcsv"
        self.back = workdir / "back.ppm"

    def setup(self, rng):
        return None

    def inputs(self, state, rng):
        pix = rng.integers(0, 256, size=(self.n1, self.n2, 3), dtype=np.uint8)
        raw = f"P6\n{self.n2} {self.n1}\n255\n".encode("ascii") + pix.tobytes()
        self.img.write_bytes(raw)
        p1, p2 = _params(rng)
        pair = ":".join(",".join(repr(v) for v in p) for p in (p1, p2))
        return {"pix": pix, "raw": raw, "p1": p1, "p2": p2, "pair": pair}

    def run(self, state, inp):
        main = dqqpft.cli.main
        rc = main(["forward", f"--params={inp['pair']}",
                   "--in", str(self.img), "--out", str(self.spec)])
        if rc != 0:
            raise RuntimeError(f"forward exited with {rc}")
        rc = main(["inverse", "--in", str(self.spec), "--out", str(self.back)])
        if rc != 0:
            raise RuntimeError(f"inverse exited with {rc}")

    def check(self, state, inp, result, rng) -> float:
        if self.back.read_bytes() != inp["raw"]:
            raise CheckFailed("back.ppm differs from the input image")
        dims, steps, ptext, spec = oracle.parse_qcsv(self.spec)
        header_params = tuple(tuple(float(v) for v in half.split(","))
                              for half in ptext.split(":"))
        if dims != (self.n1, self.n2) or steps != (1.0, 1.0) \
                or header_params != (inp["p1"], inp["p2"]):
            raise CheckFailed(f"qcsv header {dims} {steps} {ptext!r} does not match the op")
        f = np.zeros((self.n1, self.n2, 4))
        f[..., 1:] = inp["pix"]
        plan = dqqpft.make_plan(_config(inp["p1"], inp["p2"], self.n1, self.n2))
        direct = dqqpft.forward_fast(dqqpft.QSignal2D(f), plan).comps
        if not np.array_equal(direct, spec):
            raise CheckFailed("qcsv spectrum is not bit-identical to in-process forward_fast")
        return _spectrum_samples(f, spec, inp["p1"], inp["p2"], rng, 4)


class FastOdd:
    """forward_fast then inverse_fast at non-power-of-two shapes, plans prebuilt."""

    name = "fast-odd"

    def __init__(self, workdir: Path, smoke: bool):
        self.shapes = ((10, 10), (13, 13), (6, 15)) if smoke else ((100, 100), (257, 257), (96, 250))
        self.samples_per_op = sum(n1 * n2 for n1, n2 in self.shapes)

    def setup(self, rng):
        state = []
        for n1, n2 in self.shapes:
            p1, p2 = _params(rng)
            state.append((p1, p2, dqqpft.make_plan(_config(p1, p2, n1, n2))))
        return state

    def inputs(self, state, rng):
        return [dqqpft.QSignal2D(rng.uniform(-1.0, 1.0, size=(n1, n2, 4)))
                for n1, n2 in self.shapes]

    def run(self, state, frames):
        out = []
        for f, (_, _, plan) in zip(frames, state):
            spec = dqqpft.forward_fast(f, plan)
            out.append((spec, dqqpft.inverse_fast(spec, plan)))
        return out

    def check(self, state, frames, result, rng) -> float:
        worst = 0.0
        for f, (p1, p2, _), (spec, back) in zip(frames, state, result):
            fc, sc, bc = f.comps, spec.comps, back.comps
            shape = f"{fc.shape[0]}x{fc.shape[1]}"
            if sc.shape != fc.shape or bc.shape != fc.shape:
                raise CheckFailed(f"{shape}: output shapes {sc.shape}, {bc.shape}")
            worst = max(worst,
                        _within(oracle.max_norm(bc - fc) / oracle.max_norm(fc),
                                f"{shape} round trip"),
                        _within(abs(oracle.energy(sc) - oracle.energy(fc)) / oracle.energy(fc),
                                f"{shape} energy drift"),
                        _spectrum_samples(fc, sc, p1, p2, rng, 2))
        return worst


class QpConv:
    """qp_convolve on a fresh pair with fresh parameters."""

    name = "qp-conv"

    def __init__(self, workdir: Path, smoke: bool):
        self.n1, self.n2 = (6, 8) if smoke else (32, 48)
        self.samples_per_op = self.n1 * self.n2

    def setup(self, rng):
        return None

    def inputs(self, state, rng):
        size = (self.n1, self.n2, 4)
        f = dqqpft.QSignal2D(rng.uniform(-1.0, 1.0, size=size))
        g = dqqpft.QSignal2D(rng.uniform(-1.0, 1.0, size=size))
        p1, p2 = _params(rng)
        return f, g, _config(p1, p2, self.n1, self.n2)

    def run(self, state, inp):
        return dqqpft.qp_convolve(*inp)

    def check(self, state, inp, result, rng) -> float:
        f, g, cfg = inp
        out = result.comps
        if out.shape != f.comps.shape:
            raise CheckFailed(f"output shape {out.shape}")
        scale = math.sqrt(oracle.energy(f.comps) * oracle.energy(g.comps) / (self.n1 * self.n2))
        worst = 0.0
        for x1, x2 in zip(rng.integers(0, self.n1, 4), rng.integers(0, self.n2, 4)):
            ref = oracle.conv_sample(f.comps, g.comps, cfg.p1.a, cfg.p2.a,
                                     cfg.grid.dt1, cfg.grid.dt2, int(x1), int(x2))
            err = float(np.linalg.norm(out[x1, x2] - ref)) / scale
            worst = max(worst, _within(err, f"convolution sample ({x1}, {x2})"))
        return worst


WORKLOADS = {w.name: w for w in (CliRoundtrip, FastOdd, QpConv)}
