"""Wall-clock comparison of the direct contraction and the FFT fast path."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fast import forward_fast, make_plan
from .params import ParamSet
from .signal import QSignal2D
from .transform import forward_direct, make_config

__all__ = ["BenchRow", "run_bench", "format_table"]

_SEED = 0


@dataclass(frozen=True)
class BenchRow:
    size: int
    direct_s: float
    fast_s: float

    @property
    def speedup(self) -> float:
        return self.direct_s / self.fast_s if self.fast_s > 0 else float("inf")


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_bench(sizes=(16, 32, 64), repeats: int = 3) -> list[BenchRow]:
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    rng = np.random.default_rng(_SEED)
    p1 = ParamSet(0.3, 1.1, -0.4, 0.2, 0.7)
    p2 = ParamSet(-0.2, 0.9, 0.5, -0.1, 0.3)
    rows = []
    for n in sizes:
        cfg = make_config(p1, p2, n, n)
        plan = make_plan(cfg)
        f = QSignal2D(rng.uniform(-1.0, 1.0, size=(n, n, 4)))
        forward_fast(f, plan)  # warm caches before timing
        direct_s = _best_of(lambda: forward_direct(f, cfg), repeats)
        fast_s = _best_of(lambda: forward_fast(f, plan), max(repeats, 5))
        rows.append(BenchRow(n, direct_s, fast_s))
    return rows


def format_table(rows: list[BenchRow]) -> str:
    lines = [f"{'size':>8} {'direct_s':>12} {'fast_s':>12} {'speedup':>10}"]
    for r in rows:
        lines.append(f"{r.size:>4}x{r.size:<3} {r.direct_s:>12.6f} {r.fast_s:>12.6f} "
                     f"{r.speedup:>9.1f}x")
    return "\n".join(lines)
