"""Span tracing of the library's layers, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``dqqpft`` module that holds a reference to it (``fast`` imports
``_fft2_raw`` from ``fft``, ``cli`` imports ``forward_fast`` from
``fast``, and so on), plus ``QSignal2D.__init__`` on the class.
``uninstall`` puts the originals back.  Spans (name, start, end,
parent, op id) are kept in memory; ``write`` saves them at the end.
A target that a later refactor removes is listed in ``absent``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


def _path_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _fft_shape(args, kwargs, result):
    return list(np.shape(args[0] if args else kwargs["x"]))


def _init_bytes(args, kwargs, result):
    return args[0].comps.nbytes


# span name -> (module, attribute path, extra recorded after the call)
TARGETS = {
    "cli.main": ("dqqpft.cli", "main", None),
    "io.read_qcsv": ("dqqpft.io", "read_qcsv", _path_bytes),
    "io.write_qcsv": ("dqqpft.io", "write_qcsv", _path_bytes),
    "io.read_image_ppm": ("dqqpft.io", "read_image_ppm", None),
    "io.write_image_ppm": ("dqqpft.io", "write_image_ppm", None),
    "fast.make_plan": ("dqqpft.fast", "make_plan", None),
    "fast.forward_fast": ("dqqpft.fast", "forward_fast", None),
    "fast.inverse_fast": ("dqqpft.fast", "inverse_fast", None),
    "fast.make_psi": ("dqqpft.fast", "make_psi", None),
    "fast.dqft2_via_fft": ("dqqpft.fast", "dqft2_via_fft", None),
    "fft.fft2": ("dqqpft.fast", "_fft2_raw", _fft_shape),
    "transform.pointwise_sandwich": ("dqqpft.transform", "_pointwise_sandwich", None),
    "signal.qsignal_init": ("dqqpft.signal", "QSignal2D.__init__", _init_bytes),
    "qconv.qp_convolve": ("dqqpft.qconv", "qp_convolve", None),
    "quaternion.qmul": ("dqqpft.quaternion", "qmul", None),
}

# spans whose self time is the fast path's own work: recombination,
# reflection, symplectic split/join and scaling
FAST_SELF = ("fast.forward_fast", "fast.inverse_fast", "fast.make_psi", "fast.dqft2_via_fft")

NAME, START, END, PARENT, OP, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op = None
        self._resolved = None

    def _resolve(self):
        found = {}
        for name, (modname, attr, extra) in TARGETS.items():
            obj = sys.modules.get(modname)
            *owners, leaf = attr.split(".")
            for part in owners:
                obj = getattr(obj, part, None)
            fn = getattr(obj, leaf, None)
            if fn is None:
                self.absent.append(name)
            else:
                found[name] = (obj if owners else None, leaf, fn, extra)
        return found

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[START] = start
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return traced

    def install(self, op) -> None:
        if self._resolved is None:
            self._resolved = self._resolve()
        self._op = op
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dqqpft" or n.startswith("dqqpft."))]
        for name, (owner, leaf, fn, extra) in self._resolved.items():
            wrapper = self._wrap(name, fn, extra)
            holders = [owner] if owner is not None else modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()
        self._op = None

    def write(self, path, record: dict) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"run": record, "absent": self.absent,
                       "fields": ["name", "start", "end", "parent", "op", "extra"],
                       "spans": self.spans}, fh)

    def per_op(self) -> dict:
        """op id -> span name -> {calls, s, self_s, extras}; unseen names read as zero."""
        child = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        ops: dict = defaultdict(lambda: defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "extras": []}))
        for sid, span in enumerate(self.spans):
            dur = span[END] - span[START]
            agg = ops[span[OP]][span[NAME]]
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child[sid]
            if span[EXTRA] is not None:
                agg["extras"].append(span[EXTRA])
        return ops

    def under(self, sid: int, name: str) -> bool:
        """Whether span ``sid`` runs inside a span called ``name``."""
        parent = self.spans[sid][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False


def fft_floor_s(shape, reps: int = 7) -> float:
    """Median time of one numpy.fft.fft2 call on a complex grid of ``shape``."""
    x = np.random.default_rng(0).standard_normal(tuple(shape) + (2,)).view(np.complex128)[..., 0]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.fft.fft2(x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(tracer: Tracer, traced_ops, setup_ops, overhead_ratio: float) -> dict:
    """Per-layer metrics as medians over the traced ops."""
    ops = tracer.per_op()
    floors = {}
    fwd_floor = defaultdict(float)
    for sid, span in enumerate(tracer.spans):
        if span[NAME] == "fft.fft2" and span[OP] in traced_ops:
            shape = tuple(span[EXTRA])
            if shape not in floors:
                floors[shape] = fft_floor_s(shape)
            if tracer.under(sid, "fast.forward_fast"):
                fwd_floor[span[OP]] += floors[shape]

    def med(fn, op_ids=traced_ops) -> float:
        return float(statistics.median(fn(op) for op in op_ids))

    def total(name, key="s"):
        return lambda op: ops[op][name][key]

    def extras(name, fn=lambda v: v):
        return lambda op: sum(fn(v) for v in ops[op][name]["extras"])

    def mbps(name):
        return lambda op: (extras(name)(op) / 1e6 / ops[op][name]["s"]
                           if ops[op][name]["s"] else 0.0)

    def fft_floor(op):
        return sum(floors[tuple(shape)] for shape in ops[op]["fft.fft2"]["extras"])

    def fwd_over_floor(op):
        return ops[op]["fast.forward_fast"]["s"] / fwd_floor[op] if fwd_floor[op] else 0.0

    m = {
        "io.write_qcsv.s": (med(total("io.write_qcsv")), "s"),
        "io.read_qcsv.s": (med(total("io.read_qcsv")), "s"),
        "io.read_image_ppm.s": (med(total("io.read_image_ppm")), "s"),
        "io.write_image_ppm.s": (med(total("io.write_image_ppm")), "s"),
        "io.qcsv.bytes": (med(lambda op: extras("io.write_qcsv")(op)
                              + extras("io.read_qcsv")(op)), "B"),
        "io.write_qcsv.MBps": (med(mbps("io.write_qcsv")), "MB/s"),
        "io.read_qcsv.MBps": (med(mbps("io.read_qcsv")), "MB/s"),
        "fft.fft2.calls": (med(total("fft.fft2", "calls")), "count"),
        "fft.fft2.s": (med(total("fft.fft2")), "s"),
        "fft.fft2.bytes_computed": (med(extras("fft.fft2", lambda s: 32 * s[0] * s[1])), "B"),
        "fft.floor.s": (med(fft_floor), "s"),
        "fast.make_plan.s": (med(total("fast.make_plan")), "s"),
        "fast.make_plan.setup_s": (med(total("fast.make_plan"), setup_ops), "s"),
        "fast.forward_fast.s": (med(total("fast.forward_fast")), "s"),
        "fast.inverse_fast.s": (med(total("fast.inverse_fast")), "s"),
        "fast.make_psi.s": (med(total("fast.make_psi")), "s"),
        "fast.dqft2_via_fft.s": (med(total("fast.dqft2_via_fft")), "s"),
        "fast.self.s": (med(lambda op: sum(ops[op][n]["self_s"] for n in FAST_SELF)), "s"),
        "fast.forward_over_floor": (med(fwd_over_floor), "ratio"),
        "transform.pointwise_sandwich.calls": (
            med(total("transform.pointwise_sandwich", "calls")), "count"),
        "transform.pointwise_sandwich.s": (med(total("transform.pointwise_sandwich")), "s"),
        "signal.qsignal_init.calls": (med(total("signal.qsignal_init", "calls")), "count"),
        "signal.qsignal_init.s": (med(total("signal.qsignal_init")), "s"),
        "signal.qsignal_init.bytes_copied": (med(extras("signal.qsignal_init")), "B"),
        "qconv.qp_convolve.s": (med(total("qconv.qp_convolve")), "s"),
        "qconv.self.s": (med(total("qconv.qp_convolve", "self_s")), "s"),
        "quaternion.qmul.calls": (med(total("quaternion.qmul", "calls")), "count"),
        "quaternion.qmul.s": (med(total("quaternion.qmul")), "s"),
        "cli.main.s": (med(total("cli.main")), "s"),
        "cli.self.s": (med(total("cli.main", "self_s")), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
