"""Benchmark of the dqqpft library, timed from outside through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One workload runs per process as a closed loop: one caller, one op at a
time, no added threads.  Set-up (import, inputs, plans, one warm-up op)
is repeated a few times and its median reported as ``setup_s``.  Ops then
run for ``--seconds`` of wall time; every op's output is checked outside
the timed region.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
alternates untraced and traced ops and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See NOTES.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
NAMES = ("cli-roundtrip", "fast-odd", "qp-conv")
SETUPS = 3
# random-number streams, so that inputs depend only on the seed and op index
SETUP, WARMUP, OP, CHECK = range(4)


def import_library():
    """Import dqqpft from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dqqpft" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'dqqpft'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import dqqpft
    if Path(dqqpft.__file__).resolve().parent != (src / "dqqpft").resolve():
        sys.exit(f"error: imported dqqpft from {dqqpft.__file__}, not from {src}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(np, args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "commit": git_commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(), "platform": platform.platform(),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
    }


def run_workload(args) -> dict:
    import_library()
    import_s = time.perf_counter() - T_START
    import numpy as np
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, CheckFailed

    def rng(*stream):
        return np.random.default_rng([args.seed, *stream])

    workdir = ROOT / ".bench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](workdir, args.smoke)
    tracer = Tracer() if args.trace else None

    setup_times, setup_ops = [], []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        if tracer:
            setup_ops.append(f"setup{k}")
            tracer.install(setup_ops[-1])
        state = wl.setup(rng(SETUP))
        if tracer:
            tracer.uninstall()
        try:
            wl.run(state, wl.inputs(state, rng(WARMUP)))
        except Exception:  # the timed ops will fail and be counted
            traceback.print_exc()
        setup_times.append(time.perf_counter() - t0)

    plain, traced, traced_ops = [], [], []
    attempted = failed = samples = 0
    worst = 0.0
    min_ops = 2 if tracer else 1
    t_loop = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - t_loop < args.seconds:
        op = attempted
        inp = wl.inputs(state, rng(OP, op))
        use_trace = tracer is not None and op % 2 == 1
        if use_trace:
            tracer.install(op)
        error = None
        t0 = time.perf_counter()
        try:
            result = wl.run(state, inp)
        except Exception as exc:
            error = exc
        dt = time.perf_counter() - t0
        if use_trace:
            tracer.uninstall()
            traced.append(dt)
            traced_ops.append(op)
        else:
            plain.append(dt)
        attempted += 1
        if error is None:
            try:
                worst = max(worst, wl.check(state, inp, result, rng(CHECK, op)))
            except CheckFailed as exc:
                error = exc
                worst = max(worst, exc.err)
            except Exception as exc:
                error = exc
                worst = math.inf
        if error is None:
            samples += wl.samples_per_op
        else:
            failed += 1
            print(f"op {op} failed:", file=sys.stderr)
            traceback.print_exception(error)

    record = run_record(np, args)
    record.update(op_samples=len(plain), op_s=plain, setup_rep_s=setup_times,
                  import_s=import_s, failed=failed, attempted=attempted,
                  fail_ratio=failed / attempted, max_rel_error=worst)
    if tracer:
        metrics = layer_metrics(tracer, traced_ops, setup_ops,
                                statistics.median(traced) / statistics.median(plain))
        record["absent_spans"] = tracer.absent
        out = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(out, record)
        record["trace_file"] = str(out.relative_to(ROOT))
    else:
        digits = 16.0 if worst == 0.0 else min(16.0, -math.log10(worst))
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "op_p50_s": (statistics.median(plain), "s"),
            "samples_per_s": (samples / sum(plain), "1/s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "accuracy_digits": (digits, "digits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"run_record": record}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload, each in a fresh process; prints one table."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"fail_ratio {res['failed'] / res['attempted']:.3g}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
