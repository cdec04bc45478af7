"""Layered benchmark for edapt.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {grid,tall,wide} --seed N \\
        --seconds S --trace {0,1}

One process per workload, one closed-loop caller, one operation in
flight.  BLAS threading is left as the caller's environment sets it:
``OPENBLAS_NUM_THREADS`` is recorded, never set (except in the
single-threaded reference child of a traced run).

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` alternates untraced and traced operations on one input
(the difference of their wall times is the tracing overhead), reports
per-layer medians per operation, then repeats the traced operations in a
child process with ``OPENBLAS_NUM_THREADS=1`` and reports those beside
them under the ``st1.`` prefix.

Earlier stdout lines are for people: the run environment, every metric
by name and unit, and the failed fraction.  The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from ``src/`` of the checkout;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5
ST1_MAX_OPS = 2
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("fits_per_s", "1/s"),
    ("fit_s", "s"),
    ("predict_rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "fraction"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("grid", "tall", "wide"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # internal: child processes and the harness self-tests
    ap.add_argument("--role", default="main", choices=("main", "setup", "st1"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--ops", default=1, type=int, help=argparse.SUPPRESS)
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "edapt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def _child(args, role: str, extra_env=None, ops: int = 1) -> str:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role, "--ops", str(ops),
           "--scale", args.scale]
    env = dict(os.environ, **(extra_env or {}))
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{role} child exited {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout.strip().splitlines()[-1]


def measure_setup(args) -> list[float]:
    """Process spawn to ready inputs, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.time()
        ready = json.loads(_child(args, "setup"))["ready"]
        samples.append(ready - spawned)
    return samples


def _attempt(W, workload, inp, out_dir, refs):
    """Run and check one operation; returns its timings, or None if it failed."""
    try:
        timing, out = W.run_op(workload, inp, out_dir)
        problems = W.check(workload, out, refs.get(inp.seed))
    except Exception:  # noqa: BLE001 - an operation's failure is a result
        _log(f"operation on data seed {inp.seed} raised:\n{traceback.format_exc()}")
        return None
    if problems:
        _log(f"operation on data seed {inp.seed} failed its checks: " + "; ".join(problems[:5]))
        return None
    return timing


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)


def _go_on(t0: float, seconds: float, spent: list[float], done: int, minimum: int) -> bool:
    """Start another unit of work while it is expected to end in the budget."""
    if done < minimum:
        return True
    return time.perf_counter() - t0 + statistics.median(spent) <= seconds


def untraced(args, W, inputs, refs, out_dir):
    results, spent, attempted = [], [], 0
    t0 = time.perf_counter()
    while _go_on(t0, args.seconds, spent, attempted, W.MIN_OPS):
        inp = inputs[attempted % len(inputs)]
        attempted += 1
        started = time.perf_counter()
        got = _attempt(W, args.workload, inp, out_dir, refs)
        spent.append(time.perf_counter() - started)
        if got is not None:
            results.append(got)
    return results, attempted


def end_to_end(results, setup) -> dict[str, float]:
    if not results:
        return {name: 0.0 for name, _ in END_TO_END}
    # every scoring pass but the first in the process runs warm
    rates = [r["rows"] / s for r in results for s in r["predict_s"]]
    return {
        "setup_s": statistics.median(setup),
        "fits_per_s": sum(r["fits"] for r in results) / sum(r["fit_s"] for r in results),
        "fit_s": statistics.median(r["fit_s"] for r in results),
        "predict_rows_per_s": statistics.median(rates[1:] or rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": statistics.fmean(r["accuracy"] for r in results),
    }


def traced_ops(args, W, T, inp, refs, out_dir, n_ops=None):
    """Traced operations on one input, alternating with untraced ones
    unless ``n_ops`` fixes a count of traced operations alone."""
    tracer = T.Tracer()
    attempted, failed = 1, 0
    # warm-up, so that neither side of the first pair pays first-call costs
    if _attempt(W, args.workload, inp, out_dir, refs) is None:
        failed += 1
    walls = {False: [], True: []}
    spent = []
    t0 = time.perf_counter()
    i = 0
    while (i < n_ops) if n_ops else _go_on(t0, args.seconds, spent, i, 1):
        started = time.perf_counter()
        order = (True,) if n_ops else ((False, True) if i % 2 == 0 else (True, False))
        for trace in order:
            attempted += 1
            if trace:
                with tracer.installed(), tracer.operation():
                    got = _attempt(W, args.workload, inp, out_dir, refs)
            else:
                got = _attempt(W, args.workload, inp, out_dir, refs)
            if got is None:
                failed += 1
            else:
                walls[trace].append(got["wall_s"])
        spent.append(time.perf_counter() - started)
        i += 1
    return tracer, walls, attempted, failed, i


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "edapt", "__init__.py")):
        _log(f"no edapt sources at {SRC}; run from the root of a checkout")
        return 2
    sys.path[:0] = [SRC, HERE]
    import numpy as np

    import tracing as T
    import workloads as W

    os.makedirs(OUT, exist_ok=True)
    order = [W.POOL[i] for i in np.random.default_rng(args.seed).permutation(len(W.POOL))]
    if args.trace:
        order = order[:1]
    inputs = [W.prepare(args.workload, args.scale, s) for s in order]
    if args.role == "setup":
        print(json.dumps({"ready": time.time()}))
        return 0
    refs = W.load_references(args.workload, args.scale)
    env = environment()
    stem = os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}")

    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        if args.role == "st1":
            tracer, *_ = traced_ops(args, W, T, inputs[0], refs, out_dir, n_ops=args.ops)
            tracer.write(stem + "_st1.jsonl", {"env": env})
            print(json.dumps(T.median_stats(tracer.op_stats())))
            return 0
        if not args.trace:
            setup = measure_setup(args)
            results, attempted = untraced(args, W, inputs, refs, out_dir)
            failed = attempted - len(results)
            values = end_to_end(results, setup)
            specs = [(name, unit) for name, unit in END_TO_END]
            notes = {"setup_s": f"median of {len(setup)} fresh-process setups",
                     "fit_s": f"median of {len(results)} operations",
                     "predict_rows_per_s": "median of the warm scoring passes"}
        else:
            tracer, walls, attempted, failed, n = traced_ops(
                args, W, T, inputs[0], refs, out_dir)
            tracer.write(stem + ".jsonl", {"env": env})
            values = T.median_stats(tracer.op_stats()) if walls[True] else {}
            if walls[True] and walls[False]:
                values["trace.overhead_s"] = (statistics.median(walls[True])
                                              - statistics.median(walls[False]))
            try:
                st1 = _child(args, "st1", {"OPENBLAS_NUM_THREADS": "1"}, min(n, ST1_MAX_OPS))
                values.update({T.SINGLE_THREAD_PREFIX + k: v
                               for k, v in json.loads(st1).items()})
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                _log(f"single-threaded reference trace failed: {exc}")
                attempted += 1
                failed += 1
            specs = [(name, unit) for name, unit, _ in T.per_layer_specs()]
            notes = {}

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"data_seeds={order}")
    print("env " + json.dumps(env))
    metrics = {}
    for name, unit in specs:
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} = {value:.6g} {unit}"
              + (f"  ({notes[name]})" if name in notes else ""))
    print(f"failed_frac = {failed / attempted:.6g} fraction ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
