"""One workload run in a fresh process; started by ``run.py``.

Prints ``ready <time.monotonic()>`` when set-up is done, then, unless
``--setup-only`` is given, runs operations for ``--seconds`` and prints one
JSON line with the operation times, the checked outcomes and, with
``--trace 1``, the per-layer metrics.  The parent supplies the pinned
environment (one BLAS thread, a fresh ``KAHLER_PROBE_CACHE``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import check
import tracer as tr
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def timed_ops(st, seconds, tracer=None):
    """Closed loop until the next operation would end past ``seconds``.

    With a tracer, even-numbered operations run untraced and odd-numbered
    ones traced, so both sides see the same drift in machine speed.
    Outputs are kept once per distinct value (``keys`` names each
    operation's), so holding them does not inflate the peak RSS."""
    times, traced_times, layers, keys, distinct = [], [], [], [], {}
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result, error = workloads.operation(st), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            t1 = time.perf_counter()
            if traced:
                tracer.uninstall()
        if traced:
            traced_times.append(t1 - t0)
            layers.append(tr.layer_metrics(tracer.take()))
        else:
            times.append(t1 - t0)
        cap = {"error": error} if error else workloads.capture(st, result)
        del result
        key = (hashlib.sha256(cap).hexdigest() if isinstance(cap, bytes)
               else json.dumps(cap, sort_keys=True))
        distinct.setdefault(key, cap)
        keys.append(key)
        i += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(times + traced_times)
        need_more = tracer is not None and not traced_times
        if elapsed + typical > seconds and not need_more:
            return times, traced_times, layers, keys, distinct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmpdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    kp = workloads.load_program(ROOT)
    tracer = None
    if args.trace:
        tracer = tr.Tracer(kp)
        tracer.install()
    st = workloads.setup(kp, args.workload, args.seed, args.tmpdir)
    if tracer is not None:
        tracer.uninstall()
        setup_spans = tracer.take()
        setup_missing = tr.missing_spans(tracer.fired, tr.EXPECTED["setup"])
        tracer.fired.clear()
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    times, traced_times, layers, keys, distinct = timed_ops(
        st, args.seconds, tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    limits = workloads.gate_limits(kp)
    verdicts = {k: check.check(args.workload, args.seed,
                               workloads.outcome(cap), limits)
                for k, cap in distinct.items()}
    problems = [verdicts[k] for k in keys]
    doc = {"op_s": times, "failed": sum(1 for p in problems if p),
           "attempted": len(problems),
           "problems": sorted({m for p in problems for m in p}),
           "checker_missed": check.self_test(limits),
           "peak_rss_kb": peak_rss_kb, "env": environment()}
    if tracer is not None:
        doc["traced_op_s"] = traced_times
        doc["layers"] = {k: statistics.median(m[k] for m in layers)
                         for k in layers[0]}
        doc["layers"].update(tr.setup_metrics(setup_spans))
        doc["missing_spans"] = setup_missing + tr.missing_spans(
            tracer.fired, tr.expected_spans(args.workload))
        doc["bindings"] = tracer.bindings
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
