"""Time-to-verdict benchmark for kahlerprobe.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see ``workloads.py`` and ``design.json``):
``fs_witness``, ``fs_perturbed``, ``sphere_obstruction`` and
``sphere_transport_json``; ``all`` runs them one after another.

Each run starts the workload in a fresh worker process with one BLAS
thread and a fresh delta cache under ``.perfbench_tmp/`` in the checkout.
The worker times its operations for ``--seconds`` and checks every output:
against the reference values in ``reference/`` at the default seed 0, and
against the acceptance-gate tolerances at every seed.  Two more fresh
processes repeat only the set-up, so ``setup_s`` is a median of three.

End-to-end metrics of the result line (``--trace 0``):
  op_max_s     wall time of the slowest operation of the run (s)
  setup_s      fresh process to first operation: import, a cold delta
               estimate for n = 2 and the chart (s, median of 3 processes)
  peak_rss_mb  ru_maxrss of the worker at the end of its operations (MB)
Printed above it: ``op_s`` (median wall time of one operation), the
highest percentile with ten operations beyond it once a run has 20, the
operation count, and ``fail_frac``; the result line carries ``attempted``
and ``failed``.  The slowest operation, not the median, is the bounded
metric: on the 2-vCPU shared VM the benchmark was defined on, machine speed
switches between two levels for 30-90 s at a time and moves run medians by
up to 40%; almost every run reaches the slow level, so the slowest
operation spread about half as much over ten seeds (0.08-0.19 against
0.13-0.36, as (Q3 - Q1) / median).

With ``--trace 1`` the worker alternates untraced and traced operations and
reports the per-layer metrics of ``tracer.py`` (medians over the traced
operations), plus ``trace.op_s`` (median traced operation) and
``trace.overhead_frac`` = (traced - untraced) / untraced median.

The last line of standard output is the JSON result.  Exit status 1, with
no result line, when the checkout has no program, a worker fails, the
checker misses a planted wrong output, or an expected span never fires.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True   # leave nothing behind in the checkout
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _child_env(cache_path: str) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", KAHLER_PROBE_CACHE=cache_path)
    env.pop("PYTHONPATH", None)
    return env


def _run_worker(args, tmpdir, deadline, setup_only=False):
    """Start one worker; return (setup seconds, stdout lines after ready)."""
    work = tempfile.mkdtemp(dir=tmpdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmpdir", work]
    if setup_only:
        cmd.append("--setup-only")
    env = _child_env(os.path.join(work, "delta_cache.json"))
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker did not finish in time")
    except BaseException:   # interrupted or terminated: take the worker along
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    lines = out.splitlines()
    ready = [ln for ln in lines if ln.startswith("ready ")]
    if not ready:
        raise BenchError("worker never reported set-up done")
    return float(ready[0].split()[1]) - t0, lines[lines.index(ready[0]) + 1:]


def _provenance() -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, files in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}


def _tail(times):
    """The highest percentile with at least ten samples beyond it, once
    there are enough samples for it to lie at or above the median."""
    n = len(times)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def measure(args) -> tuple:
    if not os.path.isfile(os.path.join(ROOT, "src", "kahlerprobe", "__init__.py")):
        raise BenchError(f"no kahlerprobe sources under {ROOT}/src")
    deadline = time.monotonic() + DEADLINE_S
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        setup_s, lines = _run_worker(args, tmpdir, deadline)
        if not lines:
            raise BenchError("worker printed no result")
        doc = json.loads(lines[-1])
        setups = [setup_s]
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_run_worker(args, tmpdir, deadline, True)[0])
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    if doc["checker_missed"]:
        raise BenchError("checker self-test missed: "
                         + ", ".join(doc["checker_missed"]))
    if doc.get("missing_spans"):
        raise BenchError(f"expected spans never fired: {doc['missing_spans']}")
    return doc, setups


def report(args, doc, setups) -> dict:
    env = dict(doc["env"], **_provenance())
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for p in doc["problems"]:
        print(f"check failed: {p}")
    attempted, failed = doc["attempted"], doc["failed"]
    times = doc["op_s"]
    if args.trace:
        print("patched " + json.dumps(doc["bindings"], sort_keys=True))
        traced = statistics.median(doc["traced_op_s"])
        plain = statistics.median(times)
        values = dict(doc["layers"], **{
            "trace.op_s": traced,
            "trace.overhead_frac": (traced - plain) / plain})
        for name, v in values.items():
            share = (f"  ({v / traced:6.1%} of trace.op_s)"
                     if tracer.unit_of(name) == "s" and name != "trace.op_s"
                     and not name.startswith("constants.") else "")
            print(f"{name:40s} {v:14.6g} {tracer.unit_of(name)}{share}")
        metrics = {k: {"value": v, "unit": tracer.unit_of(k)}
                   for k, v in values.items()}
    else:
        metrics = {
            "op_max_s": {"value": max(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": doc["peak_rss_kb"] / 1024.0, "unit": "MB"}}
        tail = _tail(times)
        print(f"op_s         {statistics.median(times):.6f} s (median of "
              f"{len(times)} operations; tail "
              + (f"p{tail[0]:.0f} = {tail[1]:.6f} s)" if tail
                 else "n/a below 20 operations)"))
        for name, m in metrics.items():
            print(f"{name:12s} {m['value']:.6f} {m['unit']}")
        print(f"fail_frac    {failed / attempted:.6f} ratio "
              f"({failed} of {attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so the worker is stopped as well
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for args.workload in names:
        try:
            doc, setups = measure(args)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        result = report(args, doc, setups)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
