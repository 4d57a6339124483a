"""Parent/change comparison: timings, a traced run, default-probe controls
and a same-answers panel, written as one JSON record.

    python3 bench/compare.py --parent DIR --change DIR [--pairs 10]
                             [--seconds S] [--out BENCH.json]

Each DIR is a checkout of one side (its ``src/`` and ``perfbench/``); run
the script from anywhere, with the same interpreter for both sides.  It
runs, in order:

* ``pairs``: ``perfbench/run.py --workload W --seed S --seconds T`` in each
  side's checkout for W in ``fs_perturbed`` and ``sphere_transport_json``
  and S in 0 and 1, ``--pairs`` times each, alternating which side runs
  first, for T seconds (``--seconds``; by default ``run_seconds`` of
  ``BENCHMARK.json``, the length the benchmark runs at); the end-to-end
  metrics are summarised as median and quartiles
  (``statistics.quantiles``, inclusive), the pairs the change wins and the
  parent's quartile spread.
* ``trace``: one ``--trace 1`` run of ``fs_perturbed`` per side.
* ``probe_control``: the wall time of a fresh ``kahler-probe probe``
  process on each default catalog probe, twice per side, alternating, with
  a warm per-side delta cache; the stdout bytes are compared too.  Process
  start-up dominates that time, so each probe's warm in-process wall time
  (a fresh process runs the probe once untimed, then once timed) is
  recorded next to it, best of 3 per side, alternating.
* ``memory``: the tracemalloc peak above entry and the process's peak
  resident set of four cases, each side in a fresh process per case,
  ``--pairs`` times, alternating which side runs first: one warm
  ``sphere_transport_json`` operation (after two untraced ones), the
  ``dump_json`` of the ``--loops 5 --word-length 4`` transport document's
  samples to a temp file, 8 Fourier loops on ``round_sphere_4``
  transported at 20 000 steps, and the ``transport --loops 5
  --word-length 4`` command printing its document to standard output
  (``os.devnull``).  The peak resident set is read after two untraced runs
  of the case, before tracemalloc starts; both are summarised as the
  timings are.
* ``mapped``: where the resident memory of a warm ``fs_perturbed`` worker
  sits.  Each side runs in a fresh process, ``--pairs`` times, alternating:
  the set-up and 5 operations, then the ``Rss`` of ``/proc/self/smaps``
  summed per mapping group, in kB: ``libscipy_openblas*`` (numpy's BLAS and
  LAPACK), ``_multiarray_umath*``, ``[heap]`` and ``[anon]`` (mappings with
  no name).  Summarised as the timings are.
* ``same_answers``: ``fs_perturbed`` and ``fs_witness`` at seeds 0-9
  (perfbench's configs), criteria 08 and 09 at their full configs (with
  ``product_s2_s2`` beside criterion 08's three charts), and the
  ``--no-timestamp`` output of every CLI command (``transport`` at word
  lengths 3 and 4, to ``--out`` and to standard output), on both sides, plus
  ``sphere_obstruction`` at seeds 0-9.  Verdicts, failing stages, details,
  witness loops and words, Karcher iteration counts and convergence are
  compared exactly (``exact_fields_that_differ``).  The numbers (every
  certificate and distance, every orbit distance, the mean's entries, the
  final gradient norm and ``MeanResult.energy``) are reported per field as
  their largest absolute and relative difference (``numeric_diffs``).  A
  CLI output that differs in bytes is parsed (JSON, else CSV) and reported
  as its largest absolute difference, or as null when it differs in
  anything but its numbers; the default-probe controls' stdout likewise.

Every child process has one BLAS thread and a fresh delta cache.  The
Fubini-Study config, the perturbed loop scale, the tangent seed and the
sphere loop count are read from this checkout's ``perfbench/workloads.py``,
so the panel runs the benchmark's probes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import types

WORKLOADS = ("fs_perturbed", "sphere_transport_json")
METRICS = ("op_max_s", "setup_s", "peak_rss_mb")
# (chart, point) of the default catalog probes, as criterion 08 places them
PROBES = (("fubini_study_cp2", "0,0,0,0"), ("product_s2_s2", "0,0,0,0"),
          ("flat_torus_4", "0.5,0.5,0.5,0.5"), ("round_sphere_4", "0,0,0,0"))


def _load_workloads():
    """perfbench/workloads.py, executed from its source without importing
    the perfbench directory or writing anything under it."""
    source = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "workloads.py")
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = source
    with open(source) as fh:
        exec(compile(fh.read(), source, "exec"), module.__dict__)
    return module


workloads = _load_workloads()


def _env(side, cache):
    return dict(os.environ, PYTHONPATH=os.path.join(side, "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", KAHLER_PROBE_CACHE=cache)


def _perfbench(side, *args):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=side,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _summary(parent, change):
    def quart(v):
        q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive")
        return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
    p, c = quart(parent), quart(change)
    return {"parent": p, "change": c,
            "change_wins": sum(b < a for a, b in zip(parent, change)), "pairs": len(parent),
            "median_change_pct": round(100.0 * (c["median"] - p["median"]) / p["median"], 1),
            "parent_iqr": round(p["q3"] - p["q1"], 4),
            "runs": {"parent": [round(v, 4) for v in parent],
                     "change": [round(v, 4) for v in change]}}


def _alternating(i):
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def pairs(sides, n, seconds):
    out = {}
    for workload in WORKLOADS:
        for seed in (0, 1):
            runs = {"parent": [], "change": []}
            for i in range(n):
                for name in _alternating(i):
                    runs[name].append(_perfbench(sides[name], "--workload", workload,
                                                 "--seed", str(seed),
                                                 "--seconds", str(seconds)))
            rec = {m: _summary([r["metrics"][m]["value"] for r in runs["parent"]],
                               [r["metrics"][m]["value"] for r in runs["change"]])
                   for m in METRICS}
            rec["all_correct"] = all(r["correct"] for v in runs.values() for r in v)
            rec["failed"] = {k: sum(r["failed"] for r in v) for k, v in runs.items()}
            rec["attempted"] = {k: [r["attempted"] for r in v] for k, v in runs.items()}
            out[f"{workload}/seed{seed}"] = rec
            print(f"{workload} seed {seed}: op_max_s {rec['op_max_s']['parent']['median']} -> "
                  f"{rec['op_max_s']['change']['median']} s, "
                  f"{rec['op_max_s']['change_wins']}/{n} wins", file=sys.stderr)
    return out


def trace(sides, seconds):
    return {name: {k: v["value"] for k, v in _perfbench(
        side, "--workload", "fs_perturbed", "--seconds", str(seconds),
        "--trace", "1")["metrics"].items()}
        for name, side in sides.items()}


def _probe_cli(side, cache, chart, point):
    t = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "kahlerprobe.cli", "probe", "--manifold", chart,
                          "--point", point, "--no-timestamp"], env=_env(side, cache),
                         capture_output=True, check=True)
    return time.perf_counter() - t, res.stdout


def warm_probe(chart, point):
    """In a child process with one side's src on the path: the wall time of
    the default probe of chart at point, run once untimed and then timed."""
    from kahlerprobe import holonomy, prober
    from kahlerprobe.constants import compute_delta

    c = holonomy.catalog(chart)
    p = [float(v) for v in point.split(",")]
    delta = compute_delta(c.dim // 2, seed=0)
    prober.probe(c, p, delta=delta)
    t = time.perf_counter()
    prober.probe(c, p, delta=delta)
    print(time.perf_counter() - t)


def _warm_probe(side, cache, chart, point):
    return float(subprocess.run([sys.executable, __file__, "--warm-probe", chart, point],
                                env=_env(side, cache), capture_output=True, text=True,
                                check=True).stdout)


def probe_control(sides, tmp):
    caches = {name: os.path.join(tmp, f"{name}_control_cache.json") for name in sides}
    for name, side in sides.items():  # fill the delta cache, untimed
        _probe_cli(side, caches[name], "flat_torus_4", "0.5,0.5,0.5,0.5")
    out = {}
    for chart, point in PROBES:
        times, stdout = {"parent": [], "change": []}, {}
        for i in range(2):
            for name in _alternating(i):
                t, stdout[name] = _probe_cli(sides[name], caches[name], chart, point)
                times[name].append(round(t, 3))
        warm = {"parent": [], "change": []}
        for i in range(3):
            for name in _alternating(i):
                warm[name].append(_warm_probe(sides[name], caches[name], chart, point))
        out[chart] = dict(times, same_stdout=stdout["parent"] == stdout["change"],
                          stdout_max_abs_diff=_text_diff(stdout["parent"], stdout["change"]),
                          warm_in_process_best_s={k: round(min(v), 4)
                                                  for k, v in warm.items()})
    return out


# -- memory -------------------------------------------------------------------

MEMORY_CASES = ("sphere_transport_json_op", "dump_json_word_length_4", "fourier_8x20000",
                "cli_stdout_word_length_4")


def _peak_rss_mb():
    """The peak resident set of this process's own address space, in MB:
    ``VmHWM`` where /proc has it, else ``ru_maxrss``.  Linux carries the
    spawning process's peak into ``ru_maxrss`` across exec, so there a
    child of this script reads at least this script's own resident set."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def memory_case(case):
    """In a child process with one side's src on the path: one memory case's
    peak resident set after two untraced runs and the tracemalloc peak of a
    third run above entry, in MB, as JSON on stdout."""
    import gc
    import tracemalloc

    import numpy as np
    import kahlerprobe
    from kahlerprobe import acs, cli, constants, holonomy, io, prober  # noqa: F401

    with tempfile.TemporaryDirectory() as tmp:
        if case == "sphere_transport_json_op":
            st = workloads.setup(kahlerprobe, "sphere_transport_json", 0, tmp)
            def run():
                workloads.operation(st)
        elif case == "dump_json_word_length_4":
            chart = holonomy.catalog("round_sphere_4")
            p = np.zeros(4)
            loops = holonomy.loop_family(chart, p, "coordinate_rectangles", 5, 0.5)
            doc = {"result": {"samples": [io.holonomy_sample_to_json(s) for s in
                                          holonomy.holonomy_samples(chart, p, loops, 400,
                                                                    word_length=4)]}}
            path = os.path.join(tmp, "transport.json")
            def run():
                io.dump_json(doc, path)
        elif case == "fourier_8x20000":
            chart = holonomy.catalog("round_sphere_4")
            loops = holonomy.loop_family(chart, np.zeros(4), "fourier_random", 8, 0.5)
            def run():
                holonomy.parallel_transport(chart, loops, 20000)
        else:
            argv = ["transport", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
                    "--loops", "5", "--word-length", "4", "--no-timestamp"]
            def run():
                with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                    cli.main(argv)
        run()
        run()
        rss = _peak_rss_mb()
        gc.collect()
        tracemalloc.start()
        entry = tracemalloc.get_traced_memory()[0]
        run()
        peak = (tracemalloc.get_traced_memory()[1] - entry) / 2.0**20
        tracemalloc.stop()
    print(json.dumps({"tracemalloc_peak_mb": peak, "peak_rss_mb": rss}))


def memory(sides, n, tmp):
    out = {}
    for case in MEMORY_CASES:
        runs = {"parent": [], "change": []}
        for i in range(n):
            for name in _alternating(i):
                cache = os.path.join(tmp, f"{name}_memory_cache_{case}_{i}.json")
                runs[name].append(json.loads(subprocess.run(
                    [sys.executable, __file__, "--memory", case], env=_env(sides[name], cache),
                    capture_output=True, text=True, check=True).stdout))
        out[case] = {m: _summary([r[m] for r in runs["parent"]], [r[m] for r in runs["change"]])
                     for m in ("tracemalloc_peak_mb", "peak_rss_mb")}
        print(f"memory {case}: tracemalloc peak "
              f"{out[case]['tracemalloc_peak_mb']['parent']['median']} -> "
              f"{out[case]['tracemalloc_peak_mb']['change']['median']} MB", file=sys.stderr)
    return out


# -- mapped -------------------------------------------------------------------

MAPPED_GROUPS = ("libscipy_openblas", "_multiarray_umath", "[heap]", "[anon]")


def _smaps_rss_kb():
    """Rss of /proc/self/smaps in kB, summed per MAPPED_GROUPS entry: a
    mapping joins the library group its file name starts with, ``[heap]``,
    or ``[anon]`` when it has no name."""
    rss = dict.fromkeys(MAPPED_GROUPS, 0)
    group = None
    with open("/proc/self/smaps") as fh:
        for line in fh:
            fields = line.split()
            if "-" in fields[0] and not fields[0].endswith(":"):  # a mapping's header
                name = os.path.basename(fields[5]) if len(fields) > 5 else "[anon]"
                group = next((g for g in MAPPED_GROUPS if name.startswith(g)), None)
            elif fields[0] == "Rss:" and group is not None:
                rss[group] += int(fields[1])
    return rss


def mapped_case():
    """In a child process with one side's src on the path: the set-up and 5
    operations of fs_perturbed at seed 0, then _smaps_rss_kb as JSON."""
    import kahlerprobe
    from kahlerprobe import acs, cli, constants, holonomy, io, prober  # noqa: F401

    with tempfile.TemporaryDirectory() as tmp:
        st = workloads.setup(kahlerprobe, "fs_perturbed", 0, tmp)
        for _ in range(5):
            workloads.operation(st)
        print(json.dumps(_smaps_rss_kb()))


def mapped(sides, n, tmp):
    runs = {"parent": [], "change": []}
    for i in range(n):
        for name in _alternating(i):
            cache = os.path.join(tmp, f"{name}_mapped_cache_{i}.json")
            runs[name].append(json.loads(subprocess.run(
                [sys.executable, __file__, "--mapped"], env=_env(sides[name], cache),
                capture_output=True, text=True, check=True).stdout))
    out = {g: _summary([r[g] for r in runs["parent"]], [r[g] for r in runs["change"]])
           for g in MAPPED_GROUPS}
    print("mapped rss kB: " + ", ".join(
        f"{g} {out[g]['parent']['median']} -> {out[g]['change']['median']}"
        for g in MAPPED_GROUPS), file=sys.stderr)
    return out


# -- same answers -------------------------------------------------------------

def answers():
    """In a child process with one side's src on the path: the outcome of
    every panel probe, as JSON on stdout."""
    from kahlerprobe import acs, holonomy, prober
    from kahlerprobe.constants import compute_delta

    fs = holonomy.catalog("fubini_study_cp2")
    origin = [0.0] * 4
    J_fs = prober.default_structure(fs, origin)

    def record(v, pullback=False):
        m, orbit = v.mean_result, v.orbit_report
        witness = v.witness_loop_index
        rec = {"kind": v.kind, "failing_stage": v.failing_stage, "detail": v.detail,
               "witness_loop": witness,
               "witness_word": None if witness is None else list(orbit.samples[witness].word),
               "certificates": dict(v.certificates),
               "orbit_max_distance": orbit.max_distance if orbit else None,
               "orbit_distances": list(orbit.distances) if orbit else None,
               "witness_distance": v.witness_distance}
        if m is not None:
            rec.update(mean=m.mean.mat.tolist(), iterations=m.iterations,
                       final_grad_norm=m.final_grad_norm, converged=m.converged,
                       energy=m.energy)
            if pullback:
                rec["pullback_distance"] = acs.distance(m.mean, J_fs)
        return rec

    def perturbed(delta, seed):
        return acs.exp_map(J_fs, acs.random_tangent(
            J_fs, workloads.TANGENT_SEED + seed, delta.delta / 4.0), 1.0)

    out = {}
    for seed in range(10):
        delta = compute_delta(2, seed=seed)
        cfg = prober.ProbeConfig(**workloads.FS_CONFIG, seed=seed)
        out[f"fs_witness/{seed}"] = record(prober.probe(fs, origin, config=cfg, delta=delta))
        cfg = prober.ProbeConfig(**workloads.FS_CONFIG, seed=seed,
                                 loop_scale=workloads.PERTURBED_LOOP_SCALE)
        out[f"fs_perturbed/{seed}"] = record(prober.probe(
            fs, origin, J_p=perturbed(delta, seed), config=cfg, delta=delta), pullback=True)
        out[f"sphere_obstruction/{seed}"] = record(prober.probe(
            holonomy.catalog("round_sphere_4"), origin, delta=delta,
            config=prober.ProbeConfig(loops=workloads.SPHERE_LOOPS, seed=seed)))
    delta = compute_delta(2, seed=0)
    for chart, point in (("flat_torus_4", [0.5] * 4), ("fubini_study_cp2", origin),
                         ("product_s2_s2", origin), ("round_sphere_4", origin)):
        out[f"criterion_08/{chart}"] = record(prober.probe(holonomy.catalog(chart), point,
                                                           delta=delta))
    out["criterion_09"] = record(prober.probe(
        fs, origin, J_p=perturbed(delta, 0),
        config=prober.ProbeConfig(loop_scale=workloads.PERTURBED_LOOP_SCALE),
        delta=delta), pullback=True)
    json.dump(out, sys.stdout)


def _mean_inputs(tmp):
    """Three sample sets for the mean command, as JSON files: weighted with
    a zero weight, bare, and a zero-weight point in the other component."""
    import numpy as np
    from kahlerprobe import acs, io

    J = acs.canonical_j(2)
    pts = [acs.exp_map(J, acs.random_tangent(J, k, 0.4), 1.0) for k in range(5)]
    D = np.diag([1.0, 1.0, 1.0, -1.0])
    other = acs.validate_j(D @ J.mat @ D)
    docs = {"weighted": {"points": [io.structure_to_json(p) for p in pts],
                         "weights": [0.3, 0.0, 0.2, 0.25, 0.25]},
            "bare": [io.structure_to_json(p) for p in pts[:3]],
            "zero_weight_other_component": {
                "points": [io.structure_to_json(p) for p in (pts[0], pts[1], other)],
                "weights": [0.5, 0.5, 0.0]}}
    for name, doc in docs.items():
        with open(os.path.join(tmp, f"{name}.json"), "w") as fh:
            json.dump(doc, fh)


def _cli_runs(side, tmp, name):
    """The --no-timestamp output of every CLI command on one side."""
    cache = os.path.join(tmp, f"{name}_cli_cache.json")
    out_dir = os.path.join(tmp, "out")  # one path for both sides: the header echoes it
    os.makedirs(out_dir, exist_ok=True)
    where = os.path.join(out_dir, "{}")
    commands = {
        "delta": ["delta", "--dim", "4"],
        "transport": ["transport", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
                      "--loops", str(workloads.SPHERE_LOOPS),
                      "--out", where.format("transport.json")],
        "transport_word_length_4": ["transport", "--manifold", "round_sphere_4",
                                    "--point", "0,0,0,0", "--loops", str(workloads.SPHERE_LOOPS),
                                    "--word-length", "4",
                                    "--out", where.format("transport.json")],
        "transport_stdout": ["transport", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
                             "--loops", str(workloads.SPHERE_LOOPS)],
        "transport_stdout_word_length_4": ["transport", "--manifold", "round_sphere_4",
                                           "--point", "0,0,0,0",
                                           "--loops", str(workloads.SPHERE_LOOPS),
                                           "--word-length", "4"],
        "transport_fourier": ["transport", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
                              "--loop-kind", "fourier_random",
                              "--out", where.format("transport.json")],
        "orbit": ["orbit", "--manifold", "fubini_study_cp2", "--point", "0,0,0,0",
                  "--loops", "3", "--csv", where.format("orbit.csv")],
        "orbit_sphere": ["orbit", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
                         "--loops", "3", "--csv", where.format("orbit.csv")],
        "probe_fs_perturbed_config": [
            "probe", "--manifold", "fubini_study_cp2", "--point", "0,0,0,0",
            *[arg for key, value in workloads.FS_CONFIG.items()
              for arg in ("--" + key.replace("_", "-"), str(value))],
            "--loop-scale", str(workloads.PERTURBED_LOOP_SCALE)],
    }
    for m in ("weighted", "bare", "zero_weight_other_component"):
        commands[f"mean_{m}"] = ["mean", "--input", os.path.join(tmp, f"{m}.json")]
    out = {}
    for key, argv in commands.items():
        res = subprocess.run([sys.executable, "-m", "kahlerprobe.cli", *argv, "--no-timestamp"],
                             env=_env(side, cache), capture_output=True)
        files = {}
        for f in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, f), "rb") as fh:
                files[f] = fh.read().decode()
            os.remove(os.path.join(out_dir, f))
        out[key] = {"exit": res.returncode, "stdout": res.stdout.decode(),
                    "stderr": res.stderr.decode(), "files": files}
    return out


EXACT_FIELDS = ("kind", "failing_stage", "detail", "witness_loop", "witness_word",
                "iterations", "converged")


def _rel(a, b):
    return abs(a - b) / abs(a) if a else abs(b)


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _numbers(a, b):
    """The pairs of numbers at the same places in two JSON-like values, or
    None when the values differ in anything but their numbers."""
    if _is_number(a) and _is_number(b):
        return [(a, b)]
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        a, b = [a[k] for k in sorted(a)], [b[k] for k in sorted(a)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = []
        for x, y in zip(a, b):
            sub = _numbers(x, y)
            if sub is None:
                return None
            pairs += sub
        return pairs
    return [] if a == b else None


def _changed(pairs):
    """The pairs whose numbers differ; NaN against NaN is no difference."""
    return [(x, y) for x, y in pairs if not (x == y or (x != x and y != y))]


def _abs_diff(pairs):
    return max((abs(x - y) for x, y in _changed(pairs)), default=0.0)


def _parse(text):
    """A CLI output as JSON, else as CSV rows of numbers and strings."""
    try:
        return json.loads(text)
    except ValueError:
        def cell(c):
            try:
                return float(c)
            except ValueError:
                return c
        return [[cell(c) for c in line.split(",")] for line in text.splitlines()]


def _text_diff(a, b):
    """0.0 for equal outputs, else the largest absolute difference of their
    numbers, or None when they differ in anything else."""
    if isinstance(a, bytes):
        a, b = a.decode(), b.decode()
    if a == b:
        return 0.0
    pairs = _numbers(_parse(a), _parse(b))
    return None if pairs is None else _abs_diff(pairs)


def same_answers(sides, tmp):
    probes, cli = {}, {}
    subprocess.run([sys.executable, __file__, "--mean-inputs", tmp],
                   env=_env(sides["parent"], os.path.join(tmp, "inputs_cache.json")), check=True)
    for name, side in sides.items():
        probes[name] = json.loads(subprocess.run(
            [sys.executable, __file__, "--answers"], capture_output=True, check=True,
            env=_env(side, os.path.join(tmp, f"{name}_answers_cache.json"))).stdout)
        cli[name] = _cli_runs(side, tmp, name)
    exact, numeric = [], {}
    for key, rec in probes["parent"].items():
        other = probes["change"][key]
        for field, value in rec.items():
            if field in EXACT_FIELDS:
                if value != other[field]:
                    exact.append(f"{key}: {field}")
                continue
            pairs = _numbers(value, other[field])
            if pairs is None:
                exact.append(f"{key}: {field}")
                continue
            changed = _changed(pairs)
            diff = numeric.setdefault(field, {"max_abs": 0.0, "max_rel": 0.0, "probes": 0})
            diff["max_abs"] = max([diff["max_abs"]] + [abs(x - y) for x, y in changed])
            diff["max_rel"] = max([diff["max_rel"]] + [_rel(x, y) for x, y in changed])
            diff["probes"] += bool(changed)
    cli_diff = {}
    for key, rec in cli["parent"].items():
        other = cli["change"][key]
        if rec == other:
            continue
        cli_diff[key] = None
        if (rec["exit"], rec["stderr"], rec["files"].keys()) == \
                (other["exit"], other["stderr"], other["files"].keys()):
            diffs = [_text_diff(rec["stdout"], other["stdout"])] + [
                _text_diff(rec["files"][f], other["files"][f]) for f in rec["files"]]
            if None not in diffs:
                cli_diff[key] = max(diffs)
    return {"probes": sorted(probes["parent"]), "exact_fields": list(EXACT_FIELDS),
            "exact_fields_that_differ": exact, "numeric_diffs": numeric,
            "cli_commands": sorted(cli["parent"]),
            "cli_commands_that_differ_max_abs_diff": cli_diff,
            "cli_exit": {k: [v["exit"], cli["change"][k]["exit"]]
                         for k, v in cli["parent"].items()}}


def _sha_src(side):
    h = hashlib.sha256()
    src = os.path.join(side, "src", "kahlerprobe")
    for f in sorted(os.listdir(src)):
        if f.endswith(".py"):
            h.update(f.encode())
            with open(os.path.join(src, f), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _run_seconds():
    """run_seconds of this checkout's BENCHMARK.json."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    with open(path) as fh:
        return float(json.load(fh)["run_seconds"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of each perfbench run (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--out", default="BENCH.json")
    ap.add_argument("--answers", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--mean-inputs", help=argparse.SUPPRESS)
    ap.add_argument("--warm-probe", nargs=2, help=argparse.SUPPRESS)
    ap.add_argument("--memory", choices=MEMORY_CASES, help=argparse.SUPPRESS)
    ap.add_argument("--mapped", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.memory:
        memory_case(args.memory)
        return 0
    if args.mapped:
        mapped_case()
        return 0
    if args.answers:
        answers()
        return 0
    if args.warm_probe:
        warm_probe(*args.warm_probe)
        return 0
    if args.mean_inputs:
        _mean_inputs(args.mean_inputs)
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    seconds = _run_seconds() if args.seconds is None else args.seconds
    import numpy
    try:  # a test-only dependency: the runtime needs numpy alone
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    record = {"sides": {k: {"src_sha256": _sha_src(v)} for k, v in sides.items()},
              "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy_version,
                          "blas_threads": "1"}, "seconds": seconds}
    with tempfile.TemporaryDirectory() as tmp:
        record["same_answers"] = same_answers(sides, tmp)
        print("same answers done", file=sys.stderr)
        record["probe_control"] = probe_control(sides, tmp)
        print("probe control done", file=sys.stderr)
        record["memory"] = memory(sides, args.pairs, tmp)
        record["mapped"] = mapped(sides, args.pairs, tmp)
        record["pairs"] = pairs(sides, args.pairs, seconds)
        record["trace"] = trace(sides, seconds)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
