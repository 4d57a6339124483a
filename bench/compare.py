"""Parent/change comparison: timings, a traced run, default-probe controls
and a same-answers panel, written as one JSON record.

    python3 bench/compare.py --parent DIR --change DIR [--pairs 10]
                             [--seconds 10] [--out BENCH.json]

Each DIR is a checkout of one side (its ``src/`` and ``perfbench/``); run
the script from anywhere, with the same interpreter for both sides.  It
runs, in order:

* ``pairs``: ``perfbench/run.py --workload W --seed S --seconds T`` in each
  side's checkout for W in ``fs_perturbed`` and ``sphere_transport_json``
  and S in 0 and 1, ``--pairs`` times each, alternating which side runs
  first; the end-to-end metrics are summarised as median and quartiles
  (``statistics.quantiles``, inclusive), the pairs the change wins and the
  parent's quartile spread.
* ``trace``: one ``--trace 1`` run of ``fs_perturbed`` per side.
* ``probe_control``: the wall time of a fresh ``kahler-probe probe``
  process on each default catalog probe, twice per side, alternating, with
  a warm per-side delta cache; the stdout bytes are compared too.
* ``same_answers``: ``fs_perturbed`` and ``fs_witness`` at seeds 0-9
  (perfbench's configs), criteria 08 and 09 at their full configs, and the
  ``--no-timestamp`` output of every CLI command, on both sides.  Verdicts,
  failing stages, certificate and distance reprs, mean bytes and Karcher
  iteration counts must agree exactly; ``MeanResult.energy`` (and the
  ``mean`` command's ``energy``) is reported as its largest relative and
  absolute difference.

Every child process has one BLAS thread and a fresh delta cache.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("fs_perturbed", "sphere_transport_json")
METRICS = ("op_max_s", "setup_s", "peak_rss_mb")
# (chart, point) of the default catalog probes, as criterion 08 places them
PROBES = (("fubini_study_cp2", "0,0,0,0"), ("product_s2_s2", "0,0,0,0"),
          ("flat_torus_4", "0.5,0.5,0.5,0.5"), ("round_sphere_4", "0,0,0,0"))
FS_CONFIG = {"word_length": 2, "ode_steps": 100, "field_steps": 100, "probe_points": 1}


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


def pairs(sides, n, seconds):
    out = {}
    for workload in WORKLOADS:
        for seed in (0, 1):
            runs = {"parent": [], "change": []}
            for i in range(n):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for name in order:
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


def probe_control(sides, tmp):
    caches = {name: os.path.join(tmp, f"{name}_control_cache.json") for name in sides}
    for name, side in sides.items():  # fill the delta cache, untimed
        _probe_cli(side, caches[name], "flat_torus_4", "0.5,0.5,0.5,0.5")
    out = {}
    for chart, point in PROBES:
        times, stdout = {"parent": [], "change": []}, {}
        for i in range(2):
            for name in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                t, stdout[name] = _probe_cli(sides[name], caches[name], chart, point)
                times[name].append(round(t, 3))
        out[chart] = dict(times, same_stdout=stdout["parent"] == stdout["change"])
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
        m = v.mean_result
        rec = {"kind": v.kind, "failing_stage": v.failing_stage, "detail": v.detail,
               "certificates": {k: repr(c) for k, c in v.certificates.items()},
               "orbit_max_distance": repr(v.orbit_report.max_distance) if v.orbit_report else None,
               "witness": [v.witness_loop_index, repr(v.witness_distance)]}
        if m is not None:
            rec.update(mean_sha256=hashlib.sha256(m.mean.mat.tobytes()).hexdigest(),
                       iterations=m.iterations, final_grad_norm=repr(m.final_grad_norm),
                       converged=m.converged, energy=m.energy)
            if pullback:
                rec["pullback_distance"] = repr(acs.distance(m.mean, J_fs))
        return rec

    def perturbed(delta, seed):
        return acs.exp_map(J_fs, acs.random_tangent(J_fs, 42 + seed, delta.delta / 4.0), 1.0)

    out = {}
    for seed in range(10):
        delta = compute_delta(2, seed=seed)
        cfg = prober.ProbeConfig(**FS_CONFIG, seed=seed)
        out[f"fs_witness/{seed}"] = record(prober.probe(fs, origin, config=cfg, delta=delta))
        cfg = prober.ProbeConfig(**FS_CONFIG, seed=seed, loop_scale=0.45)
        out[f"fs_perturbed/{seed}"] = record(prober.probe(
            fs, origin, J_p=perturbed(delta, seed), config=cfg, delta=delta), pullback=True)
    delta = compute_delta(2, seed=0)
    for chart, point in (("flat_torus_4", [0.5] * 4), ("fubini_study_cp2", origin),
                         ("round_sphere_4", origin)):
        out[f"criterion_08/{chart}"] = record(prober.probe(holonomy.catalog(chart), point,
                                                           delta=delta))
    out["criterion_09"] = record(prober.probe(
        fs, origin, J_p=perturbed(delta, 0), config=prober.ProbeConfig(loop_scale=0.45),
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
                      "--loops", "5", "--out", where.format("transport.json")],
        "orbit": ["orbit", "--manifold", "fubini_study_cp2", "--point", "0,0,0,0",
                  "--loops", "3", "--csv", where.format("orbit.csv")],
        "probe_fs_perturbed_config": [
            "probe", "--manifold", "fubini_study_cp2", "--point", "0,0,0,0",
            "--word-length", "2", "--ode-steps", "100", "--field-steps", "100",
            "--probe-points", "1", "--loop-scale", "0.45"],
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
                files[f] = hashlib.sha256(fh.read()).hexdigest()
            os.remove(os.path.join(out_dir, f))
        out[key] = {"exit": res.returncode, "stdout": res.stdout.decode(),
                    "stderr": res.stderr.decode(), "files": files}
    return out


def _rel(a, b):
    return abs(a - b) / abs(a) if a else abs(b)


def same_answers(sides, tmp):
    probes, cli = {}, {}
    subprocess.run([sys.executable, __file__, "--mean-inputs", tmp],
                   env=_env(sides["parent"], os.path.join(tmp, "inputs_cache.json")), check=True)
    for name, side in sides.items():
        probes[name] = json.loads(subprocess.run(
            [sys.executable, __file__, "--answers"], capture_output=True, check=True,
            env=_env(side, os.path.join(tmp, f"{name}_answers_cache.json"))).stdout)
        cli[name] = _cli_runs(side, tmp, name)
    differ, energy_rel, energy_abs = [], 0.0, 0.0
    for key, rec in probes["parent"].items():
        other = probes["change"][key]
        for field, value in rec.items():
            if field == "energy":
                energy_rel = max(energy_rel, _rel(value, other[field]))
                energy_abs = max(energy_abs, abs(value - other[field]))
            elif value != other[field]:
                differ.append(f"{key}: {field}")
    cli_differ, cli_energy_rel = [], 0.0
    for key, rec in cli["parent"].items():
        other = cli["change"][key]
        if key.startswith("mean_") and rec["exit"] == other["exit"] == 0:
            a, b = json.loads(rec["stdout"]), json.loads(other["stdout"])
            cli_energy_rel = max(cli_energy_rel,
                                 _rel(a["result"].pop("energy"), b["result"].pop("energy")))
            if a != b:
                cli_differ.append(key)
        elif rec != other:
            cli_differ.append(key)
    return {"probes": sorted(probes["parent"]), "probe_fields_that_differ": differ,
            "energy_max_rel_diff": energy_rel, "energy_max_abs_diff": energy_abs,
            "energies": {k: [v.get("energy"), probes["change"][k].get("energy")]
                         for k, v in probes["parent"].items() if "energy" in v},
            "cli_commands": sorted(cli["parent"]), "cli_commands_that_differ": cli_differ,
            "cli_mean_energy_max_rel_diff": cli_energy_rel,
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", default="BENCH.json")
    ap.add_argument("--answers", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--mean-inputs", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.answers:
        answers()
        return 0
    if args.mean_inputs:
        _mean_inputs(args.mean_inputs)
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    import numpy
    import scipy
    record = {"sides": {k: {"src_sha256": _sha_src(v)} for k, v in sides.items()},
              "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__,
                          "blas_threads": "1"}}
    with tempfile.TemporaryDirectory() as tmp:
        record["same_answers"] = same_answers(sides, tmp)
        print("same answers done", file=sys.stderr)
        record["probe_control"] = probe_control(sides, tmp)
        print("probe control done", file=sys.stderr)
        record["pairs"] = pairs(sides, args.pairs, args.seconds)
        record["trace"] = trace(sides, args.seconds)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
