"""Output checks: the reference values recorded at the default seed, and the
acceptance-gate tolerances that must hold at every seed.

Both work on the plain outcome dicts built by ``workloads.capture`` and
``workloads.outcome`` and return a list of problems (empty means correct).

Certificates are compared as margins, value / pinned tolerance, within an
absolute 1e-9: a relative error means nothing for round-off-level values
such as ``nabla_j`` ~ 3e-14.  Distances, delta and matrix entries are
compared within 1e-9 * max(1, |ref|); everything discrete must match
exactly.
"""

from __future__ import annotations

import copy
import json
import os

ABS_MARGIN = 1e-9
REL_VALUE = 1e-9
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload)) as fh:
        return json.load(fh)


def _close(value, ref, what, problems):
    if ref is None or value is None:
        if value is not ref:
            problems.append(f"{what}: {value!r} != reference {ref!r}")
    elif not abs(value - ref) <= REL_VALUE * max(1.0, abs(ref)):
        problems.append(f"{what}: {value!r} differs from reference {ref!r}")


def _exact(value, ref, what, problems):
    if value != ref:
        problems.append(f"{what}: {value!r} != reference {ref!r}")


def against_reference(out: dict, ref: dict) -> list:
    """Compare one outcome with the reference outcome of its workload."""
    problems = []
    if "matrices" in ref:   # the transport JSON
        for key in ("samples", "words", "loops_sha256"):
            _exact(out.get(key), ref[key], key, problems)
        if len(out.get("matrices", ())) == len(ref["matrices"]):
            for i, (m, r) in enumerate(zip(out["matrices"], ref["matrices"])):
                for j, (v, rv) in enumerate(zip(m, r)):
                    _close(v, rv, f"sample {i} matrix entry {j}", problems)
                    if len(problems) > 20:
                        return problems
        return problems
    for key in ("kind", "failing_stage", "samples"):
        _exact(out.get(key), ref[key], key, problems)
    for key in ("delta", "orbit_max_distance", "pullback_distance"):
        if key in ref or key in out:
            _close(out.get(key), ref.get(key), key, problems)
    _exact(sorted(out.get("margins", {})), sorted(ref["margins"]),
           "certificates", problems)
    for name, r in ref["margins"].items():
        m = out.get("margins", {}).get(name)
        if m is not None and not abs(m - r) <= ABS_MARGIN:
            problems.append(f"margin {name}: {m!r} differs from reference {r!r}")
    w, rw = out.get("witness"), ref.get("witness")
    if (w is None) != (rw is None):
        problems.append(f"witness: {w!r} != reference {rw!r}")
    elif rw is not None:
        _exact(w["loop_index"], rw["loop_index"], "witness loop index", problems)
        _exact(w["word"], rw["word"], "witness word", problems)
        _close(w["distance"], rw["distance"], "witness distance", problems)
    return problems


def against_gate(workload: str, out: dict, limits: dict) -> list:
    """The acceptance-gate tolerances (criteria 08 and 09) for the workload."""
    problems = []
    if workload == "sphere_transport_json":
        if out["samples"] < 1:
            problems.append("no holonomy samples written")
        if not out["max_defect"] < limits["defect_limit"]:
            problems.append(f"orthogonality defect {out['max_defect']!r}")
        if not out["max_orth_err"] <= 1e-9:
            problems.append(f"sample matrix not orthogonal: {out['max_orth_err']!r}")
        return problems
    want = ("HolonomyObstruction" if workload == "sphere_obstruction"
            else "KahlerWitness")
    if out["kind"] != want:
        return [f"verdict {out['kind']} ({out['failing_stage']}), expected {want}"]
    if want == "HolonomyObstruction":
        if not out["witness"]["distance"] > out["delta"]:
            problems.append("witness distance does not exceed delta")
        return problems
    margins = out["margins"]
    for name in ("fixedness", "path_independence", "nabla_j", "nijenhuis",
                 "d_omega"):
        if not margins[name] < 1.0:
            problems.append(f"certificate {name} at margin {margins[name]!r}")
    for name in ("nabla_j", "nijenhuis", "d_omega"):
        fine = margins.get(name + "_refined")
        if fine is None:
            if not margins[name] <= limits["cert_floor_margin"]:
                problems.append(f"{name} above the floor and not refined")
        elif not margins[name] >= limits["min_decay"] * fine:
            problems.append(f"{name} refinement decay below {limits['min_decay']}")
    if workload == "fs_perturbed":
        # criterion 09: pulled back to within a tenth of the perturbation
        if not out["pullback_distance"] < 0.1 * out["delta"] / 4.0:
            problems.append(f"pull-back distance {out['pullback_distance']!r}")
    return problems


def check(workload: str, seed: int, out: dict, limits: dict) -> list:
    """Gate at every seed; the recorded reference at the default seed only,
    because the reference values were recorded there."""
    if "error" in out:
        return [out["error"]]
    problems = against_gate(workload, out, limits)
    if seed == 0:
        problems += against_reference(out, load_reference(workload))
    return problems


def self_test(limits: dict) -> list:
    """Feed the checker three wrong outputs; each must be flagged.  Returns
    the cases that slipped through (empty means the checker works)."""
    missed = []
    fs = load_reference("fs_witness")
    sphere = load_reference("sphere_obstruction")
    if check("fs_witness", 0, fs, limits) or check(
            "sphere_obstruction", 0, sphere, limits):
        missed.append("a reference outcome fails its own check")
    flipped = dict(sphere, kind="KahlerWitness")
    for seed in (0, 1):     # the gate alone must catch it at other seeds
        if not check("sphere_obstruction", seed, flipped, limits):
            missed.append(f"flipped verdict at seed {seed}")
    word = copy.deepcopy(sphere)
    word["witness"]["word"] = list(reversed(word["witness"]["word"])) + [1]
    if not check("sphere_obstruction", 0, word, limits):
        missed.append("changed witness word")
    moved = copy.deepcopy(fs)
    moved["margins"]["nabla_j"] += 1e-6
    if not check("fs_witness", 0, moved, limits):
        missed.append("certificate margin moved by 1e-6")
    return missed
