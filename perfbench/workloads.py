"""The four benchmark workloads: set-up, one operation, and its outcome.

Each workload is a closed loop with one client: one process, one thread,
the next operation starts when the previous one has returned.  An operation
is one ``prober.probe()`` call up to its verdict, or one
``cli.main(["transport", ...])`` call that writes its JSON file.

The probe configurations are scaled down from the ``ProbeConfig`` defaults
(a default Fubini-Study probe takes about 50 s) so that several operations
fit in one timed run; the scaled runs keep every pipeline stage and
still pass the acceptance-gate tolerances.  The traced run reports the
layer shares each workload was chosen for (see ``design.json``).

Nothing here imports numpy at module level: ``load_program`` pins the BLAS
thread count first, because OpenBLAS reads it when the library loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

NAMES = ("fs_witness", "fs_perturbed", "sphere_obstruction",
         "sphere_transport_json")

ORIGIN = (0.0, 0.0, 0.0, 0.0)
# Both Fubini-Study workloads: criterion 08/09 with fewer field probes,
# words of length <= 2 and the minimum step counts the transport accepts.
FS_CONFIG = {"word_length": 2, "ode_steps": 100, "field_steps": 100,
             "probe_points": 1}
PERTURBED_LOOP_SCALE = 0.45          # criterion 09
TANGENT_SEED = 42                    # criterion 09, shifted by --seed
# Both sphere workloads: the default closure on 5 of the 6 axis-plane
# rectangles keeps the O(N^2) word-closure dedup dominant at ~2 s per op.
SPHERE_LOOPS = 5


def load_program(root: str):
    """Pin the run environment, then import and return kahlerprobe from
    root/src.

    Raises ImportError when root/src holds no kahlerprobe package, so an
    installed copy elsewhere is never measured by mistake."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if "KAHLER_PROBE_CACHE" not in os.environ:
        raise RuntimeError("KAHLER_PROBE_CACHE must name a fresh temp file")
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import kahlerprobe
    # binds the submodules as attributes of the package
    from kahlerprobe import acs, cli, constants, holonomy, io, karcher, prober  # noqa: F401
    where = os.path.realpath(kahlerprobe.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"kahlerprobe imported from {where}, not from {src}")
    return kahlerprobe


class State:
    """What set-up leaves for the operations of one workload."""

    def __init__(self, kp, name):
        self.kp = kp        # the kahlerprobe package under test
        self.name = name
        self.J_p = None     # None: the chart's canonical structure


def setup(kp, name: str, seed: int, tmpdir: str) -> State:
    """Cold delta estimate for n = 2 in the (empty) cache, then the chart
    and the inputs the operation needs."""
    acs, holonomy, prober = kp.acs, kp.holonomy, kp.prober
    st = State(kp, name)
    st.delta = kp.constants.compute_delta(2, seed=seed)
    if name in ("fs_witness", "fs_perturbed"):
        st.chart = holonomy.catalog("fubini_study_cp2")
        st.J_fs = prober.default_structure(st.chart, ORIGIN)
        kw = dict(FS_CONFIG, seed=seed)
        if name == "fs_perturbed":
            st.J_p = acs.exp_map(st.J_fs, acs.random_tangent(
                st.J_fs, TANGENT_SEED + seed, st.delta.delta / 4.0), 1.0)
            kw["loop_scale"] = PERTURBED_LOOP_SCALE
        st.config = prober.ProbeConfig(**kw)
    elif name == "sphere_obstruction":
        st.chart = holonomy.catalog("round_sphere_4")
        st.config = prober.ProbeConfig(loops=SPHERE_LOOPS, seed=seed)
    elif name == "sphere_transport_json":
        st.out_path = os.path.join(tmpdir, "transport.json")
        st.argv = ["transport", "--manifold", "round_sphere_4",
                   "--point", ",".join(str(v) for v in ORIGIN),
                   "--loops", str(SPHERE_LOOPS), "--seed", str(seed),
                   "--no-timestamp", "--out", st.out_path]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return st


def operation(st: State):
    """One timed operation; returns what ``capture`` needs."""
    if st.name == "sphere_transport_json":
        code = st.kp.cli.main(st.argv)
        if code != 0:
            raise RuntimeError(f"kahler-probe transport exited {code}")
        return None
    return st.kp.prober.probe(st.chart, ORIGIN, J_p=st.J_p, config=st.config)


def capture(st: State, result):
    """Untimed capture of an operation's output, taken right after it: the
    outcome of a probe, or the bytes of the CLI's output file (turned into
    an outcome by ``outcome`` after the timed loop)."""
    if st.name == "sphere_transport_json":
        with open(st.out_path, "rb") as fh:
            return fh.read()
    prober = st.kp.prober
    v = result
    tol = {"fixedness": prober.TOL_FIX,
           "path_independence": prober.TOL_PATH_INDEP}
    out = {"kind": v.kind,
           "failing_stage": v.failing_stage,
           "delta": v.delta_used.delta,
           "samples": len(v.orbit_report.samples) if v.orbit_report else None,
           "orbit_max_distance": (v.orbit_report.max_distance
                                  if v.orbit_report else None),
           "margins": {k: c / tol.get(k, prober.TOL_CERT)
                       for k, c in v.certificates.items()}}
    if v.kind == "HolonomyObstruction":
        out["witness"] = {
            "loop_index": v.witness_loop_index,
            "word": list(v.orbit_report.samples[v.witness_loop_index].word),
            "distance": v.witness_distance}
    if st.name == "fs_perturbed" and v.mean_result is not None:
        out["pullback_distance"] = st.kp.acs.distance(v.mean_result.mean,
                                                      st.J_fs)
    return out


def outcome(captured) -> dict:
    """The values the reference check compares, as plain JSON data."""
    if isinstance(captured, bytes):
        return _transport_outcome(json.loads(captured))
    return captured


def _transport_outcome(doc: dict) -> dict:
    import numpy as np
    samples = doc["result"]["samples"]
    mats = [np.array(s["matrix"]["rows"], dtype=float) for s in samples]
    loops = json.dumps([s["loop"] for s in samples], sort_keys=True,
                       separators=(",", ":"))
    eye = np.eye(mats[0].shape[0]) if mats else None
    return {"samples": len(samples),
            "words": [s["word"] for s in samples],
            "loops_sha256": hashlib.sha256(loops.encode()).hexdigest(),
            "matrices": [m.ravel().tolist() for m in mats],
            "max_defect": max(s["orthogonality_defect"] for s in samples),
            "max_orth_err": max(float(np.max(np.abs(m.T @ m - eye)))
                                for m in mats)}


def gate_limits(kp) -> dict:
    """The acceptance-gate tolerances the check applies at every seed."""
    prober = kp.prober
    return {"cert_floor_margin": prober.CERT_FLOOR / prober.TOL_CERT,
            "min_decay": prober.MIN_DECAY,
            "defect_limit": kp.holonomy.DEFECT_LIMIT}
