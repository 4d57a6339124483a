"""Record the reference outcome of every workload at the default seed.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one operation per workload with the pinned environment and writes
``reference/<workload>.json``.  Only rerun it on purpose: the reference is
what later versions of the program are checked against.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import check
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    names = argv or list(workloads.NAMES)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        os.environ["KAHLER_PROBE_CACHE"] = os.path.join(tmpdir, "delta.json")
        kp = workloads.load_program(ROOT)
        limits = workloads.gate_limits(kp)
        for name in names:
            st = workloads.setup(kp, name, 0, tmpdir)
            out = workloads.outcome(workloads.capture(st, workloads.operation(st)))
            problems = check.against_gate(name, out, limits)
            if problems:
                print(f"{name}: fails the gate, not recorded: {problems}")
                return 1
            with open(check.reference_path(name), "w") as fh:
                # the transport matrices stay on one line to keep the file small
                json.dump(out, fh, indent=None if "matrices" in out else 1,
                          sort_keys=True)
                fh.write("\n")
            print(f"{name}: recorded {check.reference_path(name)}")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
