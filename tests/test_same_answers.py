"""Pinned outcomes of the benchmark's probes.

Speed-ups of the pipeline claim to leave its answers as they are.  These
tests keep that claim in the suite: the verdict and failing stage exactly,
and every certificate, the orbit's largest distance and the pull-back
distance as literals within 1e-12 relative.  A change with a stated bound
updates the literals in the same commit and says why in CHANGES.md.
"""

import pytest

from kahlerprobe import acs, holonomy, prober

ORIGIN = [0.0] * 4
REL = 1e-12


def test_fs_perturbed_seed0_outcome(delta4):
    """Criterion 09's perturbed Fubini-Study probe at the benchmark's
    ``fs_perturbed`` config, seed 0."""
    chart = holonomy.catalog("fubini_study_cp2")
    J_fs = prober.default_structure(chart, ORIGIN)
    J_p = acs.exp_map(J_fs, acs.random_tangent(J_fs, 42, delta4.delta / 4.0), 1.0)
    config = prober.ProbeConfig(word_length=2, ode_steps=100, field_steps=100,
                                probe_points=1, loop_scale=0.45, seed=0)
    v = prober.probe(chart, ORIGIN, J_p=J_p, config=config, delta=delta4)
    assert (v.kind, v.failing_stage) == ("KahlerWitness", "")
    assert v.certificates == pytest.approx({
        "fixedness": 7.480138872573932e-06,
        "path_independence": 2.476736067252035e-07,
        "nabla_j": 1.39075330588305e-06,
        "nijenhuis": 1.3247809023329386e-06,
        "d_omega": 0.0001612897571472427,
        "d_omega_refined": 4.109077545577655e-05,
    }, rel=REL, abs=0.0)
    assert v.orbit_report.max_distance == pytest.approx(0.6260786234214778, rel=REL, abs=0.0)
    assert acs.distance(v.mean_result.mean, J_fs) == pytest.approx(
        4.569406336228466e-06, rel=REL, abs=0.0)
