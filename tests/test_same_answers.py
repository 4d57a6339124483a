"""Pinned outcomes of the benchmark's probes and of the default-config
catalog probes.

Speed-ups of the pipeline claim to leave its answers as they are.  These
tests keep that claim in the suite: the verdict, failing stage and witness
word exactly, and every certificate, the orbit's largest distance, the
witness distance and the pull-back distance as literals within 1e-12
relative.  A change with a stated bound updates the literals in the same
commit and says why in CHANGES.md.
"""

import pytest

from kahlerprobe import acs, holonomy, prober

ORIGIN = [0.0] * 4
REL = 1e-12
# the Fubini-Study workloads' config, as in perfbench/workloads.py
FS_CONFIG = dict(word_length=2, ode_steps=100, field_steps=100, probe_points=1, seed=0)


def test_fs_perturbed_seed0_outcome(delta4):
    """Criterion 09's perturbed Fubini-Study probe at the benchmark's
    ``fs_perturbed`` config, seed 0."""
    chart = holonomy.catalog("fubini_study_cp2")
    J_fs = prober.default_structure(chart, ORIGIN)
    J_p = acs.exp_map(J_fs, acs.random_tangent(J_fs, 42, delta4.delta / 4.0), 1.0)
    config = prober.ProbeConfig(**FS_CONFIG, loop_scale=0.45)
    v = prober.probe(chart, ORIGIN, J_p=J_p, config=config, delta=delta4)
    assert (v.kind, v.failing_stage) == ("KahlerWitness", "")
    assert v.certificates == pytest.approx({
        "fixedness": 7.480138872248142e-06,
        "path_independence": 2.476736093809256e-07,
        "nabla_j": 1.3907533001493024e-06,
        "nijenhuis": 1.3247808924857782e-06,
        "d_omega": 0.00016128975719556515,
        "d_omega_refined": 4.109077540184747e-05,
    }, rel=REL, abs=0.0)
    assert v.orbit_report.max_distance == pytest.approx(0.6260786234214778, rel=REL, abs=0.0)
    assert acs.distance(v.mean_result.mean, J_fs) == pytest.approx(
        4.569406336094273e-06, rel=REL, abs=0.0)


def test_fs_witness_seed0_outcome(delta4):
    """Criterion 08's Fubini-Study probe at the benchmark's ``fs_witness``
    config, seed 0: the canonical structure is fixed exactly."""
    chart = holonomy.catalog("fubini_study_cp2")
    v = prober.probe(chart, ORIGIN, config=prober.ProbeConfig(**FS_CONFIG), delta=delta4)
    assert (v.kind, v.failing_stage) == ("KahlerWitness", "")
    assert v.certificates == pytest.approx({
        "fixedness": 0.0,
        "path_independence": 3.4018465225427335e-15,
        "nabla_j": 3.203333339006481e-14,
        "nijenhuis": 4.905940656682961e-14,
        "d_omega": 0.00016059059669028264,
        "d_omega_refined": 4.038835020844789e-05,
    }, rel=REL, abs=0.0)
    assert v.orbit_report.max_distance == 0.0
    assert len(v.orbit_report.samples) == 62
    assert acs.distance(v.mean_result.mean, prober.default_structure(chart, ORIGIN)) == 0.0


def test_sphere_obstruction_seed0_outcome(delta4):
    """The round 4-sphere probe at the benchmark's ``sphere_obstruction``
    config (5 loops), seed 0: the witness loop, its word and its distance."""
    v = prober.probe(holonomy.catalog("round_sphere_4"), ORIGIN,
                     config=prober.ProbeConfig(loops=5, seed=0), delta=delta4)
    assert (v.kind, v.failing_stage) == ("HolonomyObstruction", "")
    assert len(v.orbit_report.samples) == 758
    assert v.witness_loop_index == 185
    assert v.orbit_report.samples[185].word == (2, 2, 2)
    assert v.witness_distance == pytest.approx(4.513648130739961, rel=REL, abs=0.0)
    assert v.orbit_report.max_distance == v.witness_distance
    assert v.certificates == {}


# criterion 08's default-config probes with more than one probe point, so
# with the stacked path-independence check: chart -> (point, samples, certificates)
DEFAULT_PROBES = {
    "fubini_study_cp2": (ORIGIN, 374, {
        "fixedness": 0.0,
        "path_independence": 4.131989491032468e-15,
        "nabla_j": 5.012656956182582e-14,
        "nijenhuis": 6.362987300114095e-14,
        "d_omega": 0.00039964065516218117,
        "d_omega_refined": 0.0001004141775612366,
    }),
    "product_s2_s2": (ORIGIN, 28, {
        "fixedness": 0.0,
        "path_independence": 4.440892098500626e-16,
        "nabla_j": 1.1102230246251565e-15,
        "nijenhuis": 2.0083447200237918e-15,
        "d_omega": 9.59085097966335e-16,
    }),
    "flat_torus_4": ([0.5] * 4, 6, {
        "fixedness": 0.0,
        "path_independence": 0.0,
        "nabla_j": 0.0,
        "nijenhuis": 0.0,
        "d_omega": 0.0,
    }),
}


@pytest.mark.parametrize("chart", sorted(DEFAULT_PROBES))
def test_default_probe_outcome(chart, delta4):
    """The default-config probe of a Kaehler catalog chart (criterion 08):
    a witness whose orbit is fixed exactly, with every certificate pinned."""
    point, samples, certificates = DEFAULT_PROBES[chart]
    v = prober.probe(holonomy.catalog(chart), point, delta=delta4)
    assert (v.kind, v.failing_stage) == ("KahlerWitness", "")
    assert len(v.orbit_report.samples) == samples
    assert v.orbit_report.max_distance == 0.0
    assert v.certificates == pytest.approx(certificates, rel=REL, abs=0.0)
