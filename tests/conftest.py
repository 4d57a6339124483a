"""Shared fixtures: the n=2 constant and the criterion 09 orbit."""

import pytest

from kahlerprobe.constants import compute_delta


@pytest.fixture(scope="session")
def delta4():
    """The dichotomy constant for n = 2 (dimension 4)."""
    return compute_delta(2)


@pytest.fixture(scope="session")
def fs_orbit(delta4):
    """Criterion 09's perturbed structure conjugated by the 62 word-length-2
    holonomy samples of the Fubini-Study chart at the origin (100 ODE steps)."""
    from kahlerprobe import acs, holonomy, prober
    chart = holonomy.catalog("fubini_study_cp2")
    p = [0.0] * 4
    J_fs = prober.default_structure(chart, p)
    J_p = acs.exp_map(J_fs, acs.random_tangent(J_fs, 42, delta4.delta / 4.0), 1.0)
    loops = holonomy.loop_family(chart, p, "coordinate_rectangles", 6, 0.45)
    samples = holonomy.holonomy_samples(chart, p, loops, 100, word_length=2)
    return prober.orbit(J_p, samples)
