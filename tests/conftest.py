"""Shared fixtures: an isolated delta-constant cache and the n=2 constant."""

import os
import tempfile

import pytest

# isolate the delta cache from the user's home before the package reads it
_CACHE_DIR = tempfile.mkdtemp(prefix="kahlerprobe_test_")
os.environ["KAHLER_PROBE_CACHE"] = os.path.join(_CACHE_DIR, "delta_cache.json")

from kahlerprobe.constants import compute_delta  # noqa: E402


@pytest.fixture(scope="session")
def delta4():
    """The dichotomy constant for n = 2 (dimension 4), computed once."""
    return compute_delta(2, seed=0)


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
