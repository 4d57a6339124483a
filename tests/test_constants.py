"""Tests for the curvature bound, injectivity estimate, and delta constant."""

import json
import math
import os

import numpy as np
import pytest

from kahlerprobe import acs, constants
from kahlerprobe.constants import (
    CurvatureBound,
    DeltaConstant,
    InjectivityEstimate,
    cache_path,
    compute_delta,
    delta_2n,
    estimate_epsilon,
    estimate_injectivity,
)
from kahlerprobe.errors import DimensionMismatch, DimensionTooSmall


def test_curvature_bound_invariants():
    with pytest.raises(ValueError):
        CurvatureBound(n=2, epsilon=-1.0, method="sampled", samples=100)
    with pytest.raises(ValueError):
        CurvatureBound(n=2, epsilon=0.2, method="sampled", samples=100,
                       max_sampled=0.3)


def test_injectivity_estimate_invariants():
    with pytest.raises(ValueError):
        InjectivityEstimate(n=2, inj_lower=0.0, directions_sampled=8,
                            resolution=0.01)


def test_delta_constant_rejects_inconsistent_value():
    with pytest.raises(ValueError):
        DeltaConstant(n=2, delta=1.0, epsilon_used=1.0, inj_used=10.0)


def test_delta_arithmetic_curvature_branch():
    eps = CurvatureBound(n=2, epsilon=1.0, method="user_override", samples=0)
    inj = InjectivityEstimate(n=2, inj_lower=10.0, directions_sampled=1,
                              resolution=0.01)
    d = delta_2n(2, eps, inj)
    assert d.delta == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_delta_arithmetic_injectivity_branch():
    eps = CurvatureBound(n=2, epsilon=math.pi ** 2 / 4.0,
                         method="user_override", samples=0)
    inj = InjectivityEstimate(n=2, inj_lower=0.5, directions_sampled=1,
                              resolution=0.01)
    d = delta_2n(2, eps, inj)
    assert d.delta == pytest.approx(0.25, abs=1e-12)


def test_delta_dimension_mismatch():
    eps = CurvatureBound(n=2, epsilon=1.0, method="user_override", samples=0)
    inj = InjectivityEstimate(n=3, inj_lower=1.0, directions_sampled=1,
                              resolution=0.01)
    with pytest.raises(DimensionMismatch):
        delta_2n(2, eps, inj)


def test_estimators_reject_n1():
    with pytest.raises(DimensionTooSmall):
        estimate_epsilon(1)
    with pytest.raises(DimensionTooSmall):
        estimate_injectivity(1)


def test_epsilon_covers_every_sample():
    eps = estimate_epsilon(2, num_samples=100, seed=3)
    assert eps.epsilon >= eps.max_sampled
    assert eps.epsilon == pytest.approx(1.05 * eps.max_sampled, rel=1e-12)


def test_epsilon_positive_and_finite_for_n3():
    eps = estimate_epsilon(3, num_samples=100, seed=0)
    assert 0.0 < eps.epsilon < math.inf


def test_epsilon_matches_constant_curvature_for_n2():
    """n = 2 has constant sectional curvature 1/4; the sampled maximum must
    land on it and the 1.05 safety factor on top."""
    eps = estimate_epsilon(2, num_samples=100, seed=1)
    assert eps.max_sampled == pytest.approx(0.25, abs=1e-9)
    assert eps.epsilon == pytest.approx(0.2625, abs=1e-9)


def test_injectivity_march_finds_2pi_for_n2(delta4):
    """Each component for n = 2 is a round sphere of radius 2, so geodesics
    minimize up to pi * radius = 2 pi."""
    assert delta4.inj_used == pytest.approx(2.0 * math.pi, abs=0.05)


def test_minimality_along_sampled_directions():
    """distance(J, exp(t phi)) = t within 2*resolution below the estimate."""
    inj = estimate_injectivity(2, num_directions=2, resolution=0.01, seed=5)
    J = acs.canonical_j(2)
    phi = acs.random_tangent(J, 123)
    t = 0.1
    while t < min(inj.inj_lower, 3.0):
        assert abs(acs.distance(J, acs.exp_map(J, phi, t)) - t) <= 0.02
        t += 0.53


def _sequential_injectivity(n, num_directions=8, resolution=0.01, seed=0, t_max=20.0):
    """The injectivity march one geodesic time at a time, as it was before
    the times were chunked."""
    J = acs.canonical_j(n)
    rng = np.random.default_rng(seed)
    first_break = t_max
    for _ in range(num_directions):
        phi = acs.random_tangent(J, int(rng.integers(0, 2**31 - 1)))
        t = resolution
        while t < first_break:
            try:
                d = acs.distance(J, acs.exp_map(J, phi, t))
            except (acs.CutLocusError, acs.ComponentMismatch):
                first_break = min(first_break, t)
                break
            if d < t - 2.0 * resolution:
                first_break = min(first_break, t)
                break
            t += resolution
    return first_break - resolution


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chunked_injectivity_march_matches_sequential(seed):
    assert (repr(estimate_injectivity(2, seed=seed).inj_lower)
            == repr(_sequential_injectivity(2, seed=seed)))


def test_delta4_value(delta4):
    # min(2 pi / 2, pi / (4 sqrt(0.2625))) -- the curvature branch wins
    expected = math.pi / (4.0 * math.sqrt(delta4.epsilon_used))
    assert delta4.delta == pytest.approx(expected, abs=1e-12)
    assert delta4.delta == pytest.approx(1.53294, abs=1e-3)


def test_compute_delta_cache_roundtrip():
    d1 = compute_delta(2, seed=0)
    assert os.path.exists(cache_path())
    with open(cache_path()) as fh:
        cache = json.load(fh)
    assert any(k.startswith("n=2;seed=0") for k in cache)
    d2 = compute_delta(2, seed=0)  # served from cache
    assert d2.delta == d1.delta
    assert d2.epsilon_used == d1.epsilon_used


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
def test_curvature_bound_needs_a_finite_positive_epsilon(epsilon):
    with pytest.raises(ValueError, match="finite and positive"):
        CurvatureBound(n=2, epsilon=epsilon, method="user_override", samples=0)


@pytest.mark.parametrize("resolution", [0.0, -0.01, 1e-4, 0.02, math.nan])
def test_injectivity_march_step_is_bounded(resolution):
    with pytest.raises(ValueError, match="resolution must be in"):
        estimate_injectivity(2, resolution=resolution)


def test_epsilon_override():
    d = compute_delta(2, epsilon_override=1.0, use_cache=False)
    assert d.epsilon_used == 1.0
    assert d.delta == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_failed_cache_write_keeps_previous_file(tmp_path, monkeypatch):
    """The cache is replaced atomically: a write that dies half way leaves
    the previous file intact and no temp file behind."""
    path = tmp_path / "delta_cache.json"
    previous = json.dumps({"n=2;seed=9;ns=300;res=0.01": {"delta": 1.0}})
    path.write_text(previous)
    monkeypatch.setenv("KAHLER_PROBE_CACHE", str(path))

    def broken_dump(obj, fh, **kw):
        fh.write('{"n=2;')
        raise OSError("disk full")

    monkeypatch.setattr(constants.json, "dump", broken_dump)
    d = compute_delta(2, epsilon_override=1.0)
    assert d.epsilon_used == 1.0
    assert path.read_text() == previous
    assert os.listdir(tmp_path) == [path.name]
