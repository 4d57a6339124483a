"""Tests for the closed-form curvature bound, injectivity radius and delta
constant, two-sided against the structure space's own geometry and the
sampled oracle in ``sampled_delta``."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from kahlerprobe import acs, holonomy, prober
from kahlerprobe.constants import (
    SAFETY_FACTOR,
    DeltaConstant,
    compute_delta,
    estimate_epsilon,
    estimate_injectivity,
)
from kahlerprobe.errors import DimensionTooSmall
from sampled_delta import sampled_epsilon, sampled_injectivity, sectional_curvatures

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_injectivity_estimate_invariants():
    with pytest.raises(ValueError):
        DeltaConstant(2, 1.0, 0.0)


def test_delta_arithmetic_curvature_branch():
    d = DeltaConstant(2, 1.0, 10.0)
    assert d.delta == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_delta_arithmetic_injectivity_branch():
    d = DeltaConstant(2, math.pi ** 2 / 4.0, 0.5)
    assert d.delta == pytest.approx(0.25, abs=1e-12)


def test_estimators_reject_n1():
    with pytest.raises(DimensionTooSmall, match="no 2-planes for n = 1"):
        estimate_epsilon(1)
    with pytest.raises(DimensionTooSmall, match="zero-dimensional tangent space"):
        estimate_injectivity(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_closed_forms(n):
    """eps = 1.05 / 4 and inj = 2 pi at every n, so delta = pi / (2 sqrt(1.05))
    with the bits the sampled estimate gave at n = 2, seed 0."""
    assert (repr(estimate_epsilon(n)), repr(estimate_injectivity(n))) == (
        "0.2625", repr(2.0 * math.pi))
    assert repr(compute_delta(n).delta) == "1.5329402499064273"


def _quarter_plane(n):
    """Two orthonormal tangents at canonical_j(n) spanning the n = 2 tangent
    plane in the top-left 4x4 block: X = -phi J / 2 is v -> A conj(v) on
    C^2 with A = E / 4 and A = i E / 4, E = [[0, 1], [-1, 0]]."""
    phi = np.zeros((2, 2 * n, 2 * n))
    phi[0, :4, :4] = [[0, 0, 0, -0.5], [0, 0, -0.5, 0], [0, 0.5, 0, 0], [0.5, 0, 0, 0]]
    phi[1, :4, :4] = [[0, 0, 0.5, 0], [0, 0, 0, -0.5], [-0.5, 0, 0, 0], [0, 0.5, 0, 0]]
    return phi


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_n2_plane_reads_a_quarter_at_every_n(n):
    J = acs.canonical_j(n)
    phi, psi = _quarter_plane(n)
    assert np.array_equal(acs.project_tangent(J, phi), phi)
    assert np.array_equal(acs.project_tangent(J, psi), psi)
    assert (acs.metric_inner(phi, phi), acs.metric_inner(psi, psi),
            acs.metric_inner(phi, psi)) == (1.0, 1.0, 0.0)
    assert abs(sectional_curvatures(J, phi[None], psi[None])[0] - 0.25) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_curvature_never_exceeds_a_quarter(n, seed):
    """Local ascent from the best sampled planes climbs to, and never past,
    the closed-form maximum."""
    assert 0.24 < sampled_epsilon(n, seed=seed) <= 0.25 + 1e-9


def test_epsilon_covers_every_sample():
    """The bound is at least the safety factor times the curvature of every
    sampled plane, at n = 2, 3 and 4, up to round-off: at n = 2, where every
    plane has curvature 1/4, one reads 0.2500000000000001."""
    seeds = np.random.default_rng(3).integers(0, 2**31 - 1, size=100).tolist()
    for n in (2, 3, 4):
        J = acs.canonical_j(n)
        phis = acs.random_tangents(J, seeds)
        psis = acs.random_tangents(J, [s + 500_009 for s in seeds])
        psis = [psi - float(np.sum(phi * psi)) * phi for phi, psi in zip(phis, psis)]
        psis = np.array([(1.0 / float(np.linalg.norm(psi))) * psi for psi in psis])
        sampled = np.max(sectional_curvatures(J, phis, psis))
        assert estimate_epsilon(n) >= SAFETY_FACTOR * sampled - 1e-15


def test_epsilon_positive_and_finite_for_n3():
    assert 0.0 < estimate_epsilon(3) < math.inf


def test_epsilon_matches_constant_curvature_for_n2():
    """n = 2 has constant sectional curvature 1/4, so the bound is that
    times the 1.05 safety factor, and the sampled maximum lands on it."""
    assert repr(estimate_epsilon(2)) == "0.2625"
    assert sampled_epsilon(2, num_samples=100, seed=1) == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("seed,bits", [
    (0, "0.2624999999747195"), (1, "0.2624999999851881"), (2, "0.26249999999369966"),
])
def test_epsilon_bits_at_n3(seed, bits):
    """The sampled oracle keeps the bits the sampled estimator gave at
    n = 3, where ascent trials are taken, and the closed form covers them."""
    eps = SAFETY_FACTOR * sampled_epsilon(3, num_samples=100, seed=seed)
    assert repr(eps) == bits
    assert estimate_epsilon(3) >= eps


def test_injectivity_march_finds_2pi_for_n2(delta4):
    """Each component for n = 2 is a round sphere of radius 2, so geodesics
    minimize up to pi * radius = 2 pi; the sampled march finds it within
    its tolerance."""
    assert delta4.inj_used == 2.0 * math.pi
    assert sampled_injectivity(2) == pytest.approx(2.0 * math.pi, abs=0.05)


def test_minimality_along_sampled_directions():
    """distance(J, exp(t phi)) = t for t up to 2 pi - 0.02 along sampled
    unit directions at n = 2, 3 and 4, and along the n = 2 plane, where
    the curvature is largest."""
    ts = np.linspace(0.05, 2.0 * math.pi - 0.02, 96)
    for n in (2, 3, 4):
        J = acs.canonical_j(n)
        phis = [*acs.random_tangents(J, range(10 * n, 10 * n + 6)), *_quarter_plane(n)]
        for phi in phis:
            dists = acs.distance(J.mat, acs.exp_maps(J, phi, ts))
            assert np.max(np.abs(dists - ts)) <= 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_n2_plane_geodesic_stops_minimizing_past_2pi(n):
    """Past 2 pi the geodesic of the n = 2 plane comes back along its great
    circle of length 4 pi, so it is no longer minimizing by 2 pi + 0.02."""
    J = acs.canonical_j(n)
    t = 2.0 * math.pi + 0.02
    for phi in _quarter_plane(n):
        assert acs.distance(J, acs.exp_map(J, phi, t)) <= 4.0 * math.pi - t + 1e-9


@pytest.mark.parametrize("seed,bits", [
    (1, ("1.5329402499064273", "0.2625", "6.283185307179586")),
    (2, ("1.5329402499064273", "0.2625", "6.283185307179586")),
])
def test_delta_bits_at_seed(seed, bits):
    """delta depends on n alone: a seed is accepted and changes no bit."""
    d = compute_delta(2, seed=seed)
    assert (repr(d.delta), repr(d.epsilon_used), repr(d.inj_used)) == bits


def test_delta4_value(delta4):
    # min(2 pi / 2, pi / (4 sqrt(0.2625))) -- the curvature branch wins
    expected = math.pi / (4.0 * math.sqrt(delta4.epsilon_used))
    assert delta4.delta == pytest.approx(expected, abs=1e-12)
    assert delta4.delta == pytest.approx(1.53294, abs=1e-3)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
def test_curvature_bound_needs_a_finite_positive_epsilon(epsilon):
    with pytest.raises(ValueError, match="finite and positive"):
        DeltaConstant(2, epsilon, 1.0)


def test_epsilon_override_needs_to_be_finite_and_positive():
    """A library override is checked by ``DeltaConstant``, as the closed
    form is."""
    with pytest.raises(ValueError, match="finite and positive"):
        compute_delta(2, epsilon_override=-1.0)


def test_epsilon_override():
    d = compute_delta(2, epsilon_override=1.0)
    assert d.epsilon_used == 1.0
    assert d.delta == pytest.approx(math.pi / 4.0, abs=1e-12)


# -- a stale delta cache from an older version is not read --------------------

def _stale_cache(tmp_path, monkeypatch, entry_text):
    """A cache file, in the layout older versions wrote, holding entry_text
    for n = 2 at seed 0, at the path they read: KAHLER_PROBE_CACHE, and the
    default in HOME."""
    text = '{"n=2;seed=0;ns=300;res=0.01": %s}' % entry_text
    for path in (tmp_path / "delta_cache.json", tmp_path / ".kahlerprobe_delta_cache.json"):
        path.write_text(text)
    monkeypatch.setenv("KAHLER_PROBE_CACHE", str(tmp_path / "delta_cache.json"))
    monkeypatch.setenv("HOME", str(tmp_path))
    return text


def _assert_same_delta(d, fresh):
    assert ((repr(d.delta), repr(d.epsilon_used), repr(d.inj_used))
            == (repr(fresh.delta), repr(fresh.epsilon_used), repr(fresh.inj_used)))


def test_probe_with_an_inconsistent_cache_entry_gives_a_verdict(tmp_path, monkeypatch,
                                                                delta4):
    text = _stale_cache(tmp_path, monkeypatch,
                        '{"delta": 1.0, "epsilon": 0.2625, "inj_lower": 6.29}')
    config = prober.ProbeConfig(loops=2, ode_steps=100, word_length=1, grid_res=9,
                                field_steps=100, probe_points=1)
    v = prober.probe(holonomy.catalog("flat_torus_4"), [0.5] * 4, config=config)
    assert v.kind == "KahlerWitness"
    _assert_same_delta(v.delta_used, delta4)
    assert (tmp_path / "delta_cache.json").read_text() == text


def test_probe_with_a_nan_cache_entry_runs_against_a_finite_delta(tmp_path, monkeypatch,
                                                                  delta4):
    """An all-NaN entry once passed every check, and every orbit distance
    then exceeded delta = NaN: a wrong obstruction."""
    _stale_cache(tmp_path, monkeypatch, '{"delta": NaN, "epsilon": NaN, "inj_lower": NaN}')
    config = prober.ProbeConfig(loops=2, word_length=1)
    v = prober.probe(holonomy.catalog("round_sphere_4"), [0.0] * 4, config=config)
    assert math.isfinite(v.delta_used.delta)
    _assert_same_delta(v.delta_used, delta4)


def test_delta_and_probe_write_nothing_to_home(tmp_path):
    """A fresh process with KAHLER_PROBE_CACHE unset and an empty HOME runs
    the delta command and a probe, and HOME stays empty."""
    home = tmp_path / "home"
    home.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "KAHLER_PROBE_CACHE"}
    env.update(HOME=str(home), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH")))))
    for argv in (["delta", "--no-timestamp"],
                 ["probe", "--manifold", "flat_torus_4", "--point", "0.5,0.5,0.5,0.5",
                  "--loops", "2", "--word-length", "1", "--ode-steps", "100",
                  "--grid", "9", "--field-steps", "100", "--probe-points", "1"]):
        run = subprocess.run([sys.executable, "-m", "kahlerprobe.cli", *argv], cwd=tmp_path,
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout)["result"]
    assert os.listdir(home) == []


@pytest.mark.parametrize("epsilon,inj", [
    (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0),
    (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -1.0),
    (True, 1.0), (1.0, True),
])
def test_delta_constant_needs_finite_positive_inputs(epsilon, inj):
    with pytest.raises(ValueError, match="finite and positive"):
        DeltaConstant(2, epsilon, inj)


def test_delta_constant_holds_floats():
    """Integer inputs, as a library caller may pass them, are stored as
    floats, so the record prints the same whatever it was given."""
    d = DeltaConstant(2, 1, 10)
    assert (repr(d.epsilon_used), repr(d.inj_used)) == ("1.0", "10.0")
    assert repr(d.delta) == repr(DeltaConstant(2, 1.0, 10.0).delta)
