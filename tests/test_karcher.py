"""Tests for the Riemannian center of mass."""

import math

import numpy as np
import pytest

from kahlerprobe import acs, karcher
from kahlerprobe.karcher import (
    ConvexityReport,
    WeightedSampleSet,
    check_convexity,
    karcher_energy,
    karcher_gradient,
    karcher_mean,
    karcher_mean_checked,
)
from kahlerprobe.errors import ConvexityViolation, IterationLimitTooSmall


def random_so(dim, seed):
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((dim, dim)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0.0:
        Q[:, [0, 1]] = Q[:, [1, 0]]
    return Q


# -- sample sets --------------------------------------------------------------

def test_weights_must_sum_to_one():
    J = acs.canonical_j(2)
    with pytest.raises(ValueError):
        WeightedSampleSet((J, J), (0.5, 0.6))


def test_weights_must_be_nonnegative():
    J = acs.canonical_j(2)
    with pytest.raises(ValueError):
        WeightedSampleSet((J, J), (1.5, -0.5))


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        WeightedSampleSet((), ())


def test_uniform_weights():
    J = acs.canonical_j(2)
    s = WeightedSampleSet.uniform([J, J, J, J])
    assert s.weights == (0.25,) * 4


@pytest.mark.parametrize("weights", [(math.nan, 1.0), (0.5, math.nan),
                                     (math.inf, 0.0), (-math.inf, math.inf)])
def test_weights_must_be_finite(weights):
    J = acs.canonical_j(2)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        WeightedSampleSet((J, J), weights)


def test_points_are_one_read_only_stack():
    """A stack, a list of structures and a list of matrices give the same
    read-only (N, d, d) stack, which is a copy of what was passed."""
    pts = [acs.random_j(2, k) for k in range(3)]
    stack = np.stack([p.mat for p in pts])
    sets = [WeightedSampleSet.uniform(stack), WeightedSampleSet.uniform(pts),
            WeightedSampleSet.uniform([p.mat for p in pts]),
            WeightedSampleSet(tuple(pts), np.full(3, 1.0 / 3.0))]
    for s in sets:
        assert s.points.shape == (3, 4, 4) and s.points.dtype == np.float64
        assert s.points.tobytes() == stack.tobytes()
        assert not s.points.flags.writeable
        assert s.weights == sets[0].weights
    stack[0] = 0.0
    assert sets[0].points.tobytes() == sets[1].points.tobytes()


@pytest.mark.parametrize("points", [
    (), np.zeros((0, 4, 4)), np.eye(4),
    [np.zeros((4, 2))],                              # not square
    [np.eye(3)],                                     # odd size
    [acs.canonical_j(2), acs.canonical_j(1)],        # mixed sizes
    [acs.canonical_j(1).mat, acs.canonical_j(2).mat],
])
def test_points_that_are_not_one_stack_are_rejected(points):
    with pytest.raises(ValueError):
        WeightedSampleSet.uniform(points)


# -- energy -------------------------------------------------------------------

def test_energy_at_the_single_point():
    J = acs.random_j(2, 0)
    s = WeightedSampleSet((J,), (1.0,))
    assert karcher_energy(J, s) == 0.0


def test_energy_at_midpoint():
    """Two points at distance d, weights 1/2 each: energy d^2 / 8."""
    J1 = acs.canonical_j(2)
    phi = acs.random_tangent(J1, 8, 0.6)
    J2 = acs.exp_map(J1, phi, 1.0)
    mid = acs.exp_map(J1, phi, 0.5)
    s = WeightedSampleSet((J1, J2), (0.5, 0.5))
    assert karcher_energy(mid, s) == pytest.approx(0.6 ** 2 / 8.0, abs=1e-12)


def test_energy_conjugation_invariance():
    J = acs.canonical_j(2)
    pts = [acs.exp_map(J, acs.random_tangent(J, s, 0.4), 1.0) for s in range(4)]
    y = acs.exp_map(J, acs.random_tangent(J, 99, 0.2), 1.0)
    s = WeightedSampleSet.uniform(pts)
    Q = random_so(4, 3)
    sq = WeightedSampleSet.uniform([acs.conjugate(Q, p) for p in pts])
    assert karcher_energy(acs.conjugate(Q, y), sq) == pytest.approx(
        karcher_energy(y, s), abs=1e-9)


# -- gradient -----------------------------------------------------------------

def test_gradient_vanishes_on_coincident_points():
    J = acs.random_j(2, 1)
    s = WeightedSampleSet.uniform([J, J, J])
    assert karcher_gradient(J, s).norm() < 1e-14


def test_gradient_single_point_recovery():
    J1 = acs.canonical_j(2)
    x = acs.exp_map(J1, acs.random_tangent(J1, 2, 0.5), 1.0)
    s = WeightedSampleSet((x,), (1.0,))
    g = karcher_gradient(J1, s)
    assert acs.exp_map(J1, g, -1.0).same_point(x, tol=1e-10)


def test_gradient_finite_difference():
    """Directional derivative of the energy matches <grad, psi>."""
    h = 1e-5
    for seed in range(10):
        J = acs.random_j(2, seed)
        pts = [acs.exp_map(J, acs.random_tangent(J, 10 * seed + k, 0.3), 1.0)
               for k in range(3)]
        s = WeightedSampleSet.uniform(pts)
        y = acs.exp_map(J, acs.random_tangent(J, seed + 77, 0.1), 1.0)
        psi = acs.random_tangent(y, seed + 200)
        fd = (karcher_energy(acs.exp_map(y, psi, h), s)
              - karcher_energy(acs.exp_map(y, psi, -h), s)) / (2.0 * h)
        assert fd == pytest.approx(
            acs.metric_inner(karcher_gradient(y, s), psi), abs=1e-6)


# -- mean ---------------------------------------------------------------------

def test_mean_of_identical_points():
    J = acs.random_j(2, 4)
    res = karcher_mean(WeightedSampleSet.uniform([J, J]))
    assert res.converged
    assert res.mean.same_point(J)
    assert res.iterations == 1


def test_mean_is_the_midpoint():
    J1 = acs.canonical_j(2)
    phi = acs.random_tangent(J1, 31, 0.8)
    J2 = acs.exp_map(J1, phi, 1.0)
    res = karcher_mean(WeightedSampleSet.uniform([J1, J2]), tol=1e-11)
    assert res.converged
    mid = acs.exp_map(J1, phi, 0.5)
    assert acs.distance(res.mean, mid) < 1e-9


def test_mean_equivariance():
    """Conjugating the sample set conjugates the mean (naturality under
    isometries)."""
    J = acs.canonical_j(2)
    pts = [acs.exp_map(J, acs.random_tangent(J, k, 0.4), 1.0) for k in range(5)]
    res = karcher_mean(WeightedSampleSet.uniform(pts), tol=1e-11)
    Q = random_so(4, 8)
    res_q = karcher_mean(
        WeightedSampleSet.uniform([acs.conjugate(Q, p) for p in pts]),
        tol=1e-11)
    assert acs.distance(res_q.mean, acs.conjugate(Q, res.mean)) < 1e-9


def test_mean_energy_not_above_samples():
    J = acs.canonical_j(2)
    pts = [acs.exp_map(J, acs.random_tangent(J, k + 40, 0.5), 1.0)
           for k in range(4)]
    s = WeightedSampleSet.uniform(pts)
    res = karcher_mean(s)
    assert all(res.energy <= karcher_energy(p, s) + 1e-12 for p in pts)


def test_mean_uniqueness_from_multiple_starts():
    J = acs.canonical_j(2)
    pts = [acs.exp_map(J, acs.random_tangent(J, k + 60, 0.5), 1.0)
           for k in range(5)]
    s = WeightedSampleSet.uniform(pts)
    means = [karcher_mean(s, tol=1e-11, start=p).mean for p in pts]
    for m in means[1:]:
        assert acs.distance(means[0], m) < 1e-9


def test_mean_tol_floor():
    J = acs.canonical_j(2)
    with pytest.raises(ValueError):
        karcher_mean(WeightedSampleSet.uniform([J]), tol=1e-15)


@pytest.mark.parametrize("max_iter", [-1, 0])
def test_mean_needs_an_iteration(max_iter):
    J = acs.canonical_j(2)
    with pytest.raises(IterationLimitTooSmall) as exc:
        karcher_mean(WeightedSampleSet.uniform([J]), max_iter=max_iter)
    assert exc.value.code == "iteration_limit_too_small"
    assert karcher_mean(WeightedSampleSet.uniform([J]), max_iter=1).iterations == 1


# -- convexity ----------------------------------------------------------------

def test_convexity_singleton(delta4):
    s = WeightedSampleSet.uniform([acs.random_j(2, 0)])
    assert check_convexity(s, delta4).ok


def test_convexity_violated_by_spread_points(delta4):
    """Two points separated past the diameter bound along a geodesic."""
    bound = math.pi / (2.0 * math.sqrt(delta4.epsilon_used))
    J1 = acs.canonical_j(2)
    phi = acs.random_tangent(J1, 5)
    J2 = acs.exp_map(J1, phi, min(1.5 * bound, 0.9 * delta4.inj_used))
    report = check_convexity(WeightedSampleSet.uniform([J1, J2]), delta4)
    assert not report.ok
    assert report.diameter > report.diameter_bound
    with pytest.raises(ConvexityViolation):
        karcher_mean_checked(WeightedSampleSet.uniform([J1, J2]), delta4)
    # J and -J lie in one component for n = 2 but on each other's cut locus:
    # the pair counts as infinitely far apart instead of raising
    cut = WeightedSampleSet.uniform([J1, acs.OrthoComplexStructure(-J1.mat)])
    assert check_convexity(cut, delta4).diameter == math.inf
    with pytest.raises(ConvexityViolation):
        karcher_mean_checked(cut, delta4)


def test_convexity_ok_inside_delta_ball(delta4):
    J = acs.canonical_j(2)
    pts = [acs.exp_map(J, acs.random_tangent(J, k, 0.8 * delta4.delta), 1.0)
           for k in range(6)]
    report = check_convexity(WeightedSampleSet.uniform(pts + [J]), delta4)
    assert report.ok


# -- stacked distances against the per-pair loops -----------------------------

def _pairwise_energy(y, s):
    return 0.5 * sum(w * acs.distance(acs.OrthoComplexStructure(p), y) ** 2
                     for p, w in zip(s.points, s.weights))


def _pairwise_gradient(y, s):
    g = np.zeros_like(y.mat)
    for p, w in zip(s.points, s.weights):
        if w == 0.0:
            continue
        g -= w * acs.log_map(y, acs.OrthoComplexStructure(p)).mat
    return acs.TangentPhi(y, g)


def _pairwise_convexity(s, delta):
    pts = [acs.OrthoComplexStructure(p) for p in s.points]
    m = len(pts)
    dmat = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            dmat[i, j] = dmat[j, i] = acs.distance_or_inf(pts[i], pts[j])
    radius = float(np.min(np.max(dmat, axis=1))) if m > 1 else 0.0
    diameter = float(np.max(dmat))
    bound = math.pi / (2.0 * math.sqrt(delta.epsilon_used))
    ball_ok = radius <= 2.0 * delta.delta
    diameter_ok = diameter <= bound
    return ConvexityReport(ok=ball_ok and diameter_ok, ball_radius=radius,
                           diameter=diameter, diameter_bound=bound)


def test_stacked_karcher_terms_match_pairwise_loops(fs_orbit, delta4):
    """Energy, gradient and convexity report on the Fubini-Study orbit have
    the bits of the per-pair loops, also with zero weights."""
    pts = fs_orbit.orbit
    w = np.array([0.0 if k % 3 == 0 else 1.0 for k in range(len(pts))])
    for s in (WeightedSampleSet.uniform(pts), WeightedSampleSet(pts, w / w.sum())):
        for y in (pts[0], pts[17], fs_orbit.base_J):
            assert repr(karcher_energy(y, s)) == repr(_pairwise_energy(y, s))
            assert (karcher_gradient(y, s).mat.tobytes()
                    == _pairwise_gradient(y, s).mat.tobytes())
        assert check_convexity(s, delta4) == _pairwise_convexity(s, delta4)


def test_stacked_karcher_mean_matches_pairwise_loops(fs_orbit, monkeypatch):
    """The Armijo iteration sees the same energies and gradients, so the
    mean, its iteration count and its residuals are bit-identical."""
    s = WeightedSampleSet.uniform(fs_orbit.orbit)
    stacked = karcher_mean(s)
    monkeypatch.setattr(karcher, "karcher_energy", _pairwise_energy)
    monkeypatch.setattr(karcher, "karcher_gradient", _pairwise_gradient)
    pairwise = karcher_mean(s)
    assert stacked.mean.mat.tobytes() == pairwise.mean.mat.tobytes()
    assert repr(stacked) == repr(pairwise)
