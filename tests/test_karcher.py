"""Tests for the Riemannian center of mass."""

import json
import math

import numpy as np
import pytest

from kahlerprobe import acs, cli, io, karcher
from kahlerprobe.karcher import (
    ConvexityReport,
    WeightedSampleSet,
    check_convexity,
    karcher_mean,
    karcher_mean_checked,
    karcher_terms,
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
    assert karcher_terms(J, s)[0] == 0.0


def test_energy_at_midpoint():
    """Two points at distance d, weights 1/2 each: energy d^2 / 8."""
    J1 = acs.canonical_j(2)
    phi = acs.random_tangent(J1, 8, 0.6)
    J2 = acs.exp_map(J1, phi, 1.0)
    mid = acs.exp_map(J1, phi, 0.5)
    s = WeightedSampleSet((J1, J2), (0.5, 0.5))
    assert karcher_terms(mid, s)[0] == pytest.approx(0.6 ** 2 / 8.0, abs=1e-12)


def test_energy_conjugation_invariance():
    J = acs.canonical_j(2)
    pts = [acs.exp_map(J, acs.random_tangent(J, s, 0.4), 1.0) for s in range(4)]
    y = acs.exp_map(J, acs.random_tangent(J, 99, 0.2), 1.0)
    s = WeightedSampleSet.uniform(pts)
    Q = random_so(4, 3)
    sq = WeightedSampleSet.uniform([acs.conjugate(Q, p) for p in pts])
    yq = acs.OrthoComplexStructure(acs.conjugate(Q, y))
    assert karcher_terms(yq, sq)[0] == pytest.approx(karcher_terms(y, s)[0], abs=1e-9)


# -- gradient -----------------------------------------------------------------

def test_gradient_vanishes_on_coincident_points():
    J = acs.random_j(2, 1)
    s = WeightedSampleSet.uniform([J, J, J])
    assert karcher_terms(J, s)[1].norm() < 1e-14


def test_gradient_single_point_recovery():
    J1 = acs.canonical_j(2)
    x = acs.exp_map(J1, acs.random_tangent(J1, 2, 0.5), 1.0)
    s = WeightedSampleSet((x,), (1.0,))
    g = karcher_terms(J1, s)[1]
    assert acs.exp_map(J1, g, -1.0).same_point(x)


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
        fd = (karcher_terms(acs.exp_map(y, psi, h), s)[0]
              - karcher_terms(acs.exp_map(y, psi, -h), s)[0]) / (2.0 * h)
        assert fd == pytest.approx(
            acs.metric_inner(karcher_terms(y, s)[1], psi), abs=1e-6)


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
    assert all(res.energy <= karcher_terms(p, s)[0] + 1e-12 for p in pts)


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
        g -= w * acs.log_map(y, p)[0]
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
    """On the Fubini-Study orbit, also with zero weights, the gradient and
    the convexity report have the bits of the per-pair loops; the energy,
    read off the gradient's log maps on base y instead of distances on base
    x_i, is within 1e-12 relative of the per-pair sum."""
    pts = fs_orbit.orbit
    w = np.array([0.0 if k % 3 == 0 else 1.0 for k in range(len(pts))])
    for s in (WeightedSampleSet.uniform(pts), WeightedSampleSet(pts, w / w.sum())):
        for y in (acs.OrthoComplexStructure(pts[0]), acs.OrthoComplexStructure(pts[17]),
                  fs_orbit.base_J):
            energy, grad, dists = karcher_terms(y, s)
            assert energy == pytest.approx(_pairwise_energy(y, s), rel=1e-12, abs=0.0)
            assert grad.mat.tobytes() == _pairwise_gradient(y, s).mat.tobytes()
            assert dists == [float(np.linalg.norm(acs.log_map(y, p)[0]))
                             for p, w in zip(s.points, s.weights) if w != 0.0]
        assert check_convexity(s, delta4) == _pairwise_convexity(s, delta4)


@pytest.mark.parametrize("seed", range(4))
def test_convexity_bounds_imply_the_pairwise_check(seed, delta4):
    """Seeded clouds around a base point, from well inside the delta-ball
    to past the diameter bound: whenever the bounds from the distances to
    the base pass, the pairwise check passes too, with an exact radius and
    diameter at most the bounds; otherwise the report is the pairwise one."""
    base = acs.random_j(2, seed)
    rng = np.random.default_rng(seed)
    bounded = []
    for radius in (0.05, 0.5, 0.9 * delta4.delta, 1.2 * delta4.delta, 2.5):
        seeds = rng.integers(2**31, size=int(rng.integers(2, 9))).tolist()
        phis = acs.random_tangents(base, seeds)
        pts = [acs.exp_map(base, acs.TangentPhi(base, phi), t)
               for phi, t in zip(phis, rng.uniform(0.0, radius, len(seeds)))]
        s = WeightedSampleSet.uniform(pts)
        report = check_convexity(s, delta4, acs.distance_or_inf(base.mat, s.points).tolist())
        exact = _pairwise_convexity(s, delta4)
        bounded.append(report.bounds)
        if report.bounds:
            assert report.ok and exact.ok
            assert exact.ball_radius <= report.ball_radius
            assert exact.diameter <= report.diameter
        else:
            assert report == exact
    assert bounded[:3] == [True] * 3 and not bounded[-1]


def test_orbit_convexity_reads_the_orbit_distances(fs_orbit, delta4, monkeypatch):
    """The averaging's convexity check takes its bounds from the orbit's
    distances to J_p and measures no pair; the bounds cover the exact
    values.  Distances of the wrong length are refused."""
    s = WeightedSampleSet.uniform(fs_orbit.orbit)
    report = check_convexity(s, delta4, fs_orbit.distances)
    exact = check_convexity(s, delta4)
    assert exact == _pairwise_convexity(s, delta4) and exact.ok and not exact.bounds
    assert report.bounds and report.ok
    assert report.diameter == 2.0 * fs_orbit.max_distance
    assert exact.ball_radius <= report.ball_radius and exact.diameter <= report.diameter
    with pytest.raises(ValueError, match="61 distances for 62 samples"):
        check_convexity(s, delta4, fs_orbit.distances[1:])
    reports = []
    checked = karcher.check_convexity
    monkeypatch.setattr(karcher, "check_convexity",
                        lambda *a: reports.append(checked(*a)) or reports[-1])
    monkeypatch.setattr(acs, "distance", None)  # any measured pair fails
    karcher_mean_checked(s, delta4, distances=fs_orbit.distances)
    assert reports == [report]


def _two_stack_energy(y, s):
    dists = acs.distance(s.points, y.mat).tolist()
    return 0.5 * sum(w * d ** 2 for w, d in zip(s.weights, dists))


def _two_stack_gradient(y, s):
    used = [i for i, w in enumerate(s.weights) if w != 0.0]
    g = np.zeros_like(y.mat)
    for i, log in zip(used, acs.log_map(y.mat, s.points[used])):
        g -= s.weights[i] * log
    return acs.TangentPhi(y, g)


def _two_stack_mean(s, tol=karcher.DEFAULT_TOL, max_iter=karcher.DEFAULT_MAX_ITER):
    """The iteration that log-maps each trial twice: the energy from
    distances on base x_i, the gradient from log maps on base y."""
    y = acs.OrthoComplexStructure(s.points[int(np.argmax(s.weights))])
    energy = _two_stack_energy(y, s)
    for it in range(1, max_iter + 1):
        grad = _two_stack_gradient(y, s)
        gn = grad.norm()
        if gn < tol:
            return karcher.MeanResult(y, it, gn, energy, True)
        step = 1.0
        while step > 1e-8:
            y_new = acs.exp_map(y, grad, -step)
            e_new = _two_stack_energy(y_new, s)
            if e_new < energy or _two_stack_gradient(y_new, s).norm() < gn:
                y, energy = y_new, e_new
                break
            step *= 0.5
        else:
            return karcher.MeanResult(y, it, gn, energy, gn < tol)
    gn = _two_stack_gradient(y, s).norm()
    return karcher.MeanResult(y, max_iter, gn, energy, gn < tol)


@pytest.mark.parametrize("zero_weights", [False, True], ids=["uniform", "zero_weighted"])
def test_karcher_mean_matches_two_stack_iteration(fs_orbit, zero_weights):
    """One log-map stack per trial point takes the same Armijo steps as the
    two-stack iteration: the same mean bits, iteration count, final gradient
    norm and convergence, and the energy within 1e-12 relative."""
    pts = fs_orbit.orbit
    w = np.array([float(not (zero_weights and k % 3 == 0)) for k in range(len(pts))])
    s = WeightedSampleSet(pts, w / w.sum())
    one, two = karcher_mean(s), _two_stack_mean(s)
    assert one.mean.mat.tobytes() == two.mean.mat.tobytes()
    assert (one.iterations, repr(one.final_grad_norm), one.converged) == \
        (two.iterations, repr(two.final_grad_norm), two.converged)
    assert one.iterations > 1
    assert one.energy == pytest.approx(two.energy, rel=1e-12, abs=0.0)


def test_zero_weight_point_in_the_other_component_is_skipped(tmp_path):
    """A weight-0 sample is never log-mapped, so one in the other component
    leaves the mean of the rest, and the CLI mean exits 0."""
    J = acs.canonical_j(2)
    a = acs.exp_map(J, acs.random_tangent(J, 3, 0.3), 1.0)
    b = acs.exp_map(J, acs.random_tangent(J, 4, 0.3), 1.0)
    D = np.diag([1.0, 1.0, 1.0, -1.0])
    c = acs.validate_j(D @ J.mat @ D)
    with_c = karcher_mean(WeightedSampleSet((a, b, c), (0.5, 0.5, 0.0)))
    without = karcher_mean(WeightedSampleSet((a, b), (0.5, 0.5)))
    assert with_c.converged
    assert with_c.mean.mat.tobytes() == without.mean.mat.tobytes()
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({"points": [io.structure_to_json(p) for p in (a, b, c)],
                                "weights": [0.5, 0.5, 0.0]}))
    out = tmp_path / "mean.json"
    assert cli.main(["mean", "--input", str(path), "--no-timestamp", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["converged"] is True
    assert result["mean"]["rows"] == without.mean.mat.tolist()
