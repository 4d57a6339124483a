"""Acceptance gate: ten criteria with pinned tolerances.

Each criterion is one test; its pass/fail line in the verbose report is the
ledger entry.  Tolerances are asserted exactly as stated, never loosened.
"""

import json
import math

import numpy as np
import pytest

from kahlerprobe import acs, cli, holonomy, prober
from kahlerprobe.constants import compute_delta
from kahlerprobe.karcher import (
    WeightedSampleSet,
    karcher_mean,
    karcher_terms,
)
from sampled_delta import sampled_delta


def maxabs(a):
    return float(np.max(np.abs(a)))


def test_criterion_01_exp_log_roundtrip():
    """100 seeded pairs per n in {2, 3} at distance < 0.5: reconstruction
    error < 1e-9."""
    worst = 0.0
    for n in (2, 3):
        for seed in range(100):
            J1 = acs.random_j(n, seed)
            phi = acs.random_tangent(J1, seed + 1000,
                                     0.05 + 0.4 * (seed % 10) / 10.0)
            J2 = acs.exp_map(J1, phi, 1.0)
            J2_back = acs.exp_map(J1, acs.log_map(J1, J2)[0], 1.0)
            worst = max(worst, maxabs(J2_back.mat - J2.mat))
    assert worst < 1e-9


def test_criterion_02_isometry_suite():
    """Conjugation invariance of distance < 1e-9 over 100 triples;
    orthonormal-frame (metric-change) invariance < 1e-8 over 50 pairs."""
    rng = np.random.default_rng(0)
    for seed in range(100):
        J1 = acs.random_j(2, seed)
        J2 = acs.exp_map(J1, acs.random_tangent(J1, seed + 300, 0.7), 1.0)
        Q, R = np.linalg.qr(rng.standard_normal((4, 4)))
        Q = Q * np.sign(np.diag(R))
        d0 = acs.distance(J1, J2)
        d1 = acs.distance(acs.conjugate(Q, J1), acs.conjugate(Q, J2))
        assert abs(d0 - d1) < 1e-9

    # a non-standard inner product G = B^T B admits many orthonormalizing
    # frames; distances between G-compatible structures must not depend on
    # which frame expresses them
    for seed in range(50):
        rng2 = np.random.default_rng(seed + 5000)
        B = rng2.standard_normal((4, 4)) + 3.0 * np.eye(4)
        G = B.T @ B
        L = np.linalg.cholesky(G)
        F1 = np.linalg.solve(L, np.eye(4)).T          # Cholesky frame
        w, U = np.linalg.eigh(G)
        F2 = U @ np.diag(w ** -0.5) @ U.T             # symmetric frame
        J1 = acs.random_j(2, seed)
        J2 = acs.exp_map(J1, acs.random_tangent(J1, seed + 700, 0.6), 1.0)
        K1 = F1 @ J1.mat @ np.linalg.inv(F1)          # G-compatible pair
        K2 = F1 @ J2.mat @ np.linalg.inv(F1)
        d_frame1 = acs.distance(acs.validate_j(np.linalg.solve(F1, K1 @ F1)),
                                acs.validate_j(np.linalg.solve(F1, K2 @ F1)))
        d_frame2 = acs.distance(acs.validate_j(np.linalg.solve(F2, K1 @ F2), tol=1e-8),
                                acs.validate_j(np.linalg.solve(F2, K2 @ F2), tol=1e-8))
        assert abs(d_frame1 - d_frame2) < 1e-8


def test_criterion_03_geodesic_criterion():
    """Second difference of the geodesic is Frobenius-orthogonal to the
    tangent space: residual < 1e-5 at 20 sampled (J, phi, t)."""
    h = 1e-3
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        J = acs.random_j(n, int(rng.integers(0, 10_000)))
        phi = acs.random_tangent(J, int(rng.integers(0, 10_000)))
        t = float(rng.uniform(0.05, 1.0))
        gm = acs.exp_map(J, phi, t - h).mat
        g0 = acs.exp_map(J, phi, t)
        gp = acs.exp_map(J, phi, t + h).mat
        acc = (gp - 2.0 * g0.mat + gm) / h ** 2
        assert np.linalg.norm(acs.project_tangent(g0, acc)) < 1e-5


def test_criterion_04_karcher_fixed_point():
    """Exact finite cyclic rotation groups, k in {3, 4, 5, 6}: the mean of
    the orbit is group-fixed to < 1e-8 at mean tolerance 1e-10, and five
    starting points agree to < 1e-8."""

    def rot_block(theta):
        c, s = math.cos(theta), math.sin(theta)
        r = np.array([[c, -s], [s, c]])
        return np.block([[r, np.zeros((2, 2))], [np.zeros((2, 2)), r]])

    J0 = acs.canonical_j(2)
    for k in (3, 4, 5, 6):
        group = [rot_block(2.0 * math.pi * j / k) for j in range(k)]
        J = acs.exp_map(J0, acs.random_tangent(J0, k, 0.3), 1.0)
        pts = [acs.conjugate(g, J) for g in group]
        s = WeightedSampleSet.uniform(pts)
        res = karcher_mean(s, tol=1e-10)
        assert res.converged
        worst = max(acs.distance(res.mean, acs.conjugate(g, res.mean))
                    for g in group)
        assert worst < 1e-8
        starts = [acs.OrthoComplexStructure(p) for p in pts[:4]] + [J0]
        means = [karcher_mean(s, tol=1e-10, start=y).mean for y in starts]
        for m in means[1:]:
            assert acs.distance(means[0], m) < 1e-8


def test_criterion_05_gradient_check():
    """Directional derivative of the Karcher energy matches the inner
    product with the gradient to 1e-6 over 50 random configurations."""
    h = 1e-5
    for seed in range(50):
        J = acs.random_j(2, seed)
        pts = [acs.exp_map(J, acs.random_tangent(J, 20 * seed + k, 0.35), 1.0)
               for k in range(4)]
        s = WeightedSampleSet.uniform(pts)
        y = acs.exp_map(J, acs.random_tangent(J, seed + 9000, 0.1), 1.0)
        psi = acs.random_tangent(y, seed + 4000)
        fd = (karcher_terms(acs.exp_map(y, psi, h), s)[0]
              - karcher_terms(acs.exp_map(y, psi, -h), s)[0]) / (2.0 * h)
        assert abs(fd - acs.metric_inner(karcher_terms(y, s)[1], psi)) < 1e-6


def test_criterion_06_delta4_stability(delta4):
    """The closed-form constant and the sampled estimate at two independent
    seeds agree within 5% relative, and each satisfies both
    convexity-compatibility inequalities."""
    d0 = compute_delta(2)
    sampled = [sampled_delta(2, seed) for seed in (0, 1)]
    for d1 in sampled:
        assert abs(d0.delta - d1.delta) / d0.delta < 0.05
    for d in (d0, *sampled, delta4):
        r_convex = min(d.inj_used / 2.0,
                       math.pi / (2.0 * math.sqrt(d.epsilon_used)))
        assert d.delta <= r_convex + 1e-12
        assert 2.0 * d.delta <= math.pi / (2.0 * math.sqrt(d.epsilon_used)) + 1e-12


def _sphere_triangle():
    """A geodesic triangle on the unit sphere, as a loop in the
    stereographic chart, plus its spherical excess from vertex angles."""

    def vert(theta, phi):
        return np.array([math.sin(theta) * math.cos(phi),
                         math.sin(theta) * math.sin(phi),
                         math.cos(theta)])

    A, B, C = vert(2.6, 0.0), vert(2.0, 1.0), vert(2.2, -1.2)

    def to_chart(P):
        return P[:2] / (1.0 - P[2])

    def arc(P, Q):
        omega = math.acos(float(np.clip(P @ Q, -1.0, 1.0)))

        def slerp(t):
            return (math.sin((1.0 - t) * omega) * P + math.sin(t * omega) * Q) \
                / math.sin(omega)

        def amap(t):
            return to_chart(slerp(t))

        def avel(t):
            u = slerp(t)
            du = omega * (math.cos(t * omega) * Q - math.cos((1.0 - t) * omega) * P) \
                / math.sin(omega)
            return du[:2] / (1.0 - u[2]) + u[:2] * du[2] / (1.0 - u[2]) ** 2

        return holonomy.curve(amap, avel)

    loop = holonomy.concatenate_paths([arc(A, B), arc(B, C), arc(C, A)])

    def angle_at(P, Q, R):
        tq = Q - (P @ Q) * P
        tr = R - (P @ R) * P
        return math.acos(float(np.clip(
            tq @ tr / (np.linalg.norm(tq) * np.linalg.norm(tr)), -1.0, 1.0)))

    excess = (angle_at(A, B, C) + angle_at(B, C, A) + angle_at(C, A, B)
              - math.pi)
    return loop, excess


def test_criterion_07_holonomy_oracle():
    """Sphere triangle holonomy equals the spherical excess within 1e-5 at
    4000 steps; raw defect decays at fourth order across {500, 1000, 2000}."""
    chart = holonomy.catalog("round_sphere_2")
    loop, excess = _sphere_triangle()
    A = holonomy.parallel_transport(chart, [loop], 4000)[0]
    angle = abs(math.atan2(A[1, 0], A[0, 0]))
    assert abs(angle - excess) < 1e-5

    chart4 = holonomy.catalog("round_sphere_4")
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.2, 1.2, size=(3, 4)) / np.array([[1.0], [2.0], [3.0]])
    b = rng.uniform(-1.2, 1.2, size=(3, 4)) / np.array([[1.0], [2.0], [3.0]])
    floop = holonomy.fourier_loop(np.zeros(4), a, b)
    defects = [holonomy.transport_with_defect(chart4, [floop], s)[1][0]
               for s in (500, 1000, 2000)]
    assert defects[0] / defects[1] > 8.0
    assert defects[1] / defects[2] > 8.0


def test_criterion_08_end_to_end_dichotomy(delta4):
    """flat torus -> KahlerWitness with zero orbit diameter and certificates
    < 1e-8; complex projective plane chart -> KahlerWitness with fixedness
    < 1e-5, certificates < 1e-3 and >= 3x refinement decay; round 4-sphere
    -> HolonomyObstruction with an independently replayable witness."""
    torus = prober.probe(holonomy.catalog("flat_torus_4"), [0.5] * 4,
                         delta=delta4)
    assert torus.kind == "KahlerWitness"
    assert torus.orbit_report.max_distance == 0.0
    for name in ("fixedness", "path_independence", "nabla_j", "nijenhuis",
                 "d_omega"):
        assert torus.certificates[name] < 1e-8

    fs = prober.probe(holonomy.catalog("fubini_study_cp2"), [0.0] * 4,
                      delta=delta4)
    assert fs.kind == "KahlerWitness"
    assert fs.certificates["fixedness"] < 1e-5
    for name in ("nabla_j", "nijenhuis", "d_omega"):
        coarse = fs.certificates[name]
        assert coarse < 1e-3
        refined = fs.certificates.get(name + "_refined")
        if refined is not None:
            assert coarse / refined >= 3.0
        else:
            assert coarse <= prober.CERT_FLOOR

    sphere_chart = holonomy.catalog("round_sphere_4")
    sphere = prober.probe(sphere_chart, [0.0] * 4, delta=delta4)
    assert sphere.kind == "HolonomyObstruction"
    assert sphere.witness_distance > delta4.delta
    # replay the witness loop from scratch
    witness = sphere.orbit_report.samples[sphere.witness_loop_index]
    A = holonomy.parallel_transport(sphere_chart, [witness.loop], 2 * witness.ode_steps)[0]
    Q = holonomy.nearest_orthogonal(A)
    J_p = sphere.orbit_report.base_J
    assert acs.distance(J_p, acs.conjugate(Q, J_p)) > delta4.delta


def test_criterion_09_perturbation_pull_back(delta4):
    """A structure perturbed by delta/4 along a random tangent is pulled
    back to the invariant one: distance(J', J_FS) < 0.1 * (delta/4)."""
    chart = holonomy.catalog("fubini_study_cp2")
    p = [0.0] * 4
    J_fs = prober.default_structure(chart, p)
    s = delta4.delta / 4.0
    J_p = acs.exp_map(J_fs, acs.random_tangent(J_fs, 42, s), 1.0)
    v = prober.probe(chart, p, J_p=J_p,
                     config=prober.ProbeConfig(loop_scale=0.45), delta=delta4)
    assert v.kind == "KahlerWitness"
    assert acs.distance(v.mean_result.mean, J_fs) < 0.1 * s


def test_criterion_10_negative_controls(capsys, tmp_path):
    """Perturbed fields fail the certificates; reversed loops invert the
    holonomy to < 1e-7; CLI output is byte-deterministic."""
    from test_prober import make_twisted_field
    field = make_twisted_field([np.full(4, 0.5),
                                np.array([0.3, 0.5, 0.6, 0.4])])
    assert prober.covariant_constancy_check(field) > 1e-3
    assert prober.nijenhuis_check(field) > 1e-3
    assert prober.kahler_form_check(field) > 1e-3

    chart = holonomy.catalog("round_sphere_4")
    loop = holonomy.rectangle_loop(np.zeros(4), 0, 2, 0.8)
    A = holonomy.parallel_transport(chart, [loop], 1000)[0]
    B = holonomy.parallel_transport(chart, [loop.reversed()], 1000)[0]
    assert maxabs(A @ B - np.eye(4)) < 1e-7

    outputs = []
    for _ in range(2):
        code = cli.main(["delta", "--dim", "4", "--no-timestamp"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["result"]["delta"] > 0.0
