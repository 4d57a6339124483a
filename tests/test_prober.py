"""Tests for the dichotomy pipeline stages."""

import math

import numpy as np
import pytest

from kahlerprobe import acs, holonomy, karcher, prober
from kahlerprobe.errors import (ComponentMismatch, CutLocusError, DeterminantAnomaly,
                                DimensionMismatch, GridTooCoarse, StepTooCoarse)


def maxabs(a):
    return float(np.max(np.abs(a)))


def same_point(J1, J2):
    """Two structures of one size within TOL_ALG of each other."""
    return J1.dim == J2.dim and maxabs(J1.mat - J2.mat) <= acs.TOL_ALG


def constant_loop(p):
    p = np.asarray(p, dtype=float)
    return holonomy.curve(lambda t: p, lambda t: np.zeros_like(p))


def make_sample(p, matrix):
    return holonomy.HolonomySample(np.asarray(p, dtype=float), constant_loop(p),
                                   np.asarray(matrix, dtype=float), 100, 0.0)


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def block_rotation(theta):
    """Rotation by theta in both complex blocks; commutes with canonical J."""
    return np.block([[rot2(theta), np.zeros((2, 2))],
                     [np.zeros((2, 2)), rot2(theta)]])


# -- orbit --------------------------------------------------------------------

def test_orbit_identity_samples():
    J = acs.random_j(2, 0)
    samples = [make_sample(np.zeros(4), np.eye(4)) for _ in range(3)]
    report = prober.orbit(J, samples)
    assert report.max_distance == 0.0
    assert all(same_point(acs.OrthoComplexStructure(o), J) for o in report.orbit)


def test_orbit_commuting_sample_contributes_zero():
    J = acs.canonical_j(2)
    report = prober.orbit(J, [make_sample(np.zeros(4), block_rotation(0.7))])
    assert report.max_distance == 0.0


def test_orbit_flags_reflection_samples():
    J = acs.canonical_j(2)
    R = np.eye(4)
    R[0, 0] = -1.0
    with pytest.raises(DeterminantAnomaly):
        prober.orbit(J, [make_sample(np.zeros(4), R)])


def test_orbit_dimension_mismatch():
    J = acs.canonical_j(3)
    with pytest.raises(DimensionMismatch):
        prober.orbit(J, [make_sample(np.zeros(4), np.eye(4))])


def test_orbit_equivariance():
    """Conjugating J_p and all samples by a fixed Q leaves distances alone."""
    chart = holonomy.catalog("round_sphere_4")
    p = np.zeros(4)
    loops = holonomy.loop_family(chart, p, "coordinate_rectangles", 3, 0.5)
    samples = holonomy.holonomy_samples(chart, p, loops, 400)
    J = prober.default_structure(chart, p)
    rng = np.random.default_rng(2)
    Q, R = np.linalg.qr(rng.standard_normal((4, 4)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0.0:
        Q[:, [0, 1]] = Q[:, [1, 0]]
    conj_samples = [make_sample(p, Q.T @ s.matrix @ Q) for s in samples]
    r0 = prober.orbit(J, samples)
    r1 = prober.orbit(acs.OrthoComplexStructure(acs.conjugate(Q, J)), conj_samples)
    assert maxabs(np.array(r0.distances) - np.array(r1.distances)) < 1e-9


def test_orbit_names_the_fault_of_a_mixed_sample_list():
    """Every sample's shape is checked before the samples are stacked, so a
    wrong-sized sample among good ones is a DimensionMismatch, not numpy's
    error from stacking; a determinant -1 sample among good ones is a
    DeterminantAnomaly."""
    J = acs.canonical_j(2)
    good = [make_sample(np.zeros(4), np.eye(4)), make_sample(np.zeros(4), block_rotation(0.3))]
    with pytest.raises(DimensionMismatch):
        prober.orbit(J, good + [make_sample(np.zeros(4), np.eye(6))] + good)
    with pytest.raises(DeterminantAnomaly):
        prober.orbit(J, good + [make_sample(np.zeros(4), np.diag([-1.0, 1.0, 1.0, 1.0]))])


def test_orbit_of_no_samples():
    report = prober.orbit(acs.canonical_j(2), [])
    assert report.orbit.shape == (0, 4, 4) and report.distances == ()
    assert (report.max_distance, report.argmax_loop) == (0.0, -1)


def _per_pair_orbit(J_p, samples):
    """The orbit as one call per sample: conjugate, then 0 for the same
    point, else the norm of the pair's log map, +inf past the cut locus or
    across components."""
    pts, dists = [], []
    for s in samples:
        Jq = acs.conjugate(s.matrix, J_p)
        pts.append(Jq)
        if same_point(J_p, acs.OrthoComplexStructure(Jq)):
            dists.append(0.0)
            continue
        try:
            dists.append(float(np.linalg.norm(acs.log_map(J_p.mat, Jq)[0])))
        except (CutLocusError, ComponentMismatch):
            dists.append(math.inf)
    return np.array(pts).reshape(-1, J_p.dim, J_p.dim), dists


def _default_samples(chart, p):
    """The holonomy samples of the default probe config at p."""
    config = prober.ProbeConfig()
    loops = holonomy.loop_family(chart, p, config.loop_kind, config.loops,
                                 config.loop_scale, seed=config.seed)
    return holonomy.holonomy_samples(chart, p, loops, config.ode_steps,
                                     word_length=config.word_length)


def _orbit_panel():
    """(J_p, samples) with 0, finite and +inf distances: the default
    Fubini-Study and round-sphere probes, and the canonical structure under
    the identity, a commuting rotation, random rotations and rotations onto
    its cut locus (diag(1, -1, 1, -1) takes J0 to -J0) or 1e-9 from it.  A J_p 1e-7 off the
    structure space stands in for a cross-component pair: conjugation by a
    rotation keeps a structure in its component, and orbit() leaves the
    validation of J_p to probe(), so its log maps fail the component checks."""
    p = np.zeros(4)
    for name in ("fubini_study_cp2", "round_sphere_4"):
        chart = holonomy.catalog(name)
        yield prober.default_structure(chart, p), _default_samples(chart, p)
    J0 = acs.canonical_j(2)
    mats = [np.eye(4), block_rotation(0.7), np.diag([1.0, -1.0, 1.0, -1.0])]
    for seed in range(8):
        Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
        Q = Q * np.sign(np.diag(R))
        if np.linalg.det(Q) < 0.0:
            Q[:, [0, 1]] = Q[:, [1, 0]]
        mats.append(Q)
    mats.append(mats[2] @ block_rotation(1e-9))
    samples = [make_sample(p, m) for m in mats]
    yield J0, samples
    S = np.random.default_rng(1).standard_normal((4, 4))
    yield acs.OrthoComplexStructure(J0.mat + 1e-7 * (S + S.T)), samples


def test_orbit_stack_matches_the_per_pair_loop():
    """The orbit's conjugate stack, distances and argmax have the bytes of
    the per-pair loop on the default probes and a panel with +inf entries."""
    kinds = set()
    for J_p, samples in _orbit_panel():
        report = prober.orbit(J_p, samples)
        pts, dists = _per_pair_orbit(J_p, samples)
        assert report.orbit.tobytes() == pts.tobytes()
        assert np.array(report.distances).tobytes() == np.array(dists).tobytes()
        assert report.argmax_loop == int(np.argmax(dists))
        assert repr(report.max_distance) == repr(max(dists))
        kinds |= {"zero" if d == 0.0 else "inf" if d == math.inf else "finite"
                  for d in dists}
    assert kinds == {"zero", "finite", "inf"}


# -- near preservation --------------------------------------------------------

def test_near_preservation_boundary(delta4):
    J = acs.canonical_j(2)
    inside = prober.orbit(J, [make_sample(np.zeros(4), np.eye(4))])
    assert prober.near_preservation_test(inside, delta4)
    phi = acs.random_tangent(J, 0)
    J_far = acs.exp_map(J, phi, delta4.delta + 1e-6)
    report = prober.OrbitReport(base_J=J, samples=(), orbit=(J_far,),
                                distances=(delta4.delta + 1e-6,),
                                max_distance=delta4.delta + 1e-6, argmax_loop=0)
    assert not prober.near_preservation_test(report, delta4)


# -- averaging and fixedness --------------------------------------------------

def test_average_of_singleton_orbit(delta4):
    J = acs.random_j(2, 5)
    report = prober.orbit(J, [make_sample(np.zeros(4), np.eye(4))])
    mean = prober.average_to_fixed(report, delta4)
    assert mean.converged
    assert acs.distance(mean.mean, J) < 1e-9


def test_average_two_point_involution_orbit(delta4):
    """Q with Q^2 commuting with J: the mean is the Q-fixed midpoint."""
    J0 = acs.canonical_j(2)
    J = acs.exp_map(J0, acs.random_tangent(J0, 3, 0.4), 1.0)
    Q = block_rotation(math.pi / 2.0)  # Q^2 = -I commutes with everything
    samples = [make_sample(np.zeros(4), np.eye(4)),
               make_sample(np.zeros(4), Q)]
    report = prober.orbit(J, samples)
    mean = prober.average_to_fixed(report, delta4, tol=1e-11)
    assert mean.converged
    assert acs.distance(mean.mean, acs.conjugate(Q, mean.mean)) < 1e-9
    mid = acs.exp_map(J, acs.log_map(J, report.orbit[1])[0], 0.5)
    assert acs.distance(mean.mean, mid) < 1e-8


def test_cyclic_group_orbit_mean_is_fixed(delta4):
    """Exact 5-element rotation group: the mean is fixed by every element."""
    J0 = acs.canonical_j(2)
    J = acs.exp_map(J0, acs.random_tangent(J0, 7, 0.3), 1.0)
    group = [block_rotation(2.0 * math.pi * j / 5.0) for j in range(5)]
    samples = [make_sample(np.zeros(4), g) for g in group]
    report = prober.orbit(J, samples)
    mean = prober.average_to_fixed(report, delta4, tol=1e-10)
    assert mean.converged
    assert prober.fixedness_check(mean.mean, samples) < 1e-9


def test_average_without_samples_is_the_checked_mean(delta4):
    """With no holonomy samples there is nothing to re-orbit: the first
    mean is returned."""
    J0 = acs.canonical_j(2)
    orbit = tuple(acs.exp_map(J0, acs.random_tangent(J0, k, 0.2), 1.0) for k in range(3))
    report = prober.OrbitReport(base_J=J0, samples=(), orbit=orbit,
                                distances=(0.2,) * 3, max_distance=0.2, argmax_loop=0)
    mean = prober.average_to_fixed(report, delta4)
    first = karcher.karcher_mean_checked(karcher.WeightedSampleSet.uniform(orbit), delta4,
                                         report.distances)
    assert mean.converged
    assert repr(mean) == repr(first)


def _rewrapping_average(report, delta, tol):
    """average_to_fixed as a loop that conjugates twice per round and wraps
    each conjugate in a structure."""
    mean = karcher.karcher_mean_checked(karcher.WeightedSampleSet.uniform(report.orbit),
                                        delta, report.distances, tol=tol)
    for _ in range(prober.MAX_ROUNDS):
        if not mean.converged:
            break
        if prober.fixedness_check(mean.mean, report.samples) < prober.TOL_FIX:
            break
        pts = acs.conjugate(np.stack([s.matrix for s in report.samples]), mean.mean)
        mean = karcher.karcher_mean(
            karcher.WeightedSampleSet.uniform([acs.OrthoComplexStructure(p) for p in pts]),
            tol=tol, start=mean.mean)
    return mean


def test_average_conjugates_once_per_round(fs_orbit, delta4, monkeypatch):
    """Each re-orbit round takes its fixedness residual and its next sample
    set from one conjugate stack, and the residual from the log stack that
    starts the next mean, with the bits of the rewrapping loop, which
    measures each round's distances on their own: no distance is measured."""
    expected = _rewrapping_average(fs_orbit, delta4, prober.DEFAULT_TOL)
    events = []

    def record(name, fn):
        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(acs, "conjugate", record("conjugate", acs.conjugate))
    monkeypatch.setattr(prober, "karcher_mean", record("mean", prober.karcher_mean))
    monkeypatch.setattr(acs, "distance", record("distance", acs.distance))
    mean = prober.average_to_fixed(fs_orbit, delta4)
    rounds = events.count("mean")
    assert rounds >= 1
    assert events == ["conjugate", "mean"] * rounds + ["conjugate"]
    assert mean.mean.mat.tobytes() == expected.mean.mat.tobytes()
    assert repr(mean) == repr(expected)


def test_fixedness_check_identity_samples():
    J = acs.random_j(2, 9)
    assert prober.fixedness_check(J, [make_sample(np.zeros(4), np.eye(4))]) == 0.0


def _pairwise_fixedness(J, samples):
    worst = 0.0
    for s in samples:
        worst = max(worst, acs.distance_or_inf(J, acs.conjugate(s.matrix, J)))
    return worst


def test_stacked_fixedness_matches_pairwise_loop(fs_orbit):
    for J in (fs_orbit.base_J, acs.OrthoComplexStructure(fs_orbit.orbit[5]),
              acs.canonical_j(2)):
        assert (repr(prober.fixedness_check(J, fs_orbit.samples))
                == repr(_pairwise_fixedness(J, fs_orbit.samples)))
    assert prober.fixedness_check(fs_orbit.base_J, []) == 0.0


# -- global field -------------------------------------------------------------

def test_global_field_flat_torus(delta4):
    chart = holonomy.catalog("flat_torus_4")
    J = acs.canonical_j(2)
    config = prober.ProbeConfig(grid_res=9, field_steps=150, probe_points=5)
    field = prober.build_global_j(chart, np.full(4, 0.5), J, config)
    assert field.path_independence_residual < 1e-10
    for x in field.grid:
        assert maxabs(field.ortho_j(x) - J.mat) < 1e-10
    assert prober.covariant_constancy_check(field) < 1e-8
    assert prober.nijenhuis_check(field) < 1e-8
    assert prober.kahler_form_check(field) < 1e-8


class _TwistedField(prober.GlobalJField):
    """Test fixture: an x0-dependent rotation of the canonical structure on
    the flat 4-torus.  The rotation mixes the two complex planes, so the
    field is neither parallel nor integrable."""

    RATE = 1.0

    def ortho_j(self, x, axis_order=None):
        """The rotated structure at every point of x, one point at a time."""
        return np.reshape([self._rotated(float(y[0])) for y in np.reshape(x, (-1, 4))],
                          np.shape(x) + (4,))

    def _rotated(self, x0):
        theta = self.RATE * x0
        c, s = math.cos(theta), math.sin(theta)
        R = np.eye(4)
        R[1, 1] = R[2, 2] = c
        R[1, 2] = -s
        R[2, 1] = s
        return R @ self.base_J.mat @ R.T


def make_twisted_field(grid_points):
    chart = holonomy.catalog("flat_torus_4")
    return _TwistedField(chart=chart, base_point=np.full(4, 0.5),
                         base_J=acs.canonical_j(2), grid=tuple(grid_points),
                         h=np.full(4, 0.002), steps=150)


def test_twisted_field_fails_all_certificates():
    field = make_twisted_field([np.full(4, 0.5), np.array([0.3, 0.5, 0.6, 0.4])])
    assert prober.covariant_constancy_check(field) > 0.1
    assert prober.nijenhuis_check(field) > 0.1
    assert prober.kahler_form_check(field) > 0.1


def test_twisted_field_nijenhuis_sympy_oracle():
    """The obstruction tensor of the fixture, symbolically, at one point."""
    sympy = pytest.importorskip("sympy")
    x0 = sympy.symbols("x0")
    c, s = sympy.cos(x0), sympy.sin(x0)
    R = sympy.Matrix([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])
    J0 = sympy.Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    J = R * J0 * R.T
    dJ = J.diff(x0)  # only the x0-derivative is nonzero

    def dkJ(k, i, j):
        return dJ[i, j] if k == 0 else 0

    point = np.array([0.4, 0.5, 0.5, 0.5])
    Jn = np.array(J.subs(x0, point[0]).evalf(), dtype=float)
    dJn = np.array(dJ.subs(x0, point[0]).evalf(), dtype=float)
    N_sym = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4):
            for l in range(4):
                N_sym[i, j, l] = (
                    sum(Jn[k, j] * (dJn[i, l] if k == 0 else 0.0) for k in range(4))
                    - sum(Jn[k, l] * (dJn[i, j] if k == 0 else 0.0) for k in range(4))
                    - sum(Jn[i, k] * ((dJn[k, l] if j == 0 else 0.0)
                                      - (dJn[k, j] if l == 0 else 0.0))
                          for k in range(4)))

    field = make_twisted_field([point])
    Jf, dJf = holonomy.central_difference(field.coordinate_j, point, field.h)
    t1 = np.einsum("kj,kil->ijl", Jf, dJf)
    t2 = np.einsum("kl,kij->ijl", Jf, dJf)
    t3 = np.einsum("ik,jkl->ijl", Jf, dJf) - np.einsum("ik,lkj->ijl", Jf, dJf)
    N_num = t1 - t2 - t3
    assert maxabs(N_num - N_sym) < 1e-6
    assert maxabs(N_sym) > 0.5  # genuinely non-integrable at this point


def _pointwise_difference(f, x, h):
    """dF[k] = (f(x + h_k e_k) - f(x - h_k e_k)) / (2 h_k) at one point."""
    out = []
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = h[k]
        out.append((f(x + e) - f(x - e)) / (2.0 * e[k]))
    return np.stack(out)


def _pointwise_checks(field, scale):
    """The three certificates as per-point loops with a running max: one
    stencil per probe point, one point at a time."""
    h = scale * field.h
    nabla = nij = d_omega = 0.0

    def omega(y):
        return np.asarray(field.chart.metric(y), dtype=float) @ field.coordinate_j(y)

    for x in field.grid:
        J, dJ = field.coordinate_j(x), _pointwise_difference(field.coordinate_j, x, h)
        gamma = holonomy.christoffel(field.chart, x)
        for k in range(field.chart.dim):
            Gk = gamma[:, k, :]
            nabla = max(nabla, maxabs(dJ[k] + Gk @ J - J @ Gk))
        t1 = np.einsum("kj,kil->ijl", J, dJ)
        t2 = np.einsum("kl,kij->ijl", J, dJ)
        t3 = np.einsum("ik,jkl->ijl", J, dJ) - np.einsum("ik,lkj->ijl", J, dJ)
        nij = max(nij, maxabs(t1 - t2 - t3))
        dw = _pointwise_difference(omega, x, h)
        ext = dw + np.einsum("jki->ijk", dw) + np.einsum("kij->ijk", dw)
        d_omega = max(d_omega, maxabs(ext))
    return nabla, nij, d_omega


def _fs_field():
    chart = holonomy.catalog("fubini_study_cp2")
    J = prober.default_structure(chart, [0.0] * 4)
    return prober.build_global_j(chart, [0.0] * 4, J,
                                 prober.ProbeConfig(field_steps=100, probe_points=3))


def _twisted_field():
    return make_twisted_field([np.full(4, 0.5), np.array([0.3, 0.5, 0.6, 0.4]),
                               np.array([0.45, 0.4, 0.5, 0.6])])


@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("build", [_twisted_field, _fs_field], ids=["twisted", "fubini_study"])
def test_stacked_certificates_match_pointwise_loops(build, scale, monkeypatch):
    """One stencil per scale, one field call and one difference call over
    all probe points' (P, 2d + 1, d) stack, gives the three certificates the
    bits of the per-point loops, on fresh fields of the same build."""
    field, calls, differences = build(), [], []
    stencil = field.coordinate_j
    field.coordinate_j = lambda x: calls.append(np.shape(x)) or stencil(x)
    difference = holonomy.central_difference
    monkeypatch.setattr(holonomy, "central_difference",
                        lambda f, x, h: differences.append(h) or difference(f, x, h))
    stacked = tuple(check(field, scale=scale) for check in (
        prober.covariant_constancy_check, prober.nijenhuis_check, prober.kahler_form_check))
    assert calls == [(3, 9, 4)]  # one stencil for the three checks
    assert len(differences) == 1 and differences[0].tobytes() == (scale * field.h).tobytes()
    assert repr(stacked) == repr(_pointwise_checks(build(), scale))
    assert min(stacked) > 0.0


def _fresh_fs_field():
    chart = holonomy.catalog("fubini_study_cp2")
    J = prober.default_structure(chart, [0.0] * 4)
    return prober.GlobalJField(chart=chart, base_point=np.zeros(4), base_J=J,
                               grid=(np.array([0.1, -0.05, 0.08, 0.02]),),
                               h=np.full(4, 0.01), steps=100)


def _one_path_ortho_j(field, x, axis_order=None):
    """The field's value at one point x, read one point at a time: each miss
    is transported alone, in a kernel call of its own."""
    key = field._key(x, axis_order)
    if key not in field._cache:
        path = field._canonical_path(x, axis_order)
        if path.pieces:
            P = holonomy.nearest_orthogonal(holonomy.parallel_transport(
                field.chart, [path], field.steps)[0])
            field._cache[key] = P @ field.base_J.mat @ P.T
        else:
            field._cache[key] = field.base_J.mat
    return field._cache[key]


def _counted_transports(monkeypatch):
    """Record the number of paths of every parallel_transport call."""
    calls, transport = [], holonomy.parallel_transport
    monkeypatch.setattr(holonomy, "parallel_transport",
                        lambda chart, paths, steps: calls.append(len(paths))
                        or transport(chart, paths, steps))
    return calls


def test_coordinate_j_stack_matches_pointwise_ortho_j(monkeypatch):
    """The misses of one stack are transported in one call with the bytes
    of the per-point, one-path reads, along either axis order: a repeated
    point, two points within 1e-12 (the first decides) and the base point
    (empty path) included."""
    x = np.array([0.1, -0.05, 0.08, 0.02])
    near = x + np.array([2e-13, 0.0, -1e-13, 0.0])
    pts = np.concatenate([np.repeat(x[None], 9, axis=0), [x, near, np.zeros(4)]])
    pts[1::2][:4] += np.diag([0.01, 0.02, 0.03, 0.04])
    pts[2::2][:4] -= np.diag([0.01, 0.02, 0.03, 0.04])
    stack = pts.reshape(3, 4, 4)
    calls = _counted_transports(monkeypatch)
    for axis_order in (None, [3, 2, 1, 0]):
        stacked, pointwise = _fresh_fs_field(), _fresh_fs_field()
        assert stacked._key(near) == stacked._key(x) and not np.array_equal(near, x)
        J = np.reshape([_one_path_ortho_j(pointwise, y, axis_order) for y in pts],
                       (3, 4, 4, 4))
        del calls[:]
        assert stacked.ortho_j(stack, axis_order).tobytes() == J.tobytes()
        assert calls == [9]
        if axis_order is None:
            F = holonomy.orthonormal_frame(pointwise.chart, stack)
            assert (stacked.coordinate_j(stack).tobytes()
                    == (F @ J @ np.linalg.inv(F)).tobytes())
            assert calls == [9]  # all cached
        assert len(stacked._cache) == len(pointwise._cache) == 10
        for key, val in pointwise._cache.items():
            assert stacked._cache[key].tobytes() == val.tobytes()
        assert stacked._cache[stacked._key(np.zeros(4), axis_order)] is stacked.base_J.mat


def test_path_independence_is_one_transport_per_axis_order(monkeypatch):
    """build_global_j reads its default 10 probe points in one kernel call
    per axis order, with the residual of the per-point, one-path reads."""
    chart = holonomy.catalog("fubini_study_cp2")
    J = prober.default_structure(chart, [0.0] * 4)
    config = prober.ProbeConfig(field_steps=100)
    calls = _counted_transports(monkeypatch)
    field = prober.build_global_j(chart, [0.0] * 4, J, config)
    assert calls == [config.probe_points] * 2
    reference = _fresh_fs_field()
    worst = max(maxabs(_one_path_ortho_j(reference, x)
                       - _one_path_ortho_j(reference, x, [3, 2, 1, 0])) for x in field.grid)
    assert repr(field.path_independence_residual) == repr(worst)
    assert len(field._cache) == len(reference._cache) == 2 * config.probe_points
    for key, val in reference._cache.items():
        assert field._cache[key].tobytes() == val.tobytes()


def test_one_certificate_scale_transports_its_misses_once(monkeypatch):
    """A certificate's stencil reaches the kernel in one stacked call; the
    next certificates at the same scale share that stencil and make none."""
    field = _fresh_fs_field()
    calls = _counted_transports(monkeypatch)
    prober.covariant_constancy_check(field)
    assert calls == [9]
    prober.nijenhuis_check(field)
    prober.kahler_form_check(field)
    assert calls == [9]
    prober.covariant_constancy_check(field, scale=0.5)
    assert calls == [9, 8]  # the probe point itself is cached


def _field_calls_of_probe(monkeypatch, chart, point, **kw):
    calls = []
    coordinate_j = prober.GlobalJField.coordinate_j
    monkeypatch.setattr(prober.GlobalJField, "coordinate_j",
                        lambda self, x: calls.append(np.shape(x)) or coordinate_j(self, x))
    v = prober.probe(holonomy.catalog(chart), point, **kw)
    assert v.kind == "KahlerWitness"
    return v, calls


def test_a_probe_without_refinement_reads_the_field_once(monkeypatch, delta4):
    """The default flat-torus probe: no certificate is above the floor, so
    the three certificates share the one stencil at scale 1."""
    v, calls = _field_calls_of_probe(monkeypatch, "flat_torus_4", [0.5] * 4, delta=delta4)
    assert not any(k.endswith("_refined") for k in v.certificates)
    assert calls == [(10, 9, 4)]


def test_a_refined_certificate_reads_the_field_once_more(monkeypatch, delta4):
    """The benchmark's perturbed Fubini-Study probe refines d omega only:
    one stencil at scale 1 and one at scale 1/2."""
    chart = holonomy.catalog("fubini_study_cp2")
    J_fs = prober.default_structure(chart, [0.0] * 4)
    J_p = acs.exp_map(J_fs, acs.random_tangent(J_fs, 42, delta4.delta / 4.0), 1.0)
    config = prober.ProbeConfig(word_length=2, ode_steps=100, field_steps=100,
                                probe_points=1, loop_scale=0.45)
    v, calls = _field_calls_of_probe(monkeypatch, "fubini_study_cp2", [0.0] * 4,
                                     J_p=J_p, config=config, delta=delta4)
    assert [k for k in v.certificates if k.endswith("_refined")] == ["d_omega_refined"]
    assert calls == [(1, 9, 4)] * 2


def test_certificate_misses_check_each_defect(monkeypatch):
    """A built field's certificate transports new points, and a defect past
    the limit raises StepTooCoarse there, as ortho_j does on a new point."""
    field = _fs_field()
    monkeypatch.setattr(holonomy, "DEFECT_LIMIT", 1e-300)
    with pytest.raises(StepTooCoarse):
        prober.covariant_constancy_check(field)
    with pytest.raises(StepTooCoarse):
        field.ortho_j(np.array([0.01, 0.02, 0.03, 0.04]))


# -- probe --------------------------------------------------------------------

def test_default_structure_flat_torus_is_canonical():
    chart = holonomy.catalog("flat_torus_4")
    J = prober.default_structure(chart, [0.5] * 4)
    assert maxabs(J.mat - acs.canonical_j(2).mat) < 1e-12


@pytest.mark.parametrize("mat", [np.full((4, 4), np.nan), 2.0 * acs.canonical_j(2).mat,
                                 np.eye(4)], ids=["nan", "twice_j0", "identity"])
def test_given_structure_is_validated_at_default_structure(mat, delta4):
    """A J_p that is not an orthogonal complex structure within the input
    tolerance ends Inconclusive where the structure is settled, not as a raw
    error, a wrong obstruction or a failed average further on."""
    v = prober.probe(holonomy.catalog("round_sphere_4"), [0.0] * 4,
                     J_p=acs.OrthoComplexStructure(mat),
                     config=prober.ProbeConfig(loops=2, word_length=1), delta=delta4)
    assert (v.kind, v.failing_stage) == ("Inconclusive", "default_structure")


@pytest.mark.parametrize("word_length", [1, 2])
def test_a_plain_array_j_p_is_validated_at_default_structure(word_length, delta4):
    """A J_p given as a (d, d) array gives the verdict of its structure (two
    loops on the round 4-sphere: Inconclusive at average_to_fixed with words
    of length 1, an obstruction with words of length 2), and an all-NaN
    array ends Inconclusive at default_structure."""
    chart = holonomy.catalog("round_sphere_4")
    config = prober.ProbeConfig(loops=2, word_length=word_length)
    J = acs.random_j(2, 4)
    as_structure = prober.probe(chart, [0.0] * 4, J_p=J, config=config, delta=delta4)
    as_array = prober.probe(chart, [0.0] * 4, J_p=np.array(J.mat), config=config,
                            delta=delta4)
    assert as_structure.kind == ("Inconclusive", "HolonomyObstruction")[word_length - 1]
    for v in (as_structure, as_array):
        assert (v.kind, v.failing_stage, v.detail, v.witness_loop_index) == \
            (as_structure.kind, as_structure.failing_stage, as_structure.detail,
             as_structure.witness_loop_index)
        assert repr(v.witness_distance) == repr(as_structure.witness_distance)
    v = prober.probe(chart, [0.0] * 4, J_p=np.full((4, 4), np.nan), config=config,
                     delta=delta4)
    assert (v.kind, v.failing_stage) == ("Inconclusive", "default_structure")


def test_probe_inconclusive_outside_domain(delta4):
    chart = holonomy.catalog("round_sphere_4")
    v = prober.probe(chart, [9.0, 0.0, 0.0, 0.0], delta=delta4)
    assert v.kind == "Inconclusive"
    assert v.failing_stage == "holonomy_samples"


def test_probe_inconclusive_on_non_finite_transport(delta4):
    """NaN Christoffels give a NaN transport defect, which is rejected at the
    sampling stage instead of reaching the SVD of the polar correction."""
    base = holonomy.catalog("round_sphere_4")
    chart = holonomy.ManifoldChart(base.dim, base.metric, base.domain,
                                   christoffel=lambda x: np.full((len(x), 4, 4, 4), np.nan),
                                   name="nan_christoffels")
    v = prober.probe(chart, [0.0] * 4, delta=delta4)
    assert v.kind == "Inconclusive"
    assert v.failing_stage == "holonomy_samples"
    assert "non-finite" in v.detail


def test_probe_inconclusive_on_too_few_ode_steps(delta4):
    chart = holonomy.catalog("round_sphere_4")
    v = prober.probe(chart, [0.0] * 4, config=prober.ProbeConfig(ode_steps=50),
                     delta=delta4)
    assert v.kind == "Inconclusive"
    assert v.failing_stage == "holonomy_samples"


@pytest.mark.parametrize("field,stage", [("ode_steps", "holonomy_samples"),
                                         ("field_steps", "build_global_j")])
def test_probe_inconclusive_on_too_many_steps(delta4, monkeypatch, field, stage):
    """A step count above MAX_STEPS ends Inconclusive at the stage that
    transports with it, and no transport of that many steps starts."""
    transport = holonomy._transport_coordinate

    def bounded(chart, paths, steps):
        assert steps <= holonomy.MAX_STEPS, "a transport past the bound started"
        return transport(chart, paths, steps)

    monkeypatch.setattr(holonomy, "_transport_coordinate", bounded)
    config = prober.ProbeConfig(loops=2, word_length=1, grid_res=9, probe_points=1,
                                **{field: 10**8})
    v = prober.probe(holonomy.catalog("flat_torus_4"), [0.5] * 4, config=config,
                     delta=delta4)
    assert (v.kind, v.failing_stage) == ("Inconclusive", stage)
    assert "at most 100000" in v.detail


def test_probe_inconclusive_on_orbit_error(delta4, monkeypatch):
    """A determinant -1 sample makes orbit() raise; probe() names the stage."""
    p = [0.0] * 4
    monkeypatch.setattr(holonomy, "holonomy_samples",
                        lambda *a, **kw: [make_sample(p, np.diag([-1.0, 1.0, 1.0, 1.0]))])
    v = prober.probe(holonomy.catalog("round_sphere_4"), p, delta=delta4)
    assert v.kind == "Inconclusive"
    assert v.failing_stage == "orbit"
    assert "determinant" in v.detail


def test_probe_names_orbit_for_a_sample_list_with_several_faults(delta4, monkeypatch):
    """A determinant -1 sample before a wrong-sized one: orbit() reports the
    size, which it checks first, and probe() names the orbit stage."""
    p = [0.0] * 4
    monkeypatch.setattr(holonomy, "holonomy_samples", lambda *a, **kw: [
        make_sample(p, np.diag([-1.0, 1.0, 1.0, 1.0])), make_sample(p, np.eye(6))])
    v = prober.probe(holonomy.catalog("round_sphere_4"), p, delta=delta4)
    assert (v.kind, v.failing_stage) == ("Inconclusive", "orbit")
    assert "dimension" in v.detail


@pytest.mark.parametrize("config", [prober.ProbeConfig(loops=0),
                                    prober.ProbeConfig(loop_kind="circles"),
                                    prober.ProbeConfig(word_length=0)])
def test_probe_inconclusive_on_invalid_loop_family(delta4, config):
    """Zero loops, an unknown kind and a word length below 1 (which once
    ran as 1) end Inconclusive at holonomy_samples."""
    v = prober.probe(holonomy.catalog("flat_torus_4"), [0.5] * 4, config=config,
                     delta=delta4)
    assert v.kind == "Inconclusive"
    assert v.failing_stage == "holonomy_samples"
    assert v.detail.startswith(("0 loops", "unknown loop family", "word length 0"))


def test_probe_inconclusive_on_indefinite_metric(delta4):
    """A metric that is not positive definite at p leaves no orthonormal
    frame for the default structure."""
    base = holonomy.catalog("flat_torus_4")
    chart = holonomy.ManifoldChart(base.dim, lambda x: np.diag([-1.0, 1.0, 1.0, 1.0]),
                                   base.domain, name="indefinite")
    v = prober.probe(chart, [0.5] * 4, delta=delta4)
    assert v.kind == "Inconclusive"
    assert v.failing_stage == "default_structure"
    assert "positive definite" in v.detail


def test_probe_mutual_exclusion(delta4):
    """An obstruction verdict carries a witness and no certificates."""
    chart = holonomy.catalog("round_sphere_4")
    v = prober.probe(chart, [0.0] * 4, delta=delta4)
    assert v.kind == "HolonomyObstruction"
    assert v.witness_distance > delta4.delta
    assert v.certificates == {}
    assert v.mean_result is None


def test_probe_rejects_degenerate_loops_without_probe_points(delta4):
    """Constant loops and an empty certificate grid once combined into a
    KahlerWitness on the round 4-sphere, whose holonomy is all of SO(4)."""
    config = prober.ProbeConfig(loop_scale=0.0, probe_points=0)
    v = prober.probe(holonomy.catalog("round_sphere_4"), [0.0] * 4,
                     config=config, delta=delta4)
    assert v.kind == "Inconclusive"
    assert v.failing_stage == "holonomy_samples"
    assert v.detail.startswith("loop scale")


def test_probe_with_tiny_rectangles_far_from_the_centre(delta4):
    """Rectangles of side 1.1e-15 at (3, 3, 3, 3) keep their four sides;
    the probe ends in a verdict instead of dividing by a piece count of 0."""
    config = prober.ProbeConfig(loop_scale=1.1e-15, word_length=2, ode_steps=100,
                                field_steps=100, probe_points=1)
    v = prober.probe(holonomy.catalog("round_sphere_4"), [3.0] * 4,
                     config=config, delta=delta4)
    assert v.kind == "Inconclusive"
    assert v.failing_stage == "build_global_j"


def test_probe_needs_a_probe_point(delta4):
    v = prober.probe(holonomy.catalog("flat_torus_4"), [0.5] * 4,
                     config=prober.ProbeConfig(probe_points=0), delta=delta4)
    assert v.kind == "Inconclusive"
    assert v.failing_stage == "build_global_j"
    assert v.detail.startswith("0 probe points")


@pytest.mark.parametrize("probe_points", [25, 30])
def test_global_field_raises_when_it_draws_too_few_probe_points(probe_points):
    """At grid_res 9 round_sphere_2 has 25 interior nodes, and the draws find
    24 of them for 25 points and 25 for 30: no field on fewer points."""
    config = prober.ProbeConfig(grid_res=9, probe_points=probe_points)
    with pytest.raises(GridTooCoarse, match=f"of {probe_points} probe points"):
        prober.build_global_j(holonomy.catalog("round_sphere_2"), [0.0, 0.0],
                              acs.canonical_j(1), config)


def test_probe_with_more_probe_points_than_interior_nodes(delta4):
    """flat_torus_4 at grid_res 9 has 5^4 = 625 interior nodes."""
    config = prober.ProbeConfig(grid_res=9, probe_points=626)
    v = prober.probe(holonomy.catalog("flat_torus_4"), [0.5] * 4, config=config,
                     delta=delta4)
    assert (v.kind, v.failing_stage) == ("Inconclusive", "build_global_j")
    assert "of 626 probe points" in v.detail


def test_global_field_checks_the_interior_nodes_before_it_draws(monkeypatch):
    """More probe points than interior nodes can never be found, so no
    generator is made and no draw is taken."""
    def no_draws(*args, **kwargs):
        raise AssertionError("drew probe points")
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    config = prober.ProbeConfig(grid_res=9, probe_points=5 ** 4 + 1)
    with pytest.raises(GridTooCoarse, match="the 625 interior nodes cannot hold all of 626"):
        prober.build_global_j(holonomy.catalog("flat_torus_4"), [0.5] * 4,
                              acs.canonical_j(2), config)


@pytest.mark.parametrize("name", ["fubini_study_cp2", "round_sphere_4"])
def test_probe_base_point_of_the_wrong_length(delta4, name):
    v = prober.probe(holonomy.catalog(name), [0.5, 0.5], delta=delta4)
    assert v.kind == "Inconclusive"
    assert v.failing_stage == "default_structure"
    assert "shape (2,)" in v.detail


def test_probe_n1_chart_is_inconclusive_at_compute_delta():
    v = prober.probe(holonomy.catalog("round_sphere_2"), [0.0, 0.0])
    assert (v.kind, v.failing_stage) == ("Inconclusive", "compute_delta")
    assert v.delta_used is None
    assert "n = 1" in v.detail


def test_probe_mean_tol_below_the_floor_is_inconclusive(delta4):
    config = prober.ProbeConfig(mean_tol=1e-20, word_length=1, ode_steps=100)
    v = prober.probe(holonomy.catalog("flat_torus_4"), [0.5] * 4, config=config,
                     delta=delta4)
    assert (v.kind, v.failing_stage) == ("Inconclusive", "average_to_fixed")
    assert v.detail.startswith("tol must be >=")


# -- records holding arrays --------------------------------------------------

_RECORDS = {
    "OrthoComplexStructure": lambda: acs.canonical_j(2),
    "ManifoldChart": lambda: holonomy.catalog("flat_torus_4"),
    "HolonomySample": lambda: make_sample([0.5] * 4, np.eye(4)),
    "WeightedSampleSet": lambda: karcher.WeightedSampleSet.uniform(
        [acs.canonical_j(2)] * 2),
    "GlobalJField": lambda: prober.GlobalJField(
        holonomy.catalog("flat_torus_4"), np.zeros(4), acs.canonical_j(2), (),
        np.full(4, 0.1), 100),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_holding_arrays_compare_and_hash(name):
    """== on two records holding arrays is a bool (identity), not an
    ambiguous-truth-value error, and hash() works."""
    a, b = _RECORDS[name](), _RECORDS[name]()
    assert (a == a, a == b, a != b) == (True, False, True)
    assert hash(a) == hash(a)
