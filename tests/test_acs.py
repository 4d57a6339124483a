"""Unit and oracle tests for the structure-space geometry."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerprobe import acs
from kahlerprobe.errors import (
    BasePointMismatch,
    ComponentMismatch,
    CutLocusError,
    DegeneratePlane,
    NotAComplexStructure,
    NotOrthogonal,
    NotOrthogonalGroupElement,
    OddDimension,
    ZeroProjection,
)


def maxabs(a):
    return float(np.max(np.abs(a)))


# -- points -------------------------------------------------------------------

def test_canonical_j_n1():
    J = acs.canonical_j(1)
    assert np.array_equal(J.mat, [[0.0, -1.0], [1.0, 0.0]])


def test_canonical_j_block_diagonal():
    J = acs.canonical_j(2)
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.array_equal(J.mat[:2, :2], block)
    assert np.array_equal(J.mat[2:, 2:], block)
    assert maxabs(J.mat[:2, 2:]) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_j_squares_to_minus_identity(n):
    J = acs.canonical_j(n)
    assert np.array_equal(J.mat @ J.mat, -np.eye(2 * n))


def test_canonical_j_rejects_zero():
    with pytest.raises(OddDimension):
        acs.canonical_j(0)


def test_validate_j_rejects_identity():
    with pytest.raises(NotAComplexStructure):
        acs.validate_j(np.eye(4))


def test_validate_j_rejects_nan():
    """NaN compares false with every tolerance, so it must not slip through."""
    with pytest.raises(NotAComplexStructure):
        acs.validate_j(np.full((4, 4), np.nan))
    with pytest.raises(NotOrthogonalGroupElement):
        acs.conjugate(np.full((4, 4), np.nan), acs.canonical_j(2))


def test_validate_j_accepts_canonical():
    acs.validate_j(acs.canonical_j(2).mat)


def test_validate_j_rejects_broken_entry():
    mat = np.array(acs.canonical_j(2).mat)
    mat[0, 1] = -0.9
    with pytest.raises((NotOrthogonal, NotAComplexStructure)):
        acs.validate_j(mat)


def test_structure_reads_as_its_matrix():
    """numpy reads a structure as its matrix, honouring dtype and copy."""
    J = acs.random_j(2, 3)
    assert np.asarray(J) is J.mat
    assert np.array(J, copy=False) is J.mat
    copied = np.array(J, copy=True)
    assert copied.flags.writeable and not np.shares_memory(copied, J.mat)
    assert np.array_equal(copied, J.mat)
    assert np.array(J, dtype=np.float32).dtype == np.float32
    with pytest.raises(ValueError):
        np.array(J, dtype=np.float32, copy=False)
    assert np.array([J, J]).tobytes() == np.stack([J.mat, J.mat]).tobytes()


def test_validate_j_rejects_odd_size():
    with pytest.raises(OddDimension):
        acs.validate_j(np.eye(3))


# -- metric and projection ----------------------------------------------------

def test_metric_inner_zero_tangent():
    J = acs.canonical_j(2)
    z = acs.TangentPhi(J, np.zeros((4, 4)))
    assert acs.metric_inner(z, z) == 0.0


def test_metric_inner_positive_definite():
    J = acs.canonical_j(2)
    for seed in range(100):
        phi = acs.random_tangent(J, seed)
        assert acs.metric_inner(phi, phi) > 0.0


def test_metric_inner_matches_generator_norm():
    # for phi = 2 X J the metric gives tr(phi phi^T) = 4 ||X||_F^2
    J = acs.canonical_j(2)
    phi = acs.random_tangent(J, 7, 1.3)
    X = -0.5 * phi.mat @ J.mat
    assert acs.metric_inner(phi, phi) == pytest.approx(
        4.0 * float(np.sum(X * X)), abs=1e-12)


def test_metric_inner_base_mismatch():
    phi = acs.random_tangent(acs.canonical_j(2), 0)
    psi = acs.random_tangent(acs.random_j(2, 5), 0)
    with pytest.raises(BasePointMismatch):
        acs.metric_inner(phi, psi)


def test_project_tangent_idempotent():
    J = acs.random_j(2, 3)
    phi = acs.random_tangent(J, 11)
    again = acs.project_tangent(J, phi.mat)
    assert maxabs(again.mat - phi.mat) < 1e-12


def test_project_tangent_kills_j():
    J = acs.canonical_j(3)
    assert maxabs(acs.project_tangent(J, J.mat).mat) == 0.0


def test_project_tangent_is_orthogonal_projection():
    rng = np.random.default_rng(0)
    J = acs.random_j(2, 1)
    A = rng.standard_normal((4, 4))
    phi = acs.project_tangent(J, A)
    residual = A - phi.mat
    for seed in range(20):
        psi = acs.random_tangent(J, seed)
        assert abs(float(np.sum(residual * psi.mat))) < 1e-10 * maxabs(A)


def test_tangent_invariants_hold():
    for seed in range(100):
        J = acs.random_j(2, seed)
        phi = acs.random_tangent(J, seed + 1)
        assert maxabs(phi.mat + phi.mat.T) < 1e-12
        assert maxabs(phi.mat @ J.mat + J.mat @ phi.mat) < 1e-12


# -- exp, log, distance -------------------------------------------------------

def test_exp_map_at_zero_time():
    J = acs.random_j(2, 4)
    phi = acs.random_tangent(J, 1)
    assert acs.exp_map(J, phi, 0.0).same_point(J)


def test_exp_map_zero_tangent():
    J = acs.random_j(2, 4)
    z = acs.TangentPhi(J, np.zeros((4, 4)))
    assert acs.exp_map(J, z, 2.7).same_point(J)


def test_exp_map_output_is_valid():
    for seed in range(50):
        for n in (1, 2, 3):
            J = acs.random_j(n, seed)
            phi = (acs.random_tangent(J, seed + 7, 0.8) if n > 1
                   else acs.TangentPhi(J, np.zeros((2, 2))))
            acs.validate_j(acs.exp_map(J, phi, 1.0).mat)


def test_exp_map_unit_speed():
    J = acs.canonical_j(2)
    phi = acs.random_tangent(J, 12)
    for t in (0.1, 0.3):
        assert acs.distance(J, acs.exp_map(J, phi, t)) == pytest.approx(t, abs=1e-8)


def test_exp_map_base_mismatch():
    phi = acs.random_tangent(acs.canonical_j(2), 0)
    with pytest.raises(BasePointMismatch):
        acs.exp_map(acs.random_j(2, 8), phi, 1.0)


def test_log_map_at_same_point():
    J = acs.random_j(2, 6)
    assert acs.log_map(J, J).norm() < 1e-12


def test_log_map_recovers_tangent():
    J1 = acs.canonical_j(2)
    phi = acs.random_tangent(J1, 21, 0.4)
    J2 = acs.exp_map(J1, phi, 1.0)
    back = acs.log_map(J1, J2)
    assert maxabs(back.mat - phi.mat) < 1e-9


def test_log_map_rejects_other_component():
    """Cross-component pairs are hard errors.

    Conjugating by a reflection flips the orientation class.  Empirically
    the connecting rotation J2 J1^{-1} then always carries an eigenvalue at
    -1, so the failure surfaces as the cut-locus error; the anticommutation
    check remains as a second line of defense.  Either way no tangent is
    returned for any nearby target either.
    """
    for n in (2, 3):
        J1 = acs.canonical_j(n)
        R = np.eye(2 * n)
        R[0, 0] = -1.0
        J_flip = acs.OrthoComplexStructure(R @ J1.mat @ R)
        for seed in range(5):
            J2 = acs.exp_map(J_flip, acs.random_tangent(J_flip, seed, 0.4), 1.0)
            with pytest.raises((ComponentMismatch, acs.CutLocusError)):
                acs.log_map(J1, J2)


def test_distance_symmetry():
    for seed in range(50):
        J1 = acs.random_j(2, seed)
        J2 = acs.exp_map(J1, acs.random_tangent(J1, seed + 100, 0.7), 1.0)
        assert abs(acs.distance(J1, J2) - acs.distance(J2, J1)) < 1e-10
        assert acs.distance_or_inf(J1, J2) == acs.distance(J1, J2)
    # a cross-component pair has no distance and counts as infinitely far
    J = acs.canonical_j(2)
    R = np.diag([-1.0, 1.0, 1.0, 1.0])
    J_flip = acs.OrthoComplexStructure(R @ J.mat @ R)
    assert acs.distance_or_inf(J, J_flip) == acs.distance_or_inf(J_flip, J) == np.inf


def test_distance_triangle_inequality():
    """Triangle inequality on exp-generated triples inside one small ball."""
    for seed in range(50):
        J = acs.random_j(2, seed)
        a = acs.exp_map(J, acs.random_tangent(J, 3 * seed + 1, 0.3), 1.0)
        b = acs.exp_map(J, acs.random_tangent(J, 3 * seed + 2, 0.3), 1.0)
        c = acs.exp_map(J, acs.random_tangent(J, 3 * seed + 3, 0.3), 1.0)
        assert acs.distance(a, c) <= acs.distance(a, b) + acs.distance(b, c) + 1e-10


def _scipy_log_map(J1, J2):
    """The per-pair log map as it was before the stacked kernel: principal
    log through scipy.linalg.schur, then the same three checks."""
    R = -J2 @ J1
    T, Q = scipy.linalg.schur(R, output="real")
    d = R.shape[0]
    L = np.zeros((d, d))
    i = 0
    while i < d:
        if i + 1 < d and abs(T[i + 1, i]) > 1e-12:
            c = 0.5 * (T[i, i] + T[i + 1, i + 1])
            s = 0.5 * (T[i + 1, i] - T[i, i + 1])
            theta = np.arctan2(s, c)
            if np.pi - abs(theta) < 1e-8:
                raise CutLocusError("rotation angle at pi")
            L[i, i + 1] = -theta
            L[i + 1, i] = theta
            i += 2
        else:
            if T[i, i] < 0.0:
                raise CutLocusError("eigenvalue -1")
            i += 1
    X = 0.5 * (Q @ L @ Q.T)
    if maxabs(X @ J1 + J1 @ X) > 1e-8 or maxabs(X + X.T) > 1e-8:
        raise ComponentMismatch("anticommutation")
    E = scipy.linalg.expm(X)
    if maxabs(E @ J1 @ E.T - J2) > 1e-8:
        raise ComponentMismatch("round trip")
    return 2.0 * X @ J1


def _scipy_exp_map(J, phi, t):
    X = -0.5 * phi.mat @ J.mat
    E = scipy.linalg.expm(t * X)
    return E @ J.mat @ E.T


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2**20),
       size=st.integers(1, 7), radius=st.floats(0.05, 1.2))
def test_stacked_log_maps_match_single_pairs(n, seed, size, radius):
    """Each slice of log_maps, distances and distances_or_inf has the bits
    of log_map / distance, and of the scipy-Schur log map, on seeded
    same-component pairs: one base broadcast against a stack, and a stack
    of pairs of distinct points (with one same-point pair)."""
    rng = np.random.default_rng(seed)
    base = acs.random_j(n, seed)
    phi = acs.random_tangent(base, seed + 1)
    ts = rng.uniform(-radius, radius, size)
    mats = acs.exp_maps(base, phi, ts)
    for k, t in enumerate(ts):
        assert mats[k].tobytes() == _scipy_exp_map(base, phi, t).tobytes()
    pts = [acs.exp_map(base, acs.random_tangent(base, int(rng.integers(2**31)), r), 1.0)
           for r in rng.uniform(0.01, radius, size)] + [base]
    B = np.stack([q.mat for q in pts])
    A = B[rng.permutation(len(pts))]
    A[-1] = B[-1]
    for J1s, firsts in ((base.mat, [base] * len(pts)),
                        (A, [acs.OrthoComplexStructure(a) for a in A])):
        logs = acs.log_maps(J1s, B)
        dists = acs.distances(J1s, B)
        assert acs.distances_or_inf(J1s, B).tobytes() == dists.tobytes()
        for k, (J1, J2) in enumerate(zip(firsts, pts)):
            assert logs[k].tobytes() == acs.log_map(J1, J2).mat.tobytes()
            assert logs[k].tobytes() == _scipy_log_map(J1.mat, J2.mat).tobytes()
            assert dists[k] == acs.distance(J1, J2)


def test_stacked_log_maps_raise_for_the_first_failing_pair():
    J = acs.canonical_j(2)
    near = acs.exp_map(J, acs.random_tangent(J, 1, 0.3), 1.0).mat
    antipode = -J.mat                                 # on J's cut locus
    R = np.diag([-1.0, 1.0, 1.0, 1.0])
    other = R @ J.mat @ R                             # the other component
    twisted = scipy.linalg.expm(0.3 * J.mat) @ J.mat  # log commutes with J
    with pytest.raises(CutLocusError):
        acs.log_maps(J.mat, np.stack([near, antipode, twisted]))
    with pytest.raises(ComponentMismatch):
        acs.log_maps(J.mat, np.stack([near, twisted, antipode]))
    with pytest.raises(CutLocusError):
        acs.distances(J.mat, np.stack([J.mat, near, other, twisted]))
    dists = acs.distances_or_inf(J.mat, np.stack([near, antipode, other, twisted, J.mat]))
    assert dists.tolist() == [acs.distance(J, acs.OrthoComplexStructure(near)),
                              math.inf, math.inf, math.inf, 0.0]
    for bad in (antipode, other, twisted):
        assert acs.distance_or_inf(J, acs.OrthoComplexStructure(bad)) == math.inf
    # errors other than the cut locus and a component mismatch still raise
    with pytest.raises(ValueError):
        acs.distances_or_inf(J.mat, np.stack([antipode, np.full((4, 4), np.nan)]))


def test_stacked_kernels_accept_an_empty_stack():
    J = acs.canonical_j(2)
    empty = np.empty((0, 4, 4))
    assert acs.log_maps(J.mat, empty).shape == (0, 4, 4)
    assert acs.distances(J.mat, empty).shape == (0,)
    assert acs.distances_or_inf(empty, J.mat).shape == (0,)
    assert acs.conjugates(empty, J).shape == (0, 4, 4)
    assert acs.exp_maps(J, acs.random_tangent(J, 0), []).shape == (0, 4, 4)



def _per_slice_log_map(A, B):
    """One pair (A, B) through the log-map kernel as it ran before its angle
    scan, round trip and norms moved onto the stack: LAPACK gees, a scalar
    walk over the Schur form, and a scipy.linalg.expm round trip.  Returns
    (tangent, None) or (None, error)."""
    R = -B @ A
    if not np.isfinite(R).all():
        return None, ValueError("array must not contain infs or NaNs")
    d = len(R)
    gees, lwork = acs._gees(d)
    T, _, _, _, Q, _, info = gees(acs._no_sort, R, lwork=lwork)
    if info > 0:
        return None, np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    t = T.tolist()
    L = np.zeros((d, d))
    i = 0
    while i < d:
        if i + 1 < d and abs(t[i + 1][i]) > 1e-12:
            c = 0.5 * (t[i][i] + t[i + 1][i + 1])
            s = 0.5 * (t[i + 1][i] - t[i][i + 1])
            theta = np.arctan2(s, c)
            if np.pi - abs(theta) < 1e-8:
                return None, CutLocusError("rotation angle at pi: principal log undefined")
            L[i, i + 1] = -theta
            L[i + 1, i] = theta
            i += 2
        else:
            if t[i][i] < 0.0:
                return None, CutLocusError("eigenvalue -1: principal log undefined")
            i += 1
    X = 0.5 * (Q @ L @ Q.T)
    if maxabs(X @ A + A @ X) > 1e-8 or maxabs(X + X.T) > 1e-8:
        return None, ComponentMismatch(
            "log generator does not anticommute with the base structure; "
            "the two structures lie in different components")
    E = scipy.linalg.expm(X)
    if maxabs(E @ A @ E.T - B) > 1e-8:
        return None, ComponentMismatch("log round-trip failed to reproduce the target")
    return 2.0 * X @ A, None


def _branch_stack(n):
    """A base structure J and a stack of second points that reaches every
    branch of the log-map kernel: good pairs (one with rotation angles past
    pi/2, so its Schur blocks have negative diagonals), -J, the other
    component, a rotation angle within 1e-9 of pi, a twisted J whose log
    commutes with J, 2J (R = 2I: X = 0 passes the anticommutation and skew
    checks and only the round trip rejects it), NaN, J itself, J moved by
    1e-12, and two Gaussian matrices."""
    J = acs.random_j(n, 3)
    d = 2 * n
    flip = np.eye(d)
    flip[0, 0] = -1.0
    phi = acs.random_tangent(J, 4)
    omega = float(np.max(np.abs(np.linalg.eigvals(-phi.mat @ J.mat))))  # top angle at t = 1
    rng = np.random.default_rng(n)
    mats = [acs.exp_map(J, acs.random_tangent(J, 10 + k, r), 1.0).mat
            for k, r in enumerate((0.2, 0.7, 2.4, 4.0))]
    mats += [-J.mat, flip @ J.mat @ flip, acs.exp_map(J, phi, (np.pi - 1e-9) / omega).mat,
             scipy.linalg.expm(0.3 * J.mat) @ J.mat, 2.0 * J.mat, np.full((d, d), np.nan),
             J.mat, J.mat + 1e-12, rng.standard_normal((d, d)), rng.standard_normal((d, d))]
    return J, np.stack(mats)


def _same_error(a, b):
    return type(a) is type(b) and str(a) == str(b)


@pytest.mark.parametrize("n", [2, 3])
def test_log_kernel_matches_the_per_slice_kernel(n):
    """Every slice of the stacked kernel has the tangent bytes or the error
    (type and message) of the per-slice kernel, and log_maps, distances and
    distances_or_inf raise the first error or return the per-slice bytes,
    over shuffled mixed stacks in both argument orders."""
    J, mats = _branch_stack(n)
    seen = set()
    for perm in range(6):
        B = mats[np.random.default_rng(perm).permutation(len(mats))]
        for A, Bs in ((np.broadcast_to(J.mat, B.shape), B), (B, np.broadcast_to(J.mat, B.shape))):
            refs = [_per_slice_log_map(a, b) for a, b in zip(A, Bs)]
            tangents, errors = acs._log_stack(A, Bs)
            for (ref_t, ref_e), t, e in zip(refs, tangents, errors):
                if ref_e is None:
                    assert e is None and t.tobytes() == ref_t.tobytes()
                else:
                    assert _same_error(e, ref_e) and np.isnan(t).all()
                    seen.add((type(ref_e).__name__, str(ref_e)))
            far = [not maxabs(a - b) <= acs.TOL_ALG for a, b in zip(A, Bs)]
            norms = [math.inf if e is not None else float(np.linalg.norm(t))
                     for t, e in refs]
            for fn, tolerated, skip_same in (
                    (acs.log_maps, (), False), (acs.distances, (), True),
                    (acs.distances_or_inf, (CutLocusError, ComponentMismatch), True)):
                first = next((e for (_, e), f in zip(refs, far)
                              if e is not None and not isinstance(e, tolerated)
                              and (f or not skip_same)), None)
                if first is not None:
                    with pytest.raises(type(first)) as exc:
                        fn(A, Bs)
                    assert str(exc.value) == str(first)
                elif fn is acs.distances_or_inf:
                    want = np.array([d if f else 0.0 for d, f in zip(norms, far)])
                    assert fn(A, Bs).tobytes() == want.tobytes()
            good = [k for k, (_, e) in enumerate(refs) if e is None]
            assert acs.log_maps(A[good], Bs[good]).tobytes() == \
                np.stack([refs[k][0] for k in good]).tobytes()
            assert acs.distances(A[good], Bs[good]).tobytes() == \
                np.array([norms[k] if far[k] else 0.0 for k in good]).tobytes()
    assert {msg for _, msg in seen} == {
        "array must not contain infs or NaNs",
        "rotation angle at pi: principal log undefined",
        "eigenvalue -1: principal log undefined",
        "log generator does not anticommute with the base structure; "
        "the two structures lie in different components",
        "log round-trip failed to reproduce the target"}
    empty = np.empty((0, 2 * n, 2 * n))
    tangents, errors = acs._log_stack(empty, empty)
    assert tangents.shape == empty.shape and errors == []


def test_log_kernel_makes_one_lapack_call_per_slice(monkeypatch):
    """log_maps runs gees once per finite slice, distances once per finite
    slice that is not the same point, and neither calls scipy.linalg.expm."""
    J = acs.random_j(2, 5)
    good = [acs.exp_map(J, acs.random_tangent(J, k, 0.5), 1.0).mat for k in range(28)]
    mats = np.stack(good + [J.mat] * 6 + [np.full((4, 4), np.nan)] * 3 + [-J.mat] * 3)
    mats = mats[np.random.default_rng(0).permutation(40)]
    gees, lwork = acs._gees(4)
    calls = {"gees": 0, "expm": 0}

    def counting_gees(*args, **kwargs):
        calls["gees"] += 1
        return gees(*args, **kwargs)

    def counting_expm(*args, **kwargs):
        calls["expm"] += 1
        raise AssertionError("the log-map kernel called scipy.linalg.expm")

    monkeypatch.setattr(acs, "_gees", lambda d: (counting_gees, lwork))
    monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
    acs.log_maps(J.mat, np.stack(good + good[:12]))
    assert calls == {"gees": 40, "expm": 0}
    for fn, want in ((acs.log_maps, 37), (acs.distances, 31), (acs.distances_or_inf, 31)):
        calls["gees"] = 0
        with pytest.raises((ValueError, CutLocusError)):
            fn(J.mat, mats)
        assert calls == {"gees": want, "expm": 0}
    calls["gees"] = 0
    dists = acs.distances_or_inf(J.mat, mats[~np.isnan(mats).any(axis=(1, 2))])
    assert calls == {"gees": 31, "expm": 0}
    assert (dists == 0.0).sum() == 6 and np.isinf(dists).sum() == 3

# -- conjugation --------------------------------------------------------------

def test_conjugate_identity():
    J = acs.random_j(2, 13)
    assert acs.conjugate(np.eye(4), J).same_point(J)


def test_conjugate_by_self():
    J = acs.random_j(2, 13)
    assert maxabs(acs.conjugate(J.mat, J).mat - J.mat) <= 1e-12


def test_conjugate_rejects_non_orthogonal():
    with pytest.raises(NotOrthogonalGroupElement):
        acs.conjugate(2.0 * np.eye(4), acs.canonical_j(2))


def test_stacked_conjugates_match_single_calls():
    J = acs.random_j(2, 13)
    Qs = np.stack([np.linalg.qr(np.random.default_rng(k).standard_normal((4, 4)))[0]
                   for k in range(5)])
    conj = acs.conjugates(Qs, J)
    for Q, C in zip(Qs, conj):
        assert C.tobytes() == acs.conjugate(Q, J).mat.tobytes()
    # the first non-orthogonal slice is reported: 2I has Q^T Q - I = 3I
    with pytest.raises(NotOrthogonalGroupElement, match="3.000e"):
        acs.conjugates(np.stack([Qs[0], 2.0 * np.eye(4), 3.0 * np.eye(4)]), J)


def test_conjugation_is_isometry():
    rng = np.random.default_rng(5)
    for seed in range(50):
        J1 = acs.random_j(2, seed)
        J2 = acs.exp_map(J1, acs.random_tangent(J1, seed + 50, 0.6), 1.0)
        M = rng.standard_normal((4, 4))
        Q, R = np.linalg.qr(M)
        Q = Q * np.sign(np.diag(R))
        d0 = acs.distance(J1, J2)
        d1 = acs.distance(acs.conjugate(Q, J1), acs.conjugate(Q, J2))
        assert abs(d0 - d1) < 1e-9


# -- curvature ----------------------------------------------------------------

def one_plane_curvature(J, phi, psi):
    """Curvature of the plane of the tangent matrices phi and psi at J: the
    N = 1 call of the stacked kernel, raising its DegeneratePlane."""
    curvatures, [error] = acs.sectional_curvatures(J, phi[None], psi[None])
    if error is not None:
        raise error
    return float(curvatures[0])


def test_sectional_curvature_commuting_plane_is_flat():
    # generators supported on disjoint coordinate blocks commute, so the
    # plane they span is flat
    J = acs.canonical_j(4)

    def block_tangent(i, j):
        X = np.zeros((8, 8))
        X[2 * i, 2 * j] = 1.0
        X[2 * j, 2 * i] = -1.0
        X[2 * i + 1, 2 * j + 1] = -1.0
        X[2 * j + 1, 2 * i + 1] = 1.0
        return acs.project_tangent(J, 2.0 * X @ J.mat)

    phi = block_tangent(0, 1)
    psi = block_tangent(2, 3)
    Xa = -0.5 * phi.mat @ J.mat
    Xb = -0.5 * psi.mat @ J.mat
    assert maxabs(Xa @ Xb - Xb @ Xa) < 1e-14
    assert phi.norm() > 0.5 and psi.norm() > 0.5
    assert one_plane_curvature(J, phi.mat, psi.mat) == pytest.approx(0.0, abs=1e-12)


def test_sectional_curvature_constant_for_n2(delta4):
    """For n = 2 each component is a round 2-sphere of radius 2."""
    J = acs.canonical_j(2)
    for seed in range(30):
        phi = acs.random_tangent(J, seed)
        psi = acs.random_tangent(J, seed + 1000)
        c = acs.metric_inner(phi, psi)
        psi = acs.TangentPhi(J, psi.mat - c * phi.mat)
        if psi.norm() < 1e-6:
            continue
        k = one_plane_curvature(J, phi.mat, (1.0 / psi.norm()) * psi.mat)
        assert k == pytest.approx(0.25, abs=1e-10)
    # the estimated upper bound must cover the true constant curvature
    assert delta4.epsilon_used >= 0.25


def test_sectional_curvature_conjugation_invariant():
    J = acs.canonical_j(3)
    phi = acs.random_tangent(J, 2)
    psi = acs.random_tangent(J, 3)
    k0 = one_plane_curvature(J, phi.mat, psi.mat)
    rng = np.random.default_rng(9)
    M = rng.standard_normal((6, 6))
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))
    Jq = acs.conjugate(Q, J)
    phiq = Q.T @ phi.mat @ Q
    psiq = Q.T @ psi.mat @ Q
    assert one_plane_curvature(Jq, phiq, psiq) == pytest.approx(k0, abs=1e-9)


def test_sectional_curvature_degenerate_plane():
    J = acs.canonical_j(2)
    phi = acs.random_tangent(J, 0)
    with pytest.raises(DegeneratePlane):
        one_plane_curvature(J, phi.mat, 2.0 * phi.mat)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sectional_curvatures_slices_match_single_planes(n):
    """Slice k of the stacked kernel has the bits of its N = 1 call on
    plane k; a degenerate slice reads NaN, carries its DegeneratePlane and
    leaves the other slices as they are."""
    J = acs.canonical_j(n)
    phis = acs.random_tangents(J, range(7))
    psis = acs.random_tangents(J, range(100, 107))
    psis[3] = 2.0 * phis[3]
    curvatures, errors = acs.sectional_curvatures(J, phis, psis)
    assert curvatures.shape == (7,)
    assert [type(e) for e in errors] == [type(None)] * 3 + [DegeneratePlane] + [type(None)] * 3
    assert math.isnan(curvatures[3])
    for k in (0, 1, 2, 4, 5, 6):
        assert repr(float(curvatures[k])) == repr(one_plane_curvature(J, phis[k], psis[k]))
    with pytest.raises(DegeneratePlane, match="Gram determinant"):
        one_plane_curvature(J, phis[3], psis[3])


def test_sectional_curvatures_of_no_planes():
    J = acs.canonical_j(2)
    curvatures, errors = acs.sectional_curvatures(J, np.zeros((0, 4, 4)), np.zeros((0, 4, 4)))
    assert curvatures.shape == (0,) and errors == []


def test_sectional_curvature_jacobi_field_oracle():
    """Independent geodesic-deviation oracle.

    Along a unit-speed geodesic with start direction phi, a nearby geodesic
    started in an orthogonal direction psi separates like the Jacobi field:
    ||gamma_psi(t) - gamma(t)|| = t - K t^3/6 + O(t^5) for small tangent
    offsets, so K ~ 6 (t - d(t)) / t^3.  Richardson-extrapolate over two
    step sizes to cancel the t^5 term.
    """
    for n, seed in ((2, 0), (3, 4)):
        J = acs.random_j(n, seed)
        phi = acs.random_tangent(J, seed + 10)
        psi = acs.random_tangent(J, seed + 20)
        c = acs.metric_inner(phi, psi)
        psi = acs.TangentPhi(J, psi.mat - c * phi.mat)
        psi = acs.TangentPhi(J, (1.0 / psi.norm()) * psi.mat)
        k_formula = one_plane_curvature(J, phi.mat, psi.mat)

        eps = 1e-4

        def deviation(t):
            base = acs.exp_map(J, phi, t)
            mixed = acs.TangentPhi(J, phi.mat + eps * psi.mat)
            off = acs.exp_map(J, mixed, t / mixed.norm() * 1.0)
            # re-scale to arc length t along the mixed geodesic
            off = acs.exp_map(J, acs.TangentPhi(J, (1.0 / mixed.norm()) * mixed.mat), t)
            return acs.distance(base, off) / eps

        def k_est(t):
            return 6.0 * (t - deviation(t)) / t ** 3

        k1, k2 = k_est(0.1), k_est(0.2)
        k_oracle = (4.0 * k1 - k2) / 3.0
        assert k_oracle == pytest.approx(k_formula, abs=1e-4)


def test_geodesic_criterion():
    """Second difference of the geodesic is Frobenius-orthogonal to the
    tangent space (the embedded-submanifold geodesic criterion)."""
    h = 1e-3
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        J = acs.random_j(n, int(rng.integers(0, 1000)))
        phi = acs.random_tangent(J, int(rng.integers(0, 1000)))
        t = float(rng.uniform(0.1, 0.8))
        gm = acs.exp_map(J, phi, t - h).mat
        g0 = acs.exp_map(J, phi, t)
        gp = acs.exp_map(J, phi, t + h).mat
        acc = (gp - 2.0 * g0.mat + gm) / h ** 2
        tangential = acs.project_tangent(g0, acc)
        assert tangential.norm() < 1e-5


# -- random generators --------------------------------------------------------

def test_random_j_valid_and_deterministic():
    for n in (1, 2, 3):
        for seed in range(20):
            J = acs.random_j(n, seed)
            acs.validate_j(J.mat)
            assert np.array_equal(J.mat, acs.random_j(n, seed).mat)


def test_random_j_distinct_seeds_differ():
    collisions = 0
    for seed in range(100):
        a = acs.random_j(2, seed)
        b = acs.random_j(2, seed + 1000)
        if maxabs(a.mat - b.mat) <= 1e-6:
            collisions += 1
    assert collisions == 0


def test_random_tangent_norm_exact():
    J = acs.canonical_j(2)
    phi = acs.random_tangent(J, 3, 0.7)
    assert phi.norm() == pytest.approx(0.7, abs=1e-12)


def test_random_tangent_fails_for_n1():
    """The tangent space at n = 1 is zero-dimensional per component."""
    with pytest.raises(ZeroProjection):
        acs.random_tangent(acs.canonical_j(1), 0)


@pytest.mark.parametrize("norm", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_random_tangent_needs_a_finite_positive_norm(norm):
    """A NaN or infinite norm once gave a NaN or infinite tangent."""
    J = acs.canonical_j(2)
    with pytest.raises(ZeroProjection, match="positive and finite"):
        acs.random_tangent(J, 0, norm)
    with pytest.raises(ZeroProjection, match="positive and finite"):
        acs.random_tangents(J, [0, 1], norm)


@pytest.mark.parametrize("n,norm", [(2, 1.0), (3, 0.3), (4, 1e-3)])
def test_random_tangents_slices_match_single_seeds(n, norm):
    """Slice k has the bits of random_tangent(J, seeds[k], norm)."""
    J = acs.canonical_j(n)
    seeds = [5, 2**31 - 2, 0, 5, 77]
    phis = acs.random_tangents(J, seeds, norm)
    assert phis.shape == (5, 2 * n, 2 * n)
    for phi, seed in zip(phis, seeds):
        assert np.array_equal(phi, acs.random_tangent(J, seed, norm).mat)
    assert acs.random_tangents(J, [], norm).shape == (0, 2 * n, 2 * n)


def test_transitivity_constructive():
    """For same-component pairs an orthogonal conjugator exists.

    Built from the log: Q = e^X maps J1 to J2 when X = log generator.
    """
    for seed in range(10):
        J1 = acs.random_j(2, seed)
        J2 = acs.exp_map(J1, acs.random_tangent(J1, seed + 30, 0.9), 1.0)
        phi = acs.log_map(J1, J2)
        import scipy.linalg
        Q = scipy.linalg.expm(-0.5 * phi.mat @ J1.mat).T
        assert maxabs(acs.conjugate(Q, J1).mat - J2.mat) < 1e-8
