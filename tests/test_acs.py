"""Unit and oracle tests for the structure-space geometry."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerprobe import acs
from kahlerprobe.errors import (
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


def same_point(J1, J2):
    """Two structures of one size within TOL_ALG of each other."""
    return J1.dim == J2.dim and maxabs(J1.mat - J2.mat) <= acs.TOL_ALG


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
    z = np.zeros((4, 4))
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
    X = -0.5 * phi @ J.mat
    assert acs.metric_inner(phi, phi) == pytest.approx(
        4.0 * float(np.sum(X * X)), abs=1e-12)


def test_project_tangent_idempotent():
    J = acs.random_j(2, 3)
    phi = acs.random_tangent(J, 11)
    again = acs.project_tangent(J, phi)
    assert maxabs(again - phi) < 1e-12


def test_project_tangent_kills_j():
    J = acs.canonical_j(3)
    assert maxabs(acs.project_tangent(J, J.mat)) == 0.0


def test_project_tangent_is_orthogonal_projection():
    rng = np.random.default_rng(0)
    J = acs.random_j(2, 1)
    A = rng.standard_normal((4, 4))
    phi = acs.project_tangent(J, A)
    residual = A - phi
    for seed in range(20):
        psi = acs.random_tangent(J, seed)
        assert abs(float(np.sum(residual * psi))) < 1e-10 * maxabs(A)


def test_project_tangent_of_a_stack_has_the_bits_of_each_slice():
    J = acs.random_j(3, 2)
    A = np.random.default_rng(4).standard_normal((5, 6, 6))
    stack = acs.project_tangent(J, A)
    assert stack.shape == (5, 6, 6)
    for phi, a in zip(stack, A):
        assert phi.tobytes() == acs.project_tangent(J, a).tobytes()
    with pytest.raises(OddDimension):
        acs.project_tangent(J, A[:, :4, :4])


def test_tangent_invariants_hold():
    for seed in range(100):
        J = acs.random_j(2, seed)
        phi = acs.random_tangent(J, seed + 1)
        assert maxabs(phi + phi.T) < 1e-12
        assert maxabs(phi @ J.mat + J.mat @ phi) < 1e-12


# -- exp, log, distance -------------------------------------------------------

def test_exp_map_at_zero_time():
    J = acs.random_j(2, 4)
    phi = acs.random_tangent(J, 1)
    assert same_point(acs.exp_map(J, phi, 0.0), J)


def test_exp_map_zero_tangent():
    J = acs.random_j(2, 4)
    z = np.zeros((4, 4))
    assert same_point(acs.exp_map(J, z, 2.7), J)


def test_exp_map_output_is_valid():
    for seed in range(50):
        for n in (1, 2, 3):
            J = acs.random_j(n, seed)
            phi = (acs.random_tangent(J, seed + 7, 0.8) if n > 1
                   else np.zeros((2, 2)))
            acs.validate_j(acs.exp_map(J, phi, 1.0).mat)


def test_exp_map_unit_speed():
    J = acs.canonical_j(2)
    phi = acs.random_tangent(J, 12)
    for t in (0.1, 0.3):
        assert acs.distance(J, acs.exp_map(J, phi, t)) == pytest.approx(t, abs=1e-8)


def test_log_map_at_same_point():
    J = acs.random_j(2, 6)
    assert np.linalg.norm(acs.log_map(J, J)[0]) < 1e-12


def test_log_map_recovers_tangent():
    J1 = acs.canonical_j(2)
    phi = acs.random_tangent(J1, 21, 0.4)
    J2 = acs.exp_map(J1, phi, 1.0)
    back = acs.log_map(J1, J2)
    assert maxabs(back[0] - phi) < 1e-9


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


def _gees_log_map(A, B):
    """One pair (A, B) through the log map as it ran on LAPACK gees: the
    real Schur form from scipy.linalg.schur, a scalar walk over its blocks
    and a scipy.linalg.expm round trip, with the kernel's checks in their
    order.  Returns (tangent, None) or (None, error)."""
    R = -B @ A
    if not np.isfinite(R).all():
        return None, ValueError("array must not contain infs or NaNs")
    T, Q = scipy.linalg.schur(R, output="real")
    d = len(R)
    L = np.zeros((d, d))
    i = 0
    while i < d:
        if i + 1 < d and abs(T[i + 1, i]) > 1e-12:
            c = 0.5 * (T[i, i] + T[i + 1, i + 1])
            s = 0.5 * (T[i + 1, i] - T[i, i + 1])
            theta = np.arctan2(s, c)
            if np.pi - abs(theta) < 1e-8:
                return None, CutLocusError("rotation angle at pi: principal log undefined")
            L[i, i + 1] = -theta
            L[i + 1, i] = theta
            i += 2
        else:
            if T[i, i] < 0.0:
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


def _gees_bound(A, B):
    """How far the eigh kernel's tangent of the pair (A, B) may lie from the
    gees kernel's: 1e-13, and 5e-15 / (pi - theta) for the largest rotation
    angle theta of R = B A^{-1} closer to pi, where both kernels are
    ill-conditioned (measured 1.0e-13 at pi - 1e-2, 1.7e-12 at pi - 1e-3
    and 1.2e-9 at pi - 1e-6)."""
    theta = float(np.max(np.abs(np.angle(np.linalg.eigvals(-B @ A)))))
    return max(1e-13, 5e-15 / (np.pi - theta))


def _scipy_exp_map(J, phi, t):
    X = -0.5 * phi @ J.mat
    E = scipy.linalg.expm(t * X)
    return E @ J.mat @ E.T


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2**20),
       size=st.integers(1, 7), radius=st.floats(0.05, 1.2))
def test_stacked_log_maps_match_single_pairs(n, seed, size, radius):
    """Each slice of exp_maps, log_map, distance and distance_or_inf on a
    stack has the bits of the same call on its (d, d) pair, on seeded
    same-component pairs: one base broadcast against a stack, and a stack
    of pairs of distinct points (with one same-point pair).  The geodesic
    lies within 1e-13 of scipy's expm and the tangent within 1e-13 of the
    gees log map (rotation angles below 1.2 here)."""
    rng = np.random.default_rng(seed)
    base = acs.random_j(n, seed)
    phi = acs.random_tangent(base, seed + 1)
    ts = rng.uniform(-radius, radius, size)
    mats = acs.exp_maps(base, phi, ts)
    for k, t in enumerate(ts):
        assert mats[k].tobytes() == acs.exp_map(base, phi, t).mat.tobytes()
        assert maxabs(mats[k] - _scipy_exp_map(base, phi, t)) <= 1e-13
    pts = [acs.exp_map(base, acs.random_tangent(base, int(rng.integers(2**31)), r), 1.0)
           for r in rng.uniform(0.01, radius, size)] + [base]
    B = np.stack([q.mat for q in pts])
    A = B[rng.permutation(len(pts))]
    A[-1] = B[-1]
    for J1s, firsts in ((base.mat, [base] * len(pts)),
                        (A, [acs.OrthoComplexStructure(a) for a in A])):
        logs = acs.log_map(J1s, B)
        dists = acs.distance(J1s, B)
        assert acs.distance_or_inf(J1s, B).tobytes() == dists.tobytes()
        for k, (J1, J2) in enumerate(zip(firsts, pts)):
            assert logs[k].tobytes() == acs.log_map(J1, J2)[0].tobytes()
            assert maxabs(logs[k] - _gees_log_map(J1.mat, J2.mat)[0]) <= 1e-13
            assert dists[k] == acs.distance(J1, J2)


def test_distance_of_one_pair_is_a_float():
    """A (d, d) pair, as matrices or structures, gives a Python float with
    the value of slice 0 of its N = 1 stack."""
    J1 = acs.random_j(2, 3)
    for J2 in (acs.exp_map(J1, acs.random_tangent(J1, 4, 0.6), 1.0), J1):
        for fn in (acs.distance, acs.distance_or_inf):
            d = fn(J1, J2)
            assert type(d) is float
            assert repr(d) == repr(float(fn(J1.mat[None], J2.mat[None])[0]))
            assert repr(fn(J1.mat, J2.mat)) == repr(d)
    assert acs.distance_or_inf(J1, -J1.mat) == math.inf


def test_stacked_log_maps_raise_for_the_first_failing_pair():
    J = acs.canonical_j(2)
    near = acs.exp_map(J, acs.random_tangent(J, 1, 0.3), 1.0).mat
    antipode = -J.mat                                 # on J's cut locus
    R = np.diag([-1.0, 1.0, 1.0, 1.0])
    other = R @ J.mat @ R                             # the other component
    twisted = scipy.linalg.expm(0.3 * J.mat) @ J.mat  # log commutes with J
    with pytest.raises(CutLocusError):
        acs.log_map(J.mat, np.stack([near, antipode, twisted]))
    with pytest.raises(ComponentMismatch):
        acs.log_map(J.mat, np.stack([near, twisted, antipode]))
    with pytest.raises(CutLocusError):
        acs.distance(J.mat, np.stack([J.mat, near, other, twisted]))
    dists = acs.distance_or_inf(J.mat, np.stack([near, antipode, other, twisted, J.mat]))
    assert dists.tolist() == [acs.distance(J, acs.OrthoComplexStructure(near)),
                              math.inf, math.inf, math.inf, 0.0]
    for bad in (antipode, other, twisted):
        assert acs.distance_or_inf(J, acs.OrthoComplexStructure(bad)) == math.inf
    # errors other than the cut locus and a component mismatch still raise
    with pytest.raises(ValueError):
        acs.distance_or_inf(J.mat, np.stack([antipode, np.full((4, 4), np.nan)]))


def test_stacked_kernels_accept_an_empty_stack():
    J = acs.canonical_j(2)
    empty = np.empty((0, 4, 4))
    assert acs.log_map(J.mat, empty).shape == (0, 4, 4)
    assert acs.distance(J.mat, empty).shape == (0,)
    assert acs.distance_or_inf(empty, J.mat).shape == (0,)
    assert acs.conjugate(empty, J).shape == (0, 4, 4)
    assert acs.exp_maps(J, acs.random_tangent(J, 0), []).shape == (0, 4, 4)



def _branch_stack(n):
    """A base structure J, a stack of second points that reaches every
    branch of the log-map kernel, and how each slice is held to the gees
    kernel.  The points: good pairs (one with rotation angles past pi/2),
    -J, the other component, a rotation angle within 1e-9 of pi, a twisted
    J whose log commutes with J, 2J (R = 2I: X = 0 passes the
    anticommutation and skew checks and only the round trip rejects it),
    NaN, J itself, J moved by 1e-12, and two Gaussian matrices.  Every slice
    whose R is orthogonal, and 2J, is "exact": the gees error, or a tangent
    within _gees_bound.  J + 1e-12 is "nudged", a tangent within 1e-11.  A
    Gaussian R is not normal and its log is not a tangent; each Gaussian
    slice is "either", a CutLocusError or a ComponentMismatch."""
    J = acs.random_j(n, 3)
    d = 2 * n
    flip = np.eye(d)
    flip[0, 0] = -1.0
    phi = acs.random_tangent(J, 4)
    omega = float(np.max(np.abs(np.linalg.eigvals(-phi @ J.mat))))  # top angle at t = 1
    rng = np.random.default_rng(n)
    mats = [acs.exp_map(J, acs.random_tangent(J, 10 + k, r), 1.0).mat
            for k, r in enumerate((0.2, 0.7, 2.4, 4.0))]
    mats += [-J.mat, flip @ J.mat @ flip, acs.exp_map(J, phi, (np.pi - 1e-9) / omega).mat,
             scipy.linalg.expm(0.3 * J.mat) @ J.mat, 2.0 * J.mat, np.full((d, d), np.nan),
             J.mat, J.mat + 1e-12, rng.standard_normal((d, d)), rng.standard_normal((d, d))]
    return J, np.stack(mats), ["exact"] * 11 + ["nudged", "either", "either"]


def _same_error(a, b):
    return type(a) is type(b) and str(a) == str(b)


@pytest.mark.parametrize("n", [2, 3])
def test_log_kernel_matches_the_per_slice_kernel(n):
    """Every slice of the stacked kernel has the tangent bytes and the error
    (type and message) of its own N = 1 call, and is held to the gees
    kernel as _branch_stack says; log_map, distance and distance_or_inf
    raise the kernel's first error or return its bytes, over shuffled mixed
    stacks in both argument orders."""
    J, mats, kinds = _branch_stack(n)
    seen = set()
    for perm in range(6):
        order = np.random.default_rng(perm).permutation(len(mats))
        B = mats[order]
        for A, Bs in ((np.broadcast_to(J.mat, B.shape), B), (B, np.broadcast_to(J.mat, B.shape))):
            tangents, errors = acs._log_stack(A, Bs)
            for a, b, t, e, kind in zip(A, Bs, tangents, errors, (kinds[k] for k in order)):
                [t1], [e1] = acs._log_stack(a[None], b[None])
                assert t.tobytes() == t1.tobytes() and (e is e1 is None or _same_error(e, e1))
                ref_t, ref_e = _gees_log_map(a, b)
                if kind == "either":
                    assert isinstance(e, (CutLocusError, ComponentMismatch))
                elif ref_e is not None:
                    assert _same_error(e, ref_e)
                else:
                    assert e is None
                    tol = 1e-11 if kind == "nudged" else _gees_bound(a, b)
                    assert maxabs(t - ref_t) <= tol
                if e is not None:
                    assert np.isnan(t).all()
                    seen.add(str(e))
            far = [not maxabs(a - b) <= acs.TOL_ALG for a, b in zip(A, Bs)]
            norms = [math.inf if e is not None else float(np.linalg.norm(t))
                     for t, e in zip(tangents, errors)]
            for fn, tolerated, skip_same in (
                    (acs.log_map, (), False), (acs.distance, (), True),
                    (acs.distance_or_inf, (CutLocusError, ComponentMismatch), True)):
                first = next((e for e, f in zip(errors, far)
                              if e is not None and not isinstance(e, tolerated)
                              and (f or not skip_same)), None)
                if first is not None:
                    with pytest.raises(type(first)) as exc:
                        fn(A, Bs)
                    assert str(exc.value) == str(first)
                elif fn is acs.distance_or_inf:
                    want = np.array([d if f else 0.0 for d, f in zip(norms, far)])
                    assert fn(A, Bs).tobytes() == want.tobytes()
            good = [k for k, e in enumerate(errors) if e is None]
            assert acs.log_map(A[good], Bs[good]).tobytes() == tangents[good].tobytes()
            assert acs.distance(A[good], Bs[good]).tobytes() == \
                np.array([norms[k] if far[k] else 0.0 for k in good]).tobytes()
    assert seen == {
        "array must not contain infs or NaNs",
        "rotation angle at pi: principal log undefined",
        "eigenvalue -1: principal log undefined",
        "log generator does not anticommute with the base structure; "
        "the two structures lie in different components",
        "log round-trip failed to reproduce the target"}
    empty = np.empty((0, 2 * n, 2 * n))
    tangents, errors = acs._log_stack(empty, empty)
    assert tangents.shape == empty.shape and errors == []


def _rescaled_pair(n, seed, angles):
    """A structure A = random_j(n, seed) and B = e^X A e^{-X} whose rotation
    R = B A^{-1} = e^{2X} has the given angles: X = -phi A / 2 for a seeded
    tangent phi, with its eigenvalues +-i mu, grouped by modulus in
    ascending order, rescaled to +-i angles[k] / 2 (each modulus is kept
    with its sign, so X still anticommutes with A)."""
    A = acs.random_j(n, seed).mat
    X = -0.5 * acs.random_tangent(acs.OrthoComplexStructure(A), seed + 1) @ A
    w, V = np.linalg.eigh(-1j * X)
    levels = np.unique(np.round(np.abs(w), 9))
    assert len(levels) == len(angles)
    half = np.zeros_like(w)
    for level, angle in zip(levels, angles):
        at = np.abs(np.abs(w) - level) < 1e-8
        half[at] = 0.5 * angle * np.sign(w[at])
    E = ((V * np.exp(1j * half)) @ V.conj().T).real  # e^X
    return A, E @ A @ E.T


def _collision_angles(alpha, theta=0.5):
    """Two rotation angles with the same sin + alpha cos: a Hermitian eigh of
    -i skew(R) + alpha sym(R) gives them one eigenvalue and mixes their
    eigenvectors."""
    return theta, np.pi - theta - 2.0 * math.atan(alpha)


# alphas of that Hermitian matrix whose collisions the panels below cover
_COLLISION_ALPHAS = (0.6180339887498949, 0.36787944117144233)


def test_log_kernel_tangents_stay_within_the_bound_of_gees():
    """A seeded panel of same-component pairs, one stack per n: random pairs
    at n = 2, 3 and 4 and distances 0.1-2.5, identical pairs, top angles at
    pi - 1e-1 ... pi - 1e-6, and at n = 4 repeated angles and the angle
    pairs of _collision_angles for both _COLLISION_ALPHAS.  Every tangent
    lies within _gees_bound of the gees kernel's, and an identical pair
    reads exactly 0."""
    for n in (2, 3, 4):
        pairs, same = [], []
        for seed in range(100):
            J = acs.random_j(n, seed)
            r = np.random.default_rng(seed).uniform(0.1, 2.5)
            pairs.append((J.mat, acs.exp_map(J, acs.random_tangent(J, seed + 1000, r), 1.0).mat))
        for seed in range(5):
            J = acs.random_j(n, seed)
            same.append(len(pairs))
            pairs.append((J.mat, J.mat))
            phi = acs.random_tangent(J, seed + 7)
            omega = float(np.max(np.abs(np.linalg.eigvals(-phi @ J.mat))))
            pairs += [(J.mat, acs.exp_map(J, phi, (np.pi - eps) / omega).mat)
                      for eps in (1e-1, 1e-2, 1e-3, 1e-6)]
            if n == 4:
                pairs += [_rescaled_pair(4, seed, angles) for angles in
                          ((1.0, 1.0), (2.5, 2.5), (0.3, 3.0))]
                pairs += [_rescaled_pair(4, seed, _collision_angles(alpha))
                          for alpha in _COLLISION_ALPHAS]
        A, B = np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs])
        tangents = acs.log_map(A, B)
        for a, b, t in zip(A, B, tangents):
            ref, error = _gees_log_map(a, b)
            assert error is None
            assert maxabs(t - ref) <= _gees_bound(a, b)
        assert not tangents[same].any()


def test_log_and_exp_kernels_make_one_real_eigh_call(monkeypatch):
    """log_map and distance_or_inf run one batched real eigh on the float64
    (N, d, d) stack (the slices that are not the same point, for distance),
    repeated and colliding angles included; exp_maps runs one real (d, d)
    eigh for every time.  No complex array reaches eigh, and none of them
    calls scipy."""
    J = acs.random_j(2, 5)
    good = [acs.exp_map(J, acs.random_tangent(J, k, 0.5), 1.0).mat for k in range(28)]
    mats = np.stack(good + [J.mat] * 6 + [np.full((4, 4), np.nan)] * 3 + [-J.mat] * 3)
    mats = mats[np.random.default_rng(0).permutation(40)]
    A4, B4 = zip(*[_rescaled_pair(4, seed, angles) for seed in range(6) for angles in
                   ((0.4, 1.1), _collision_angles(_COLLISION_ALPHAS[0]))])
    eigh = np.linalg.eigh
    calls = []

    def counting_eigh(a, *args, **kwargs):
        calls.append((np.shape(a), np.asarray(a).dtype))
        return eigh(a, *args, **kwargs)

    def no_scipy(*args, **kwargs):
        raise AssertionError("a kernel called scipy")

    def real(*shape):
        return [(shape, np.dtype(np.float64))]

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(scipy.linalg, "expm", no_scipy)
    monkeypatch.setattr(scipy.linalg, "schur", no_scipy)
    acs.log_map(J.mat, np.stack(good + good[:12]))
    assert calls == real(40, 4, 4)
    for fn, want in ((acs.log_map, 40), (acs.distance, 34), (acs.distance_or_inf, 34)):
        calls.clear()
        with pytest.raises((ValueError, CutLocusError)):
            fn(J.mat, mats)
        assert calls == real(want, 4, 4)
    calls.clear()
    dists = acs.distance_or_inf(J.mat, mats[~np.isnan(mats).any(axis=(1, 2))])
    assert calls == real(31, 4, 4)
    assert (dists == 0.0).sum() == 6 and np.isinf(dists).sum() == 3
    calls.clear()
    acs.log_map(np.stack(A4), np.stack(B4))
    assert calls == real(12, 8, 8)
    calls.clear()
    acs.exp_maps(J, acs.random_tangent(J, 0), np.linspace(-1.0, 1.0, 9))
    assert calls == real(4, 4)


def _complex_exp_maps(J, phi, ts):
    """exp_maps through a Hermitian eigh of -i X, X = -phi J / 2: X = V diag(i w)
    V^H and e^{tX} = V diag(e^{i t w}) V^H."""
    X = -0.5 * phi @ J.mat
    w, V = np.linalg.eigh(-1j * X)
    phases = np.exp(1j * np.multiply.outer(np.asarray(ts, dtype=float), w))
    E = ((V * phases[:, None, :]) @ V.conj().T).real
    return E @ J.mat @ E.transpose(0, 2, 1)


def _square_defect(mats):
    """The largest max-abs entry of J^2 + I over a stack."""
    return maxabs(mats @ mats + np.eye(mats.shape[-1]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exp_kernel_matches_the_complex_kernel(n):
    """Over 60 seeded tangents of norm up to 3 and times up to 1.5 in
    modulus, exp_maps lies within 1e-13 of the Hermitian-eigh kernel, and
    its largest J^2 + I defect is at most that kernel's plus 1e-15."""
    worst = worst_ref = 0.0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        J = acs.random_j(n, seed)
        phi = acs.random_tangent(J, seed + 100, rng.uniform(0.01, 3.0))
        ts = rng.uniform(-1.5, 1.5, 7)
        mats, ref = acs.exp_maps(J, phi, ts), _complex_exp_maps(J, phi, ts)
        assert maxabs(mats - ref) <= 1e-13
        worst, worst_ref = max(worst, _square_defect(mats)), max(worst_ref, _square_defect(ref))
    assert worst <= worst_ref + 1e-15


def test_exp_kernel_of_a_tangent_skew_only_to_1e_14():
    """A tangent whose skew defect is 1e-14 (phi + 1e-14 N for a Gaussian N)
    still gives a geodesic with J^2 + I within 1e-14: the kernel takes the
    skew part of X first."""
    for n in (2, 3, 4, 5):
        for seed in range(20):
            J = acs.random_j(n, seed)
            phi = acs.random_tangent(J, seed + 100, 1.5)
            noise = np.random.default_rng(seed).standard_normal(phi.shape)
            nudged = phi + 1e-14 * noise / maxabs(noise)
            assert _square_defect(acs.exp_maps(J, nudged, np.linspace(-1.5, 1.5, 7))) <= 1e-14

# -- conjugation --------------------------------------------------------------

def test_conjugate_identity():
    J = acs.random_j(2, 13)
    assert same_point(acs.OrthoComplexStructure(acs.conjugate(np.eye(4), J)), J)


def test_conjugate_by_self():
    J = acs.random_j(2, 13)
    assert maxabs(acs.conjugate(J.mat, J) - J.mat) <= 1e-12


def test_conjugate_rejects_non_orthogonal():
    with pytest.raises(NotOrthogonalGroupElement):
        acs.conjugate(2.0 * np.eye(4), acs.canonical_j(2))


def test_stacked_conjugates_match_single_calls():
    J = acs.random_j(2, 13)
    Qs = np.stack([np.linalg.qr(np.random.default_rng(k).standard_normal((4, 4)))[0]
                   for k in range(5)])
    conj = acs.conjugate(Qs, J)
    for Q, C in zip(Qs, conj):
        assert C.tobytes() == acs.conjugate(Q, J).tobytes()
    # the first non-orthogonal slice is reported: 2I has Q^T Q - I = 3I
    with pytest.raises(NotOrthogonalGroupElement, match="3.000e"):
        acs.conjugate(np.stack([Qs[0], 2.0 * np.eye(4), 3.0 * np.eye(4)]), J)


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
    Xa = -0.5 * phi @ J.mat
    Xb = -0.5 * psi @ J.mat
    assert maxabs(Xa @ Xb - Xb @ Xa) < 1e-14
    assert np.linalg.norm(phi) > 0.5 and np.linalg.norm(psi) > 0.5
    assert one_plane_curvature(J, phi, psi) == pytest.approx(0.0, abs=1e-12)


def test_sectional_curvature_constant_for_n2(delta4):
    """For n = 2 each component is a round 2-sphere of radius 2."""
    J = acs.canonical_j(2)
    for seed in range(30):
        phi = acs.random_tangent(J, seed)
        psi = acs.random_tangent(J, seed + 1000)
        c = acs.metric_inner(phi, psi)
        psi = psi - c * phi
        if np.linalg.norm(psi) < 1e-6:
            continue
        k = one_plane_curvature(J, phi, (1.0 / np.linalg.norm(psi)) * psi)
        assert k == pytest.approx(0.25, abs=1e-10)
    # the estimated upper bound must cover the true constant curvature
    assert delta4.epsilon_used >= 0.25


def test_sectional_curvature_conjugation_invariant():
    J = acs.canonical_j(3)
    phi = acs.random_tangent(J, 2)
    psi = acs.random_tangent(J, 3)
    k0 = one_plane_curvature(J, phi, psi)
    rng = np.random.default_rng(9)
    M = rng.standard_normal((6, 6))
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))
    Jq = acs.OrthoComplexStructure(acs.conjugate(Q, J))
    phiq = Q.T @ phi @ Q
    psiq = Q.T @ psi @ Q
    assert one_plane_curvature(Jq, phiq, psiq) == pytest.approx(k0, abs=1e-9)


def test_sectional_curvature_degenerate_plane():
    J = acs.canonical_j(2)
    phi = acs.random_tangent(J, 0)
    with pytest.raises(DegeneratePlane):
        one_plane_curvature(J, phi, 2.0 * phi)


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
        psi = psi - c * phi
        psi = (1.0 / np.linalg.norm(psi)) * psi
        k_formula = one_plane_curvature(J, phi, psi)

        eps = 1e-4

        def deviation(t):
            base = acs.exp_map(J, phi, t)
            mixed = phi + eps * psi
            off = acs.exp_map(J, mixed, t / np.linalg.norm(mixed) * 1.0)
            # re-scale to arc length t along the mixed geodesic
            off = acs.exp_map(J, (1.0 / np.linalg.norm(mixed)) * mixed, t)
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
        assert np.linalg.norm(tangential) < 1e-5


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
    assert np.linalg.norm(phi) == pytest.approx(0.7, abs=1e-12)


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
        assert np.array_equal(phi, acs.random_tangent(J, seed, norm))
    assert acs.random_tangents(J, [], norm).shape == (0, 2 * n, 2 * n)


def test_transitivity_constructive():
    """For same-component pairs an orthogonal conjugator exists.

    Built from the log: Q = e^X maps J1 to J2 when X = log generator.
    """
    for seed in range(10):
        J1 = acs.random_j(2, seed)
        J2 = acs.exp_map(J1, acs.random_tangent(J1, seed + 30, 0.9), 1.0)
        phi = acs.log_map(J1, J2)[0]
        import scipy.linalg
        Q = scipy.linalg.expm(-0.5 * phi @ J1.mat).T
        assert maxabs(acs.conjugate(Q, J1) - J2.mat) < 1e-8
