"""The space of metric-compatible almost complex structures on R^{2n}.

A point is a real 2n x 2n matrix J with J^2 = -I and J^T J = I.  The set of
all such J is a compact homogeneous space: the orthogonal group acts
transitively by conjugation, and the stabilizer of a point is a unitary
group.  Tangent vectors at J are matrices phi with phi J = -J phi and
phi^T = -phi, carrying the inner product tr(phi psi^T).

Geodesics are one-parameter conjugation orbits: writing X = -phi J / 2
(a skew matrix anticommuting with J), the geodesic through J with initial
velocity phi is t -> e^{tX} J e^{-tX}.  The inverse map uses the principal
logarithm of the orthogonal matrix J2 J1^{-1}.

The space has two connected components (orientation classes); all distance
and averaging operations are per-component, and cross-component requests
raise ComponentMismatch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
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

TOL_ALG = 1e-10   # algebraic invariants (J^2 = -I, orthogonality, skewness)
TOL_LOG = 1e-8    # log-map round-trip verification
TOL_CUT = 1e-8    # rotation angle this close to pi: on the cut locus
TOL_BLOCK = 1e-12 # Schur subdiagonal entry that opens a 2x2 rotation block


def _maxabs(a: np.ndarray) -> float:
    """Max-abs entry; inf when any entry is NaN, so every `> tol` check rejects it."""
    m = float(np.max(np.abs(a))) if a.size else 0.0
    return math.inf if math.isnan(m) else m


@dataclass(frozen=True, eq=False)
class OrthoComplexStructure:
    """A metric-compatible almost complex structure: J^2 = -I, J^T J = I."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", np.array(self.mat, dtype=float))
        self.mat.setflags(write=False)

    def __array__(self, dtype=None, copy=None):
        """The matrix, so that numpy reads a structure as its (d, d) array."""
        return np.array(self.mat, dtype=dtype, copy=copy)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def n(self) -> int:
        return self.dim // 2

    def same_point(self, other: "OrthoComplexStructure") -> bool:
        return self.dim == other.dim and _maxabs(self.mat - other.mat) <= TOL_ALG


@dataclass(frozen=True, eq=False)
class TangentPhi:
    """A tangent vector at ``base``: skew and anticommuting with base.mat."""

    base: OrthoComplexStructure
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", np.array(self.mat, dtype=float))
        self.mat.setflags(write=False)

    def norm(self) -> float:
        """Riemannian norm sqrt(tr(phi phi^T)) = Frobenius norm."""
        return float(np.linalg.norm(self.mat))


def canonical_j(n: int) -> OrthoComplexStructure:
    """Block-diagonal J0 with n copies of [[0, -1], [1, 0]]."""
    if n < 1:
        raise OddDimension("n must be >= 1")
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    return OrthoComplexStructure(np.kron(np.eye(n), block))


def validate_j(mat: np.ndarray, tol: float = TOL_ALG) -> OrthoComplexStructure:
    """Wrap ``mat`` after checking both defining invariants within ``tol``."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 != 0:
        raise OddDimension(f"need an even-sized square matrix, got {mat.shape}")
    d = mat.shape[0]
    sq_defect = _maxabs(mat @ mat + np.eye(d))
    if sq_defect > tol:
        raise NotAComplexStructure(f"J^2 + I has max-abs entry {sq_defect:.3e}")
    orth_defect = _maxabs(mat.T @ mat - np.eye(d))
    if orth_defect > tol:
        raise NotOrthogonal(f"J^T J - I has max-abs entry {orth_defect:.3e}")
    return OrthoComplexStructure(mat)


def metric_inner(phi: TangentPhi, psi: TangentPhi) -> float:
    """Inner product tr(phi psi^T) of two tangents at the same base point."""
    if not phi.base.same_point(psi.base):
        raise BasePointMismatch("tangents live at different base points")
    return float(np.sum(phi.mat * psi.mat))


def project_tangent(J: OrthoComplexStructure, A: np.ndarray) -> TangentPhi:
    """Frobenius-orthogonal projection of an arbitrary matrix onto T_J.

    Skew-symmetrize, then keep the J-anticommuting half.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != J.mat.shape:
        raise OddDimension(f"shape mismatch: {A.shape} vs {J.mat.shape}")
    return TangentPhi(J, _project(J, A))


def _project(J: OrthoComplexStructure, A: np.ndarray) -> np.ndarray:
    """The projection of project_tangent on a (d, d) or (N, d, d) array."""
    S = 0.5 * (A - A.swapaxes(-1, -2))
    return 0.5 * (S + J.mat @ S @ J.mat)


def exp_maps(J: OrthoComplexStructure, phi: TangentPhi, ts) -> np.ndarray:
    """Stacked exp_map: the geodesic e^{tX} J e^{-tX}, X = -phi J / 2, at
    every time in ``ts``, as an (N, d, d) array (slice k is exp_map(J, phi, ts[k]))."""
    if not phi.base.same_point(J):
        raise BasePointMismatch("tangent is not based at J")
    X = -0.5 * phi.mat @ J.mat
    E = scipy.linalg.expm(np.asarray(ts, dtype=float)[:, None, None] * X)
    return E @ J.mat @ E.transpose(0, 2, 1)


def exp_map(J: OrthoComplexStructure, phi: TangentPhi, t: float = 1.0) -> OrthoComplexStructure:
    """Geodesic e^{tX} J e^{-tX} with X = -phi J / 2."""
    return OrthoComplexStructure(exp_maps(J, phi, (t,))[0])


def _maxabs_each(a: np.ndarray) -> np.ndarray:
    """Per-slice _maxabs of an (N, d, d) stack."""
    m = np.max(np.abs(a), axis=(1, 2))
    m[np.isnan(m)] = math.inf
    return m


def _pair_stacks(J1s, J2s):
    """Two (d, d) or (N, d, d) arrays as (N, d, d) stacks of one shape."""
    A = np.asarray(J1s, dtype=float)
    B = np.asarray(J2s, dtype=float)
    if A.shape[-2:] != B.shape[-2:]:
        raise OddDimension("dimension mismatch")
    A = A[None] if A.ndim == 2 else A
    B = B[None] if B.ndim == 2 else B
    if A.shape != B.shape:
        A, B = np.broadcast_arrays(A, B)
    return A, B


def _no_sort(x, y=None):
    return None


@functools.lru_cache(maxsize=None)
def _gees(d: int):
    """LAPACK real Schur routine for d x d matrices and its workspace size,
    queried as scipy.linalg.schur queries it."""
    a = np.zeros((d, d))
    gees, = scipy.linalg.lapack.get_lapack_funcs(("gees",), (a,))
    return gees, gees(_no_sort, a, lwork=-1)[-2][0].real.astype(np.int_)


def _log_stack(A: np.ndarray, B: np.ndarray):
    """The log map of every slice pair (A[k], B[k]) of two (N, d, d) stacks.

    X = (1/2) log(B A^{-1}) is the principal logarithm of the orthogonal
    matrix R = B A^{-1}; a rotation angle of R at pi has none
    (CutLocusError).  X must then be skew, anticommute with A and reproduce
    B; otherwise the two structures lie in different components
    (ComponentMismatch).  Each slice runs these checks in this order and
    keeps its first error.  The real Schur form R = Q T Q^T is computed per
    slice with LAPACK gees, as scipy.linalg.schur computes it (non-finite
    input is a ValueError, non-convergence a LinAlgError); the rest runs on
    the stack.  For orthogonal R, T is block diagonal with 1x1 blocks +-1
    and 2x2 rotation blocks, so the principal log is Q L Q^T with the
    blocks' angles in L, and the round trip uses e^X = Q e^{L/2} Q^T
    (Higham, Functions of Matrices, ch. 11).

    Returns the (N, d, d) tangents 2 X A (NaN where a slice failed) and a
    list of N entries, each None or the error of that slice.
    """
    N, d = A.shape[0], A.shape[-1]
    errors = [None] * N
    R = -B @ A  # B A^{-1}, using A^{-1} = -A
    finite = np.isfinite(R).all(axis=(1, 2))
    gees, lwork = _gees(d)
    T = np.zeros((N, d, d))
    Q = np.zeros((N, d, d))
    for k in range(N):
        if not finite[k]:
            errors[k] = ValueError("array must not contain infs or NaNs")
            continue
        res = gees(_no_sort, R[k], lwork=lwork)  # (T, sdim, wr, wi, Z, work, info)
        T[k], Q[k] = res[0], res[-3]
        if res[-1] > 0:
            errors[k] = np.linalg.LinAlgError(
                "Schur form not found. Possibly ill-conditioned.")

    # T is read at every candidate 2x2 block position i (rows i, i + 1).  A
    # subdiagonal entry opens a rotation block unless row i closes one; every
    # other diagonal entry is a 1x1 block, +1 or -1.
    diag, sub, sup = T.diagonal(0, 1, 2), T.diagonal(-1, 1, 2), T.diagonal(1, 1, 2)
    start = np.abs(sub) > TOL_BLOCK
    for i in range(1, d - 1):
        start[:, i] &= ~start[:, i - 1]
    c = 0.5 * (diag[:, :-1] + diag[:, 1:])
    s = 0.5 * (sub - sup)
    theta = np.where(start, np.arctan2(s, c), 0.0)
    at_pi = np.pi - np.abs(theta) < TOL_CUT  # theta is 0 off the block starts
    # the flat (N, d*d) views hold the diagonal at ::d+1, the superdiagonal
    # at 1::d+1 and the subdiagonal at d::d+1
    L = np.zeros((N, d, d))
    flat = L.reshape(N, d * d)
    flat[:, 1::d + 1] = np.where(start, -theta, 0.0)
    flat[:, d::d + 1] = theta
    X = 0.5 * (Q @ L @ Q.transpose(0, 2, 1))
    # e^X = Q e^{L/2} Q^T, with the cos and sin of each block's half angle
    # in e^{L/2} and 1 on the rest of its diagonal
    half_theta = 0.5 * theta
    cos, sin = np.cos(half_theta), np.sin(half_theta)
    exp_half = np.zeros((N, d, d))
    flat = exp_half.reshape(N, d * d)
    flat[:, ::d + 1] = 1.0
    flat[:, :-1:d + 1] *= cos
    flat[:, d + 1::d + 1] *= cos
    flat[:, 1::d + 1] = -sin
    flat[:, d::d + 1] = sin
    E = Q @ exp_half @ Q.transpose(0, 2, 1)

    # per slice, True where each check fails, in the order they run: the
    # scan (at each diagonal position, a rotation angle at pi or an
    # eigenvalue -1 in a 1x1 block), then anticommutation, skewness and the
    # round trip (a NaN max-abs entry fails, as in _maxabs_each)
    scan = diag < 0.0
    not_start = ~start
    scan[:, :-1] &= not_start
    scan[:, 1:] &= not_start
    scan[:, :-1] |= at_pi
    checks = np.array((X @ A + A @ X, X + X.transpose(0, 2, 1),
                       E @ A @ E.transpose(0, 2, 1) - B))
    fails = np.concatenate((scan, ~(np.abs(checks).max(axis=(2, 3)).T <= TOL_LOG)), axis=1)
    for k in fails.any(axis=1).nonzero()[0]:
        if errors[k] is not None:
            continue
        i = np.argmax(fails[k])  # the first failing check
        if i < d - 1 and at_pi[k, i]:
            errors[k] = CutLocusError("rotation angle at pi: principal log undefined")
        elif i < d:
            errors[k] = CutLocusError("eigenvalue -1: principal log undefined")
        elif i < d + 2:
            errors[k] = ComponentMismatch(
                "log generator does not anticommute with the base structure; "
                "the two structures lie in different components")
        else:
            errors[k] = ComponentMismatch("log round-trip failed to reproduce the target")
    tangents = 2.0 * X @ A
    tangents[[k for k in range(N) if errors[k] is not None]] = math.nan
    return tangents, errors


def _first_error(errors, tolerated=()):
    """Raise the first error in slice order that is not of a tolerated type."""
    for exc in errors:
        if exc is not None and not isinstance(exc, tolerated):
            raise exc


def log_maps(J1s, J2s) -> np.ndarray:
    """Stacked log map: slice k is log_map(J1s[k], J2s[k]).mat.

    ``J1s`` and ``J2s`` are (d, d) or (N, d, d) matrix stacks that broadcast
    together.  Raises the error of the first failing pair.
    """
    tangents, errors = _log_stack(*_pair_stacks(J1s, J2s))
    _first_error(errors)
    return tangents


def log_map(J1: OrthoComplexStructure, J2: OrthoComplexStructure) -> TangentPhi:
    """Inverse of exp_map: the tangent phi at J1 with exp_map(J1, phi, 1) = J2
    (the single-pair case of log_maps)."""
    return TangentPhi(J1, log_maps(J1.mat, J2.mat)[0])


def _distances(J1s, J2s, tolerated) -> np.ndarray:
    A, B = _pair_stacks(J1s, J2s)
    out = np.zeros(len(A))
    far = np.flatnonzero(~(np.max(np.abs(A - B), axis=(1, 2)) <= TOL_ALG))
    tangents, errors = _log_stack(A[far], B[far])
    _first_error(errors, tolerated)
    flat = tangents.reshape(len(far), A.shape[-1] ** 2)
    norms = np.sqrt(np.vecdot(flat, flat))  # the bits of np.linalg.norm per slice
    norms[[k for k, exc in enumerate(errors) if exc is not None]] = math.inf
    out[far] = norms
    return out


def distances(J1s, J2s) -> np.ndarray:
    """Stacked distance: slice k is distance(J1s[k], J2s[k]); pairs that are
    the same point read 0 without a log map.  Raises the error of the first
    failing pair."""
    return _distances(J1s, J2s, ())


def distances_or_inf(J1s, J2s) -> np.ndarray:
    """Stacked distance_or_inf: +inf for every pair past the cut locus or
    across components; any other error of the first failing pair is raised."""
    return _distances(J1s, J2s, (CutLocusError, ComponentMismatch))


def distance(J1: OrthoComplexStructure, J2: OrthoComplexStructure) -> float:
    """Geodesic distance ||log_map(J1, J2)||."""
    if J1.same_point(J2):
        return 0.0
    return log_map(J1, J2).norm()


def distance_or_inf(J1: OrthoComplexStructure, J2: OrthoComplexStructure) -> float:
    """distance, or +inf past the cut locus or across components: such a
    pair is certainly farther apart than any radius below injectivity."""
    try:
        return distance(J1, J2)
    except (CutLocusError, ComponentMismatch):
        return math.inf


def conjugates(Qs, J: OrthoComplexStructure) -> np.ndarray:
    """Stacked conjugate: Q^{-1} J Q for every slice of an (N, d, d) stack,
    each slice checked for orthogonality; raises for the first that is not."""
    Qs = np.asarray(Qs, dtype=float)
    if Qs.shape[1:] != J.mat.shape:
        raise OddDimension(f"shape mismatch: {Qs.shape[1:]} vs {J.mat.shape}")
    Qt = Qs.transpose(0, 2, 1)
    defect = _maxabs_each(Qt @ Qs - np.eye(J.dim))
    bad = np.flatnonzero(defect > TOL_ALG)
    if bad.size:
        raise NotOrthogonalGroupElement(
            f"Q^T Q - I has max-abs entry {defect[bad[0]]:.3e}")
    return Qt @ J.mat @ Qs


def conjugate(Q: np.ndarray, J: OrthoComplexStructure) -> OrthoComplexStructure:
    """Action of an orthogonal matrix: Q^{-1} J Q."""
    return OrthoComplexStructure(conjugates(np.asarray(Q, dtype=float)[None], J)[0])


def sectional_curvatures(J: OrthoComplexStructure, phis, psis):
    """Curvature of the 2-plane spanned by phis[k] and psis[k], for every
    slice of two (N, d, d) stacks of tangents at J.

    Uses the compact-type homogeneous-space formula on the generators
    X = -phi J/2, Y = -psi J/2 with the inner product Q(A, B) = 4 tr(A B^T),
    which matches the tangent metric under phi <-> X:

        sec = Q([X, Y], [X, Y]) / (Q(X,X) Q(Y,Y) - Q(X,Y)^2)

    Returns the (N,) curvatures, NaN where a slice is degenerate, and a
    list of N entries, each None or the DegeneratePlane of that slice.
    """
    X = -0.5 * np.asarray(phis, dtype=float) @ J.mat
    Y = -0.5 * np.asarray(psis, dtype=float) @ J.mat
    N, d = len(X), J.dim

    def q(A, B):  # 4 tr(A B^T) per slice, each summed as np.sum sums one (d, d) array
        return 4.0 * (A * B).reshape(N, d * d).sum(axis=1)

    qxy = q(X, Y)
    gram = q(X, X) * q(Y, Y) - qxy * qxy
    degenerate = gram < 1e-14
    B = X @ Y - Y @ X
    curvatures = q(B, B) / np.where(degenerate, 1.0, gram)
    curvatures[degenerate] = math.nan
    errors = [None] * N
    for k in np.flatnonzero(degenerate):
        errors[k] = DegeneratePlane(f"Gram determinant {gram[k]:.3e} below threshold")
    return curvatures, errors


def random_j(n: int, seed: int) -> OrthoComplexStructure:
    """Conjugate of canonical_j(n) by a seeded random special orthogonal matrix."""
    if n < 1:
        raise OddDimension("n must be >= 1")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((2 * n, 2 * n))
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))  # Haar sign correction
    if np.linalg.det(Q) < 0.0:
        Q[:, 0] = -Q[:, 0]
    return conjugate(Q, canonical_j(n))


def random_tangents(J: OrthoComplexStructure, seeds, norm: float = 1.0) -> np.ndarray:
    """Seeded random tangents at J rescaled to the requested norm, as an
    (N, d, d) stack: slice k projects the standard normal matrix drawn by
    np.random.default_rng(seeds[k]) onto T_J."""
    if not 0.0 < norm < math.inf:
        raise ZeroProjection(f"norm must be positive and finite, got {norm!r}")
    d = J.dim
    A = np.empty((len(seeds), d, d))
    for k, seed in enumerate(seeds):
        A[k] = np.random.default_rng(seed).standard_normal((d, d))
    phis = _project(J, A)
    flat = phis.reshape(len(A), d * d)
    nrms = np.sqrt(np.vecdot(flat, flat))  # the bits of np.linalg.norm per slice
    if not np.all(nrms > 1e-12):
        raise ZeroProjection(
            "projection of a random matrix onto the tangent space vanished "
            "(the tangent space is zero-dimensional for n = 1)")
    return (norm / nrms)[:, None, None] * phis


def random_tangent(J: OrthoComplexStructure, seed: int, norm: float = 1.0) -> TangentPhi:
    """Seeded random tangent at J rescaled to the requested norm (the
    single-seed case of random_tangents)."""
    return TangentPhi(J, random_tangents(J, (seed,), norm)[0])
