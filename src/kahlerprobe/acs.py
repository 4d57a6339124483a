"""The space of metric-compatible almost complex structures on R^{2n}.

A point is a real 2n x 2n matrix J with J^2 = -I and J^T J = I.  The set of
all such J is a compact homogeneous space: the orthogonal group acts
transitively by conjugation, and the stabilizer of a point is a unitary
group.  Tangent vectors at J are matrices phi with phi J = -J phi and
phi^T = -phi, carrying the inner product tr(phi psi^T).

Geodesics are one-parameter conjugation orbits: writing X = -phi J / 2
(a skew matrix anticommuting with J), the geodesic through J with initial
velocity phi is t -> e^{tX} J e^{-tX}.  The inverse map uses the principal
logarithm of the orthogonal matrix J2 J1^{-1}.  Each map runs one real
symmetric eigendecomposition (numpy's eigh) and no complex arithmetic: the
exp map of X^T X, the log map of every slice of sym(J2 J1^{-1}) at once.

The space has two connected components (orientation classes); all distance
and averaging operations are per-component, and cross-component requests
raise ComponentMismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
TOL_INPUT = 1e-8  # the same invariants of a structure from outside: J_p, JSON, AUTO
TOL_LOG = 1e-8    # log-map round-trip verification
TOL_CUT = 1e-8    # rotation angle this close to pi: on the cut locus
TOL_BLOCK = 1e-12 # |sin theta| of an eigenvector of sym(R) that reads as real: angle 0 or pi


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
    every time in ``ts``, as an (N, d, d) array (slice k is exp_map(J, phi, ts[k])).

    X is replaced by its skew part first.  X^T X = -X^2 is symmetric with
    eigenvalues omega^2 on an eigenbasis Q, and e^{tX} = Q diag(cos t omega)
    Q^T + Q diag(sin(t omega) / omega) Q^T X, with t where omega = 0: one
    real symmetric eigh for every time."""
    if not phi.base.same_point(J):
        raise BasePointMismatch("tangent is not based at J")
    M = phi.mat @ J.mat
    X = 0.25 * (M.T - M)  # the skew part of -phi J / 2
    mu, Q = np.linalg.eigh(X.T @ X)
    w = np.sqrt(np.maximum(mu, 0.0))
    ts = np.asarray(ts, dtype=float)[:, None]
    tw = ts * w
    # sin(t w) / w, and t where w = 0
    sinc = np.divide(np.sin(tw), w, out=np.repeat(ts, len(w), axis=1), where=w > 0.0)
    E = Q @ (np.cos(tw)[:, :, None] * Q.T + sinc[:, :, None] * (Q.T @ X))  # e^{tX}
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
    """Two (d, d) or (N, d, d) arrays as (N, d, d) stacks of one shape, and
    whether both were (d, d)."""
    A = np.asarray(J1s, dtype=float)
    B = np.asarray(J2s, dtype=float)
    if A.shape[-2:] != B.shape[-2:]:
        raise OddDimension("dimension mismatch")
    single = A.ndim == B.ndim == 2
    A = A[None] if A.ndim == 2 else A
    B = B[None] if B.ndim == 2 else B
    if A.shape != B.shape:
        A, B = np.broadcast_arrays(A, B)
    return A, B, single


def _log_stack(A: np.ndarray, B: np.ndarray):
    """The log map of every slice pair (A[k], B[k]) of two (N, d, d) stacks.

    X = (1/2) log(B A^{-1}) is the principal logarithm of the orthogonal
    matrix R = B A^{-1}; a rotation angle of R at pi has none
    (CutLocusError).  X must then be skew, anticommute with A and reproduce
    B; otherwise the two structures lie in different components
    (ComponentMismatch).  Each slice runs these checks in this order and
    keeps its first error; a slice with a non-finite entry is a ValueError.

    An orthogonal R is normal, so S = R + R^T and K = R - R^T commute.  On
    a plane R turns by theta, S is 2 cos theta and K is 2 sin theta times a
    quarter turn, so log R = g(S) K with g = theta / (2 sin theta).  One
    batched real eigh gives S = Q diag(c) Q^T; the rows of Q^T K have norms
    s = 2 |sin theta|, and theta = atan2(s, c) on each eigenvector.  Then
    X = Q diag(theta / 2s) Q^T K, and the round trip uses e^X =
    Q (diag(cos theta/2) Q^T + diag(1 / (4 cos theta/2)) Q^T K).  Both are
    matrix functions of S (Higham, Functions of Matrices, ch. 11), so they
    do not depend on the eigenbasis Q picks for a repeated angle.  An
    eigenvector with s within 2 TOL_BLOCK of 0 is real: its angle is 0 or
    pi and it takes no K term.  An angle within TOL_CUT of pi is the cut
    locus: "eigenvalue -1" on a real eigenvector, "rotation angle at pi"
    otherwise.

    Returns the (N, d, d) tangents 2 X A (NaN where a slice failed) and a
    list of N entries, each None or the error of that slice.
    """
    N, d = A.shape[0], A.shape[-1]
    R = -B @ A  # B A^{-1}, using A^{-1} = -A
    finite = np.isfinite(R).all(axis=(1, 2))
    errors = [None if ok else ValueError("array must not contain infs or NaNs")
              for ok in finite]
    R[~finite] = 0.0
    Rt = R.transpose(0, 2, 1)
    c, Q = np.linalg.eigh(R + Rt)
    Qt = Q.transpose(0, 2, 1)
    QtK = Qt @ (R - Rt)
    s = np.sqrt(np.vecdot(QtK, QtK))  # the row norms, 2 |sin theta|
    real = s <= 2.0 * TOL_BLOCK
    s[real] = 0.0
    theta = np.arctan2(s, c)  # 0 or pi where real
    half = 0.5 * theta
    cos = np.cos(half)
    g = np.divide(half, s, out=np.zeros_like(s), where=~real)  # theta / 2s
    h = np.divide(0.25, cos, out=np.zeros_like(s), where=~real)  # 1 / (4 cos theta/2)
    X = Q @ (g[:, :, None] * QtK)
    E = Q @ (cos[:, :, None] * Qt + h[:, :, None] * QtK)

    # per slice, True where each check fails, in the order they run: an
    # eigenvalue at pi, then anticommutation, skewness and the round trip
    # (a NaN max-abs entry fails, as in _maxabs_each)
    XA = X @ A
    checks = np.array((XA + A @ X, X + X.transpose(0, 2, 1),
                       E @ A @ E.transpose(0, 2, 1) - B))
    fails = np.concatenate((np.pi - theta < TOL_CUT,
                            ~(np.abs(checks).max(axis=(2, 3)).T <= TOL_LOG)), axis=1)
    for k in fails.any(axis=1).nonzero()[0]:
        if errors[k] is not None:
            continue
        i = np.argmax(fails[k])  # the first failing check
        if i < d and not real[k, i]:
            errors[k] = CutLocusError("rotation angle at pi: principal log undefined")
        elif i < d:
            errors[k] = CutLocusError("eigenvalue -1: principal log undefined")
        elif i < d + 2:
            errors[k] = ComponentMismatch(
                "log generator does not anticommute with the base structure; "
                "the two structures lie in different components")
        else:
            errors[k] = ComponentMismatch("log round-trip failed to reproduce the target")
    tangents = 2.0 * XA
    tangents[[k for k in range(N) if errors[k] is not None]] = math.nan
    return tangents, errors


def _first_error(errors, tolerated=()):
    """Raise the first error in slice order that is not of a tolerated type."""
    for exc in errors:
        if exc is not None and not isinstance(exc, tolerated):
            raise exc


def log_map(J1s, J2s) -> np.ndarray:
    """Inverse of exp_map, the tangent phi at J1 with exp_map(J1, phi, 1) =
    J2, of every slice pair of two (d, d) or (N, d, d) stacks that broadcast
    together, as an (N, d, d) stack.  Raises the first error."""
    A, B, _ = _pair_stacks(J1s, J2s)
    tangents, errors = _log_stack(A, B)
    _first_error(errors)
    return tangents


def distance(J1s, J2s, *, tolerated=()):
    """Geodesic distance ||log_map(J1, J2)|| of every slice pair, as log_map
    pairs them; a (d, d) pair gives a float.  The same point within TOL_ALG
    reads 0 without a log map, an error of a ``tolerated`` type +inf; the
    first other error is raised."""
    A, B, single = _pair_stacks(J1s, J2s)
    out = np.zeros(len(A))
    far = np.flatnonzero(~(np.max(np.abs(A - B), axis=(1, 2)) <= TOL_ALG))
    tangents, errors = _log_stack(A[far], B[far])
    _first_error(errors, tolerated)
    flat = tangents.reshape(len(far), A.shape[-1] ** 2)
    norms = np.sqrt(np.vecdot(flat, flat))  # the bits of np.linalg.norm per slice
    norms[[k for k, exc in enumerate(errors) if exc is not None]] = math.inf
    out[far] = norms
    return float(out[0]) if single else out


def distance_or_inf(J1s, J2s):
    """distance, or +inf past the cut locus or across components: such a
    pair is certainly farther apart than any radius below injectivity."""
    return distance(J1s, J2s, tolerated=(CutLocusError, ComponentMismatch))


def conjugate(Qs, J: OrthoComplexStructure) -> np.ndarray:
    """Action of orthogonal matrices: Q^{-1} J Q for a (d, d) Q or every
    slice of an (N, d, d) stack, each checked for orthogonality; raises for
    the first that is not."""
    Qs = np.asarray(Qs, dtype=float)
    single = Qs.ndim == 2
    Q = Qs[None] if single else Qs
    if Q.shape[1:] != J.mat.shape:
        raise OddDimension(f"shape mismatch: {Qs.shape} vs {J.mat.shape}")
    Qt = Q.transpose(0, 2, 1)
    defect = _maxabs_each(Qt @ Q - np.eye(J.dim))
    bad = np.flatnonzero(defect > TOL_ALG)
    if bad.size:
        raise NotOrthogonalGroupElement(
            f"Q^T Q - I has max-abs entry {defect[bad[0]]:.3e}")
    out = Qt @ J.mat @ Q
    return out[0] if single else out


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
    return OrthoComplexStructure(conjugate(Q, canonical_j(n)))


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
