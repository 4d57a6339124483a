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


def _maxabs(a: np.ndarray) -> float:
    """Max-abs entry; inf when any entry is NaN, so every `> tol` check rejects it."""
    m = float(np.max(np.abs(a))) if a.size else 0.0
    return math.inf if math.isnan(m) else m


@dataclass(frozen=True)
class OrthoComplexStructure:
    """A metric-compatible almost complex structure: J^2 = -I, J^T J = I."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", np.array(self.mat, dtype=float))
        self.mat.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def n(self) -> int:
        return self.dim // 2

    def same_point(self, other: "OrthoComplexStructure", tol: float = TOL_ALG) -> bool:
        return self.dim == other.dim and _maxabs(self.mat - other.mat) <= tol


@dataclass(frozen=True)
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

    def scaled(self, c: float) -> "TangentPhi":
        return TangentPhi(self.base, c * self.mat)


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
    S = 0.5 * (A - A.T)
    phi = 0.5 * (S + J.mat @ S @ J.mat)
    return TangentPhi(J, phi)


def exp_map(J: OrthoComplexStructure, phi: TangentPhi, t: float = 1.0) -> OrthoComplexStructure:
    """Geodesic e^{tX} J e^{-tX} with X = -phi J / 2."""
    if not phi.base.same_point(J):
        raise BasePointMismatch("tangent is not based at J")
    X = -0.5 * phi.mat @ J.mat
    E = scipy.linalg.expm(t * X)
    return OrthoComplexStructure(E @ J.mat @ E.T)


def _principal_orthogonal_log(R: np.ndarray, tol_cut: float = 1e-8) -> np.ndarray:
    """Principal logarithm of a (special) orthogonal matrix via real Schur.

    The real Schur form of an orthogonal matrix is block diagonal with 1x1
    blocks +-1 and 2x2 rotation blocks.  A rotation angle at pi (eigenvalue
    -1) has no principal log and raises CutLocusError.
    """
    T, Q = scipy.linalg.schur(R, output="real")
    d = R.shape[0]
    L = np.zeros((d, d))
    i = 0
    while i < d:
        if i + 1 < d and abs(T[i + 1, i]) > 1e-12:
            c = 0.5 * (T[i, i] + T[i + 1, i + 1])
            s = 0.5 * (T[i + 1, i] - T[i, i + 1])
            theta = np.arctan2(s, c)
            if np.pi - abs(theta) < tol_cut:
                raise CutLocusError("rotation angle at pi: principal log undefined")
            L[i, i + 1] = -theta
            L[i + 1, i] = theta
            i += 2
        else:
            if T[i, i] < 0.0:
                raise CutLocusError("eigenvalue -1: principal log undefined")
            i += 1
    return Q @ L @ Q.T


def log_map(J1: OrthoComplexStructure, J2: OrthoComplexStructure) -> TangentPhi:
    """Inverse of exp_map: the tangent phi at J1 with exp_map(J1, phi, 1) = J2.

    Computes X = (1/2) log(J2 J1^{-1}) and verifies that X is skew,
    anticommutes with J1, and reproduces J2; failures of the verification
    mean J1 and J2 lie in different connected components.
    """
    if J1.dim != J2.dim:
        raise OddDimension("dimension mismatch")
    R = -J2.mat @ J1.mat  # J2 @ J1^{-1}, using J1^{-1} = -J1
    X = 0.5 * _principal_orthogonal_log(R)
    anti = X @ J1.mat + J1.mat @ X
    skew = X + X.T
    if _maxabs(anti) > TOL_LOG or _maxabs(skew) > TOL_LOG:
        raise ComponentMismatch(
            "log generator does not anticommute with the base structure; "
            "the two structures lie in different components"
        )
    E = scipy.linalg.expm(X)
    if _maxabs(E @ J1.mat @ E.T - J2.mat) > TOL_LOG:
        raise ComponentMismatch("log round-trip failed to reproduce the target")
    return TangentPhi(J1, 2.0 * X @ J1.mat)


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


def conjugate(Q: np.ndarray, J: OrthoComplexStructure) -> OrthoComplexStructure:
    """Action of an orthogonal matrix: Q^{-1} J Q."""
    Q = np.asarray(Q, dtype=float)
    if Q.shape != J.mat.shape:
        raise OddDimension(f"shape mismatch: {Q.shape} vs {J.mat.shape}")
    defect = _maxabs(Q.T @ Q - np.eye(J.dim))
    if defect > TOL_ALG:
        raise NotOrthogonalGroupElement(f"Q^T Q - I has max-abs entry {defect:.3e}")
    return OrthoComplexStructure(Q.T @ J.mat @ Q)


def sectional_curvature(J: OrthoComplexStructure, phi: TangentPhi, psi: TangentPhi) -> float:
    """Curvature of the 2-plane spanned by phi and psi.

    Uses the compact-type homogeneous-space formula on the generators
    X = -phi J/2, Y = -psi J/2 with the inner product Q(A, B) = 4 tr(A B^T),
    which matches the tangent metric under phi <-> X:

        sec = Q([X, Y], [X, Y]) / (Q(X,X) Q(Y,Y) - Q(X,Y)^2)
    """
    if not (phi.base.same_point(J) and psi.base.same_point(J)):
        raise BasePointMismatch("tangents are not based at J")
    X = -0.5 * phi.mat @ J.mat
    Y = -0.5 * psi.mat @ J.mat
    qxx = 4.0 * float(np.sum(X * X))
    qyy = 4.0 * float(np.sum(Y * Y))
    qxy = 4.0 * float(np.sum(X * Y))
    gram = qxx * qyy - qxy * qxy
    if gram < 1e-14:
        raise DegeneratePlane(f"Gram determinant {gram:.3e} below threshold")
    B = X @ Y - Y @ X
    return 4.0 * float(np.sum(B * B)) / gram


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


def random_tangent(J: OrthoComplexStructure, seed: int, norm: float = 1.0) -> TangentPhi:
    """Seeded random tangent at J rescaled to the requested norm."""
    if norm <= 0.0:
        raise ZeroProjection("norm must be positive")
    for attempt in range(8):
        rng = np.random.default_rng(seed + 1_000_003 * attempt)
        phi = project_tangent(J, rng.standard_normal(J.mat.shape))
        nrm = phi.norm()
        if nrm > 1e-12:
            return phi.scaled(norm / nrm)
    raise ZeroProjection(
        "projection of random matrices onto the tangent space vanished "
        "(the tangent space is zero-dimensional for n = 1)"
    )
