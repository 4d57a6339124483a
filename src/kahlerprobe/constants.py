"""The dichotomy constant delta = min(inj/2, pi/(4 sqrt(eps))), in closed form.

Each component of the structure space is SO(2n)/U(n), a compact, simply
connected symmetric space (Helgason, *Differential Geometry, Lie Groups,
and Symmetric Spaces*, ch. VII and X).  For every n >= 2 its sectional
curvature is at most 1/4, with equality on one plane, and its injectivity
radius is 2 pi.  O(2n) acts transitively by isometries, so it suffices to
prove this at the canonical J; write R^{2n} = C^n with J = i.

Curvature.  A tangent phi at J corresponds to X = -phi J / 2, a skew matrix
that anticommutes with J, and |phi|^2 = Q(X, X) with Q(A, B) = 4 tr(A B^T),
an ad-invariant inner product.  For Q-orthonormal X and Y the
symmetric-space formula gives K(X, Y) = Q([X, Y], [X, Y]) = Q(R_X Y, Y)
with R_X = -ad_X^2, which is Q-symmetric, so K(X, Y) is at most the largest
eigenvalue of R_X.  As a map of C^n, X is v -> A conj(v) for a complex
antisymmetric A, Q(X, X) = 8 |A|^2, and R_X takes B to
2 A conj(B) A - A conj(A) B - B conj(A) A.  The stabilizer U(n) acts by
A -> U A U^T, which brings A to diag(a_1 E, ..., a_m E, 0) with
E = [[0, 1], [-1, 0]], a_k >= 0 and m = floor(n/2) (Youla, Canad. J. Math.
13, 1961): X lies in the maximal abelian subspace of block-diagonal 4x4
real blocks.  On the 2x2 blocks B_jk of B, R_X has the restricted-root
eigenvalues (2 a_j)^2 and 0 on B_jj = b E (the imaginary and real part of
b), (a_j + a_k)^2 and (a_j - a_k)^2 on B_jk for j != k, and a_j^2 on the
last row when n is odd.  Q(X, X) = 16 sum a_k^2 = 1, and
(a_j + a_k)^2 <= 2 (a_j^2 + a_k^2), so each is at most
4 sum a_k^2 = 1/4.  Equality needs one a_j = 1/4 and B = i b E in block j:
the plane of the n = 2 space in one 4x4 block, whose curvature is 1/4.

Injectivity.  Along a unit geodesic in direction X the first conjugate
point lies at pi / sqrt(lambda_max(R_X)) >= 2 pi, with equality in that
plane.  In a compact, simply connected symmetric space the cut locus is the
first conjugate locus (Crittenden, Canad. J. Math. 14, 1962), so inj = 2 pi.

``SAFETY_FACTOR`` stays on eps: it only shrinks delta, and without it delta
would be pi/2 instead of pi/(2 sqrt(1.05)), so an orbit whose largest
distance lies between the two would change verdict.
``DeltaConstant`` is the one record of delta and the one check on its
inputs, whether eps is the closed form or a user's override.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DimensionTooSmall

SAFETY_FACTOR = 1.05


@dataclass(frozen=True)
class DeltaConstant:
    """The dichotomy constant derived from its inputs.  Since delta <=
    inj/2 and 2 delta <= pi/(2 sqrt(eps)), the delta-ball is convex and
    meets the center-of-mass diameter bound."""

    n: int
    epsilon_used: float
    inj_used: float
    delta: float = field(init=False)

    def __post_init__(self):
        if (isinstance(self.epsilon_used, bool) or isinstance(self.inj_used, bool)
                or not (0.0 < self.epsilon_used < math.inf
                        and 0.0 < self.inj_used < math.inf)):
            raise ValueError(f"epsilon {self.epsilon_used!r} and injectivity radius "
                             f"{self.inj_used!r} must be finite and positive numbers")
        object.__setattr__(self, "epsilon_used", float(self.epsilon_used))
        object.__setattr__(self, "inj_used", float(self.inj_used))
        object.__setattr__(self, "delta", min(
            self.inj_used / 2.0, math.pi / (4.0 * math.sqrt(self.epsilon_used))))


def estimate_epsilon(n: int) -> float:
    """The curvature bound: the safety factor times the largest sectional
    curvature, 1/4."""
    if n < 2:
        raise DimensionTooSmall("no 2-planes for n = 1")
    return SAFETY_FACTOR * 0.25


def estimate_injectivity(n: int) -> float:
    """The injectivity radius, 2 pi."""
    if n < 2:
        raise DimensionTooSmall("zero-dimensional tangent space for n = 1")
    return 2.0 * math.pi


def compute_delta(n: int, epsilon_override: float | None = None, *,
                  seed: int | None = None) -> DeltaConstant:
    """Delta for the structure space of R^{2n}, from the closed-form eps
    (or ``epsilon_override``) and inj.  delta depends on n alone: ``seed``
    is ignored, and accepted only because perfbench and bench/compare.py
    still pass it.  ``DeltaConstant`` rejects an ``epsilon_override`` that
    is not finite and positive, with a ValueError."""
    eps = estimate_epsilon(n) if epsilon_override is None else epsilon_override
    return DeltaConstant(n, eps, estimate_injectivity(n))
