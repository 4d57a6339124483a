"""Riemannian center of mass on the space of almost complex structures.

The center of mass of a weighted point set is the minimizer of the average
squared distance energy; inside a convex ball whose diameter satisfies the
curvature-diameter hypothesis it exists, is unique, and is natural under
isometries.  We compute it by Riemannian gradient descent with unit step
and Armijo halving, which is the standard scheme for Karcher means in that
regime.  Measures are always finite weighted sets here (holonomy sampling
discretizes the Haar measure)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import acs
from .acs import OrthoComplexStructure, TangentPhi
from .constants import DeltaConstant
from .errors import (ComponentMismatch, ConvexityViolation, IterationLimitTooSmall,
                     ToleranceTooSmall)

WEIGHT_TOL = 1e-12
DEFAULT_TOL = 1e-10
MIN_TOL = 1e-12
DEFAULT_MAX_ITER = 500


@dataclass(frozen=True, eq=False)
class WeightedSampleSet:
    """A finite probability measure on one component of the structure space.

    ``points`` is one read-only (N, d, d) stack, built from a stack, a list
    of matrices or a list of structures; ``weights`` holds one finite,
    nonnegative weight per point."""

    points: np.ndarray
    weights: tuple

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if not (pts.ndim == 3 and len(pts) and pts.shape[1] == pts.shape[2]
                and pts.shape[1] % 2 == 0):
            raise ValueError(f"need a nonempty stack of even-sized square "
                             f"matrices, got shape {pts.shape}")
        w = tuple(float(x) for x in self.weights)
        if len(w) != len(pts) or not all(0.0 <= x < math.inf for x in w):
            raise ValueError("weights must be finite and nonnegative, one per point")
        if abs(sum(w) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {sum(w)!r}, not 1")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @staticmethod
    def uniform(points) -> "WeightedSampleSet":
        return WeightedSampleSet(points, tuple(1.0 / len(points) for _ in points))


@dataclass(frozen=True)
class MeanResult:
    mean: OrthoComplexStructure
    iterations: int
    final_grad_norm: float
    energy: float
    converged: bool


@dataclass(frozen=True)
class ConvexityReport:
    ok: bool
    ball_ok: bool
    diameter_ok: bool
    ball_radius: float      # max distance from the best-centered sample
    diameter: float
    diameter_bound: float


def karcher_energy(y: OrthoComplexStructure, s: WeightedSampleSet) -> float:
    """Weighted average squared distance: (1/2) sum_i w_i d(x_i, y)^2."""
    dists = acs.distances(s.points, y.mat).tolist()
    return 0.5 * sum(w * d ** 2 for w, d in zip(s.weights, dists))


def karcher_gradient(y: OrthoComplexStructure, s: WeightedSampleSet) -> TangentPhi:
    """Riemannian gradient of the energy at y: -sum_i w_i log_y(x_i)."""
    g = np.zeros_like(y.mat)
    used = [i for i, w in enumerate(s.weights) if w != 0.0]
    logs = acs.log_maps(y.mat, s.points[used])
    for i, log in zip(used, logs):
        g -= s.weights[i] * log
    return TangentPhi(y, g)


def karcher_mean(s: WeightedSampleSet, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER,
                 start: OrthoComplexStructure = None) -> MeanResult:
    """Gradient descent with Armijo halving, started at ``start`` or the
    heaviest sample."""
    if not tol >= MIN_TOL:
        raise ToleranceTooSmall(f"tol must be >= {MIN_TOL}")
    if max_iter < 1:
        raise IterationLimitTooSmall(f"max_iter must be >= 1, got {max_iter}")
    y = (OrthoComplexStructure(s.points[int(np.argmax(s.weights))])
         if start is None else start)
    energy = karcher_energy(y, s)
    for it in range(1, max_iter + 1):
        grad = karcher_gradient(y, s)
        gn = grad.norm()
        if gn < tol:
            return MeanResult(y, it, gn, energy, True)
        step = 1.0
        while step > 1e-8:
            y_new = acs.exp_map(y, grad, -step)
            try:
                e_new = karcher_energy(y_new, s)
            except ComponentMismatch:
                step *= 0.5
                continue
            # near the optimum the energy plateaus at machine precision;
            # accept the step if it still shrinks the gradient norm
            if e_new < energy or karcher_gradient(y_new, s).norm() < gn:
                y, energy = y_new, e_new
                break
            step *= 0.5
        else:
            # no acceptable step found; gradient norm is the honest residual
            return MeanResult(y, it, gn, energy, gn < tol)
    gn = karcher_gradient(y, s).norm()
    return MeanResult(y, max_iter, gn, energy, gn < tol)


def check_convexity(s: WeightedSampleSet, delta: DeltaConstant) -> ConvexityReport:
    """Diagnostic for the center-of-mass hypothesis.

    (a) some sample point is within 2*delta of every other sample (ball
    containment proxy) and (b) the set's diameter is at most
    pi / (2 sqrt(eps)).
    """
    mats = s.points
    m = len(mats)
    dmat = np.zeros((m, m))
    for i in range(m - 1):
        dmat[i, i + 1:] = dmat[i + 1:, i] = acs.distances_or_inf(mats[i], mats[i + 1:])
    radius = float(np.min(np.max(dmat, axis=1))) if m > 1 else 0.0
    diameter = float(np.max(dmat))
    bound = math.pi / (2.0 * math.sqrt(delta.epsilon_used))
    ball_ok = radius <= 2.0 * delta.delta
    diameter_ok = diameter <= bound
    return ConvexityReport(ok=ball_ok and diameter_ok, ball_ok=ball_ok,
                           diameter_ok=diameter_ok, ball_radius=radius,
                           diameter=diameter, diameter_bound=bound)


def karcher_mean_checked(s: WeightedSampleSet, delta: DeltaConstant,
                         tol: float = DEFAULT_TOL) -> MeanResult:
    """karcher_mean preceded by the convexity diagnostic (hard failure)."""
    report = check_convexity(s, delta)
    if not report.ok:
        raise ConvexityViolation(
            f"sample set violates the convexity hypothesis: radius "
            f"{report.ball_radius:.4f} vs 2*delta={2*delta.delta:.4f}, "
            f"diameter {report.diameter:.4f} vs bound {report.diameter_bound:.4f}")
    return karcher_mean(s, tol=tol)
