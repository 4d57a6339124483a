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
    ball_radius: float      # max distance from the best-centered sample
    diameter: float
    diameter_bound: float
    bounds: bool = False    # ball_radius and diameter are upper bounds, not exact


def karcher_terms(y: OrthoComplexStructure, s: WeightedSampleSet):
    """The energy (1/2) sum_i w_i d(x_i, y)^2, its Riemannian gradient
    -sum_i w_i log_y(x_i) at y and the distances d(x_i, y), all from one
    log-map stack on base y that skips the points of weight 0."""
    used = [i for i, w in enumerate(s.weights) if w != 0.0]
    logs = acs.log_map(y.mat, s.points[used])
    flat = logs.reshape(len(used), -1)
    dists = np.sqrt(np.vecdot(flat, flat)).tolist()  # the bits of np.linalg.norm
    w = np.array(s.weights)[used, None, None]
    # subtract.reduce subtracts in slice order, as a loop of g -= w_i log_i would
    g = np.subtract.reduce(np.concatenate([np.zeros((1,) + y.mat.shape), w * logs]))
    energy = 0.5 * sum(s.weights[i] * d ** 2 for i, d in zip(used, dists))
    return energy, TangentPhi(y, g), dists


def karcher_mean(s: WeightedSampleSet, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER,
                 start: OrthoComplexStructure = None, terms=None) -> MeanResult:
    """Gradient descent with Armijo halving, started at ``start`` or the
    heaviest sample, whose ``karcher_terms`` are passed in as ``terms`` when
    the caller has them.  Each trial point is log-mapped once: an accepted
    trial's gradient is the next iterate's."""
    if not tol >= MIN_TOL:
        raise ToleranceTooSmall(f"tol must be >= {MIN_TOL}")
    if max_iter < 1:
        raise IterationLimitTooSmall(f"max_iter must be >= 1, got {max_iter}")
    y = (OrthoComplexStructure(s.points[int(np.argmax(s.weights))])
         if start is None else start)
    energy, grad, _ = karcher_terms(y, s) if terms is None else terms
    for it in range(1, max_iter + 1):
        gn = grad.norm()
        if gn < tol:
            return MeanResult(y, it, gn, energy, True)
        step = 1.0
        while step > 1e-8:
            y_new = acs.exp_map(y, grad, -step)
            try:
                e_new, g_new, _ = karcher_terms(y_new, s)
            except ComponentMismatch:
                step *= 0.5
                continue
            # near the optimum the energy plateaus at machine precision;
            # accept the step if it still shrinks the gradient norm
            if e_new < energy or g_new.norm() < gn:
                y, energy, grad = y_new, e_new, g_new
                break
            step *= 0.5
        else:
            # no acceptable step found; gradient norm is the honest residual
            return MeanResult(y, it, gn, energy, gn < tol)
    gn = grad.norm()
    return MeanResult(y, max_iter, gn, energy, gn < tol)


def check_convexity(s: WeightedSampleSet, delta: DeltaConstant,
                    distances=None) -> ConvexityReport:
    """Diagnostic for the center-of-mass hypothesis.

    (a) some sample point is within 2*delta of every other sample (ball
    containment proxy) and (b) the set's diameter is at most
    pi / (2 sqrt(eps)).

    Given the samples' ``distances`` d_i to one base point, the diameter is
    at most 2 max d_i and the radius at most min d_i + max d_i (triangle
    inequality); when these bounds pass, the report is ok and carries them.
    Otherwise, or without distances, every pair is measured."""
    bound = math.pi / (2.0 * math.sqrt(delta.epsilon_used))
    if distances is not None:
        if len(distances) != len(s.points):
            raise ValueError(f"{len(distances)} distances for {len(s.points)} samples")
        radius = min(distances) + max(distances)
        diameter = 2.0 * max(distances)
        if radius <= 2.0 * delta.delta and diameter <= bound:
            return ConvexityReport(ok=True, ball_radius=radius, diameter=diameter,
                                   diameter_bound=bound, bounds=True)
    P, m = s.points, len(s.points)
    dmat = np.zeros((m, m))
    for i in range(m - 1):
        dmat[i, i + 1:] = dmat[i + 1:, i] = acs.distance_or_inf(P[i], P[i + 1:])
    radius = float(np.min(np.max(dmat, axis=1))) if m > 1 else 0.0
    diameter = float(np.max(dmat))
    return ConvexityReport(ok=radius <= 2.0 * delta.delta and diameter <= bound,
                           ball_radius=radius, diameter=diameter, diameter_bound=bound)


def karcher_mean_checked(s: WeightedSampleSet, delta: DeltaConstant,
                         tol: float = DEFAULT_TOL, distances=None) -> MeanResult:
    """karcher_mean preceded by the convexity diagnostic (hard failure),
    which reads the samples' ``distances`` to a common base when given."""
    report = check_convexity(s, delta, distances)
    if not report.ok:
        raise ConvexityViolation(
            f"sample set violates the convexity hypothesis: radius "
            f"{report.ball_radius:.4f} vs 2*delta={2*delta.delta:.4f}, "
            f"diameter {report.diameter:.4f} vs bound {report.diameter_bound:.4f}")
    return karcher_mean(s, tol=tol)
