"""Sampled estimates of the curvature bound and the injectivity radius: an
oracle for the closed forms in ``kahlerprobe.constants``.

``sampled_epsilon`` is the largest curvature that local ascent reaches from
the ten best of ``num_samples`` random planes at the canonical structure,
and ``sampled_injectivity`` the first time at which one of eight random
unit geodesics stops minimizing, less one march step.  Neither is a bound:
the first reads from below, the second up to two steps late.
"""

import math

import numpy as np

from kahlerprobe import acs
from kahlerprobe.constants import SAFETY_FACTOR, DeltaConstant


def sectional_curvatures(J, phis, psis):
    """Curvature of the 2-plane spanned by phis[k] and psis[k], for every
    slice of two (N, d, d) stacks of tangents at J; NaN where a slice is
    degenerate.

    Uses the compact-type homogeneous-space formula on the generators
    X = -phi J/2, Y = -psi J/2 with the inner product Q(A, B) = 4 tr(A B^T),
    which matches the tangent metric under phi <-> X:

        sec = Q([X, Y], [X, Y]) / (Q(X,X) Q(Y,Y) - Q(X,Y)^2)
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
    return curvatures


def sampled_epsilon(n, num_samples=300, seed=0):
    """The highest curvature reached by local ascent from the ten best
    sampled planes.

    Plane k is spanned by the random unit tangent of seed s_k and the unit
    part of the tangent of seed s_k + 500_009 orthogonal to it; a plane
    whose orthogonal part is shorter than 1e-8 is skipped.  Each ascent
    round draws 40 seeds for its 20 trial planes (the current plane plus a
    perturbation of size ``step``); the first trial that beats the current
    curvature by more than 1e-10 becomes the current plane, and the trials
    after it are measured again from there.  A round without a gain halves
    the step.
    """
    J = acs.canonical_j(n)
    rng = np.random.default_rng(seed)
    plane_seeds = rng.integers(0, 2**31 - 1, size=num_samples).tolist()
    tangents = acs.random_tangents(J, plane_seeds + [s + 500_009 for s in plane_seeds])
    phis, psis = tangents[:num_samples], tangents[num_samples:]
    d2 = J.dim ** 2
    inner = (phis * psis).reshape(num_samples, d2).sum(axis=1)  # metric_inner per slice
    psis = psis - inner[:, None, None] * phis
    flat = psis.reshape(num_samples, d2)
    nrms = np.sqrt(np.vecdot(flat, flat))  # the bits of np.linalg.norm per slice
    kept = ~(nrms < 1e-8)
    phis, psis = phis[kept], (1.0 / nrms[kept])[:, None, None] * psis[kept]
    curvatures = sectional_curvatures(J, phis, psis)
    assert not np.isnan(curvatures).any()
    best = -math.inf
    for i in sorted(range(len(phis)), key=lambda i: -curvatures[i])[:10]:
        cur, phi, psi = float(curvatures[i]), phis[i], psis[i]
        step = 0.2
        while step > 1e-6:
            steps = acs.random_tangents(
                J, rng.integers(0, 2**31 - 1, size=40).tolist(), step)
            dphis, dpsis = steps[0::2], steps[1::2]
            improved = False
            while len(dphis):
                a, b = phi + dphis, psi + dpsis
                # a degenerate trial reads NaN and is never taken
                ks = sectional_curvatures(J, a, b)
                gains = np.flatnonzero(ks > cur + 1e-10)
                if not gains.size:
                    break
                j = gains[0]
                cur, phi, psi = float(ks[j]), a[j], b[j]
                improved = True
                dphis, dpsis = dphis[j + 1:], dpsis[j + 1:]
            if not improved:
                step *= 0.5
        best = max(best, cur)
    return best


def sampled_injectivity(n, resolution=0.01, seed=0):
    """The first time t, on a grid of step ``resolution``, at which one of
    eight seeded random unit geodesics is no longer minimizing
    (d(J, exp(t phi)) < t - 2 resolution) or meets the cut locus, less one
    step; 20 when none breaks before."""
    J = acs.canonical_j(n)
    rng = np.random.default_rng(seed)
    first_break = 20.0
    for seed_k in rng.integers(0, 2**31 - 1, size=8).tolist():
        phi = acs.random_tangent(J, seed_k)
        t = resolution
        while t < first_break:  # later breaks cannot lower the minimum
            ts = []
            while t < first_break and len(ts) < 256:
                ts.append(t)
                t += resolution
            dists = acs.distance_or_inf(J.mat, acs.exp_maps(J, phi, ts))
            broken = [tk for tk, d in zip(ts, dists.tolist())
                      if d == math.inf or d < tk - 2.0 * resolution]
            if broken:
                first_break = min(first_break, broken[0])
                break
    return first_break - resolution


def sampled_delta(n, seed):
    """delta from the safety factor times the sampled curvature and the
    sampled injectivity radius, as the sampled estimator gave it."""
    return DeltaConstant(n, SAFETY_FACTOR * sampled_epsilon(n, seed=seed),
                         sampled_injectivity(n, seed=seed))
