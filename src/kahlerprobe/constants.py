"""Estimation of the dichotomy constant delta = min(inj/2, pi/(4 sqrt(eps))).

``eps`` is an upper bound on the sectional curvature of the structure space,
estimated by sampling 2-planes at the canonical base point (homogeneity makes
one point sufficient) and refining the best candidates by local ascent.
The injectivity radius is estimated by marching along random unit-speed
geodesics until the geodesic stops minimizing or the log map fails.  eps is
conservative in the direction that keeps the dichotomy sound: a too-large
eps only shrinks delta.  The inj estimate is not a lower bound: it can read
up to two resolution steps late, and past the true radius 2 pi from n = 4
on (see ``estimate_injectivity``).  The two
estimators return plain floats; ``DeltaConstant`` is the one record of
delta and the one check on its inputs, whether eps is estimated, a user's
override or read from the cache.  A cache entry that does not rebuild its
own delta is a miss.  The cache file is replaced atomically, so a failed or concurrent
write never leaves it torn, and each write re-reads it under a lock, so
concurrent writers keep each other's entries.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import acs
from .errors import DimensionTooSmall

SAFETY_FACTOR = 1.05
MIN_SAMPLES = 100      # fewest random planes estimate_epsilon accepts
DEFAULT_SAMPLES = 300  # random planes estimate_epsilon draws by default
MIN_RESOLUTION = 1e-3  # finest march step estimate_injectivity accepts
MAX_RESOLUTION = 0.01  # coarsest march step estimate_injectivity accepts, and its default
MARCH_DIRECTIONS = 8  # random geodesics the injectivity march follows
MARCH_CHUNK = 32  # geodesic times evaluated per stacked step of the injectivity march
MARCH_T_MAX = 20.0  # the march stops here when no direction breaks before
DEFAULT_CACHE = os.path.join(os.path.expanduser("~"), ".kahlerprobe_delta_cache.json")


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


def estimate_epsilon(n: int, num_samples: int = DEFAULT_SAMPLES,
                     seed: int = 0) -> float:
    """Sampled upper bound on sectional curvature: the safety factor times
    the highest curvature reached by local ascent from the ten best sampled
    planes.

    Plane k is spanned by the random unit tangent of seed s_k and the unit
    part of the tangent of seed s_k + 500_009 orthogonal to it; a plane
    whose orthogonal part is shorter than 1e-8 is skipped.  All planes are
    measured in one stacked call.  Each ascent round draws 40 seeds and
    measures its 20 trial planes (the current plane plus a perturbation of
    size ``step``) in one call; the first trial that beats the current
    curvature by more than 1e-10 becomes the current plane, and the trials
    after it are measured again from there, so the result is that of
    trying the 20 trials one after another.  A round without a gain halves
    the step.
    """
    if n < 2:
        raise DimensionTooSmall("no 2-planes for n = 1")
    if num_samples < MIN_SAMPLES:
        raise ValueError(f"num_samples must be >= {MIN_SAMPLES}")
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
    curvatures, errors = acs.sectional_curvatures(J, phis, psis)
    degenerate = [exc for exc in errors if exc is not None]
    if degenerate:
        raise degenerate[0]
    best = -math.inf
    for i in sorted(range(len(phis)), key=lambda i: -curvatures[i])[:10]:
        cur, phi, psi = float(curvatures[i]), phis[i], psis[i]
        step = 0.2
        while step > 1e-6:
            steps = acs.random_tangents(
                J, [int(rng.integers(0, 2**31 - 1)) for _ in range(40)], step)
            dphis, dpsis = steps[0::2], steps[1::2]
            improved = False
            while len(dphis):
                a, b = phi + dphis, psi + dpsis
                # a degenerate trial reads NaN and is never taken
                ks = acs.sectional_curvatures(J, a, b)[0]
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
    return SAFETY_FACTOR * best


def estimate_injectivity(n: int, resolution: float = MAX_RESOLUTION,
                         seed: int = 0) -> float:
    """Estimate of the injectivity radius by a geodesic-minimality march:
    the first break on any sampled direction, less one resolution step.

    Not a lower bound.  The break test d < t - 2 resolution can see a break
    up to two steps late, and from n = 4 on random directions meet their
    conjugate points past 2 pi, the true radius: seed 0 gives 6.29 at n = 2
    and 3 and 6.43 at n = 4."""
    if n < 2:
        raise DimensionTooSmall("zero-dimensional tangent space for n = 1")
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in [{MIN_RESOLUTION}, {MAX_RESOLUTION}]")
    J = acs.canonical_j(n)
    rng = np.random.default_rng(seed)
    first_break = MARCH_T_MAX
    for _ in range(MARCH_DIRECTIONS):
        phi = acs.random_tangent(J, int(rng.integers(0, 2**31 - 1)))
        t = resolution
        while t < first_break:  # later breaks cannot lower the minimum
            ts = []
            while t < first_break and len(ts) < MARCH_CHUNK:
                ts.append(t)
                t += resolution
            dists = acs.distances_or_inf(J.mat, acs.exp_maps(J, phi, ts))
            # past the cut locus (inf) or no longer minimizing
            broken = [tk for tk, d in zip(ts, dists.tolist())
                      if d == math.inf or d < tk - 2.0 * resolution]
            if broken:
                first_break = min(first_break, broken[0])
                break
    return first_break - resolution


# -- cached end-to-end computation -------------------------------------------

def cache_path() -> str:
    return os.environ.get("KAHLER_PROBE_CACHE", DEFAULT_CACHE)


def compute_delta(n: int, num_samples: int = DEFAULT_SAMPLES,
                  resolution: float = MAX_RESOLUTION, seed: int = 0,
                  epsilon_override: float | None = None,
                  use_cache: bool = True) -> DeltaConstant:
    """Delta constant with JSON file caching keyed by parameters.  A cached
    entry is a hit only when ``DeltaConstant`` accepts its epsilon and
    inj_lower and rebuilds its delta; anything else is estimated again and
    its entry overwritten.  ``DeltaConstant`` also rejects an
    ``epsilon_override`` that is not finite and positive, with a
    ValueError."""
    key = f"n={n};seed={seed};ns={num_samples};res={resolution}"
    if epsilon_override is not None:
        key += f";eps={epsilon_override!r}"
    path = cache_path()
    if use_cache:
        try:
            rec = _read_cache(path)[key]
            delta = DeltaConstant(n, rec["epsilon"], rec["inj_lower"])
            if delta.delta == rec["delta"]:
                return delta
        except (KeyError, OverflowError, TypeError, ValueError):
            pass
    eps = (estimate_epsilon(n, num_samples=num_samples, seed=seed)
           if epsilon_override is None else epsilon_override)
    delta = DeltaConstant(n, eps, estimate_injectivity(n, resolution=resolution,
                                                       seed=seed))
    if use_cache:
        _write_cache(path, key, {"epsilon": delta.epsilon_used,
                                 "inj_lower": delta.inj_used, "delta": delta.delta})
    return delta


def _read_cache(path: str) -> dict:
    """The cache file's entries; empty when the file is missing, unreadable
    or not a JSON object."""
    try:
        with open(path) as fh:
            cache = json.load(fh)
    except (OSError, ValueError):
        return {}
    return cache if isinstance(cache, dict) else {}


@contextlib.contextmanager
def _cache_lock(path: str):
    """Hold an exclusive flock on the sibling file ``<path>.lock`` and remove
    that file on release.  A process that got the lock of a file another
    process has since removed retries on the current one, so one writer at
    a time holds the lock."""
    lock = path + ".lock"
    while True:
        with open(lock, "a") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                current = os.path.samestat(os.stat(lock), os.fstat(fh.fileno()))
            except FileNotFoundError:
                current = False
            if current:
                try:
                    yield
                finally:
                    with contextlib.suppress(OSError):
                        os.unlink(lock)
                return


def _write_cache(path: str, key: str, record: dict) -> None:
    """Add one entry to the cache file.  Under the cache lock the file is
    re-read, so entries that other processes wrote since this one read it
    survive, and then replaced atomically: dump to a temp file in the same
    directory, then rename it over the cache.  A failed write leaves the
    previous file as it was and no temp file behind; an OSError is ignored,
    since the cache is only an optimization."""
    try:
        with _cache_lock(path):
            cache = _read_cache(path)
            cache[key] = record
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".delta_cache_", suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(cache, fh, indent=1, sort_keys=True)
                os.replace(tmp, path)
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(tmp)
    except OSError:
        pass
