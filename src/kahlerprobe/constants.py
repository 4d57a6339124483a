"""Estimation of the dichotomy constant delta = min(inj/2, pi/(4 sqrt(eps))).

``eps`` is an upper bound on the sectional curvature of the structure space,
estimated by sampling 2-planes at the canonical base point (homogeneity makes
one point sufficient) and refining the best candidates by local ascent.
The injectivity radius is lower-bounded by marching along random unit-speed
geodesics until the geodesic stops minimizing or the log map fails.  Both
estimators are conservative in the direction that keeps the dichotomy
sound: a too-large eps or too-small inj only shrinks delta.  A cache entry
is read through ``DeltaConstant``: one that does not rebuild its own delta
is a miss.  The cache file is replaced atomically, so a failed or concurrent
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
from .errors import DegeneratePlane, DimensionTooSmall

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
class CurvatureBound:
    n: int
    epsilon: float
    method: str  # "refined" (estimate_epsilon) | "user_override"
    samples: int
    max_sampled: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, not {self.epsilon!r}")
        if self.epsilon < self.max_sampled:
            raise ValueError("epsilon below a recorded sample curvature")


@dataclass(frozen=True)
class InjectivityEstimate:
    n: int
    inj_lower: float
    resolution: float

    def __post_init__(self):
        if self.inj_lower <= 0.0:
            raise ValueError("inj_lower must be positive")


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


def _random_plane(J, seed):
    phi = acs.random_tangent(J, seed)
    psi = acs.random_tangent(J, seed + 500_009)
    c = acs.metric_inner(phi, psi)
    psi = acs.TangentPhi(J, psi.mat - c * phi.mat)
    nrm = psi.norm()
    if nrm < 1e-8:
        return None
    return phi, psi.scaled(1.0 / nrm)


def estimate_epsilon(n: int, num_samples: int = DEFAULT_SAMPLES,
                     seed: int = 0) -> CurvatureBound:
    """Sampled upper bound on sectional curvature, refined by local ascent
    from the ten best sampled planes."""
    if n < 2:
        raise DimensionTooSmall("no 2-planes for n = 1")
    if num_samples < MIN_SAMPLES:
        raise ValueError(f"num_samples must be >= {MIN_SAMPLES}")
    J = acs.canonical_j(n)
    rng = np.random.default_rng(seed)
    plane_seeds = rng.integers(0, 2**31 - 1, size=num_samples)
    found = []
    for ps in plane_seeds:
        plane = _random_plane(J, int(ps))
        if plane is None:
            continue
        found.append((acs.sectional_curvature(J, *plane), plane))
    found.sort(key=lambda kv: -kv[0])
    best = found[0][0]
    for k0, (phi, psi) in found[:10]:
        cur, cur_plane = k0, (phi, psi)
        step = 0.2
        while step > 1e-6:
            improved = False
            for _ in range(20):
                dphi = acs.random_tangent(J, int(rng.integers(0, 2**31 - 1)), step)
                dpsi = acs.random_tangent(J, int(rng.integers(0, 2**31 - 1)), step)
                a = acs.TangentPhi(J, cur_plane[0].mat + dphi.mat)
                b = acs.TangentPhi(J, cur_plane[1].mat + dpsi.mat)
                try:
                    k = acs.sectional_curvature(J, a, b)
                except DegeneratePlane:
                    continue
                if k > cur + 1e-10:
                    cur, cur_plane = k, (a, b)
                    improved = True
            if not improved:
                step *= 0.5
        best = max(best, cur)
    return CurvatureBound(n=n, epsilon=SAFETY_FACTOR * best, method="refined",
                          samples=num_samples, max_sampled=best)


def estimate_injectivity(n: int, resolution: float = MAX_RESOLUTION,
                         seed: int = 0) -> InjectivityEstimate:
    """Lower bound on the injectivity radius via a geodesic-minimality march."""
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
    return InjectivityEstimate(n=n, inj_lower=first_break - resolution,
                               resolution=resolution)


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
    its entry overwritten."""
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
    if epsilon_override is not None:
        eps = CurvatureBound(n=n, epsilon=epsilon_override, method="user_override",
                             samples=0)
    else:
        eps = estimate_epsilon(n, num_samples=num_samples, seed=seed)
    inj = estimate_injectivity(n, resolution=resolution, seed=seed)
    delta = DeltaConstant(n, eps.epsilon, inj.inj_lower)
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
