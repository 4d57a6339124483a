"""Chart-defined Riemannian manifolds and numerical holonomy.

A manifold is a single coordinate chart: a box domain, a smooth metric
coefficient function, and optionally analytic Christoffel symbols.  The
chart layer takes (..., d) stacks of points: ``metric`` reads the user's
one-point metric once per point, and ``orthonormal_frame``, ``christoffel``
(a batched (P, d) callable, else central differences of the metric) and
``central_difference`` (one call on every point's stencil) each answer a
stack at once.  Parallel transport integrates the first-order transport ODE
with classical RK4 for every coordinate basis vector at once, then expresses
the transport matrix in g-orthonormal frames at the endpoints, where it is
orthogonal up to the integration defect.  A path is stored once, as a tuple
of pieces (straight moves or smooth curves, each read on an array of
parameters); joining and reversing paths are operations on that tuple.
There is one transport kernel, and it is stacked: paths with the same piece
count share their stage times, so B of them are transported as one (B, d, d)
stack.  The kernel steps each piece on its own parameter interval, in blocks
of at most BLOCK_STEPS steps, so its peak memory does not grow with the step
count: it evaluates the piece of every path at all the block's stage times,
checks those points against the box in one call and evaluates their
Christoffels in one call.  RK4 reuses stages: an n-step block evaluates the
Christoffels at 2n + 1 points per path, not 4n.  The transport ODE is
linear, so an RK4 step is V -> P_i V with a step map P_i that does not
depend on V: the kernel forms the n step maps of a block as one (n, B, d, d)
stack, and multiplies them out STEP_CHUNK steps at a time in pairwise
rounds; a block is a whole number of chunks, so the order is fixed by the
piece's step count alone.  Step counts are bounded to [100, MAX_STEPS].
Each slice of the stack has the bits of the path transported alone;
``parallel_transport``, the one checked transport, takes a list of paths and
rejects the first slice whose orthogonality defect reaches the limit.
``holonomy_samples`` is the one place that checks that a path is a loop at
the base point: it admits a path that has pieces and whose ends both lie
within 1e-9 of that point.  Holonomy is sampled by transporting families of
such loops in one kernel call and optionally closing the sample under
products and inverses.  The closure runs level by level: one stacked matmul
forms a level's products, one test finds which of them lie within 1e-9 of a
kept matrix or of each other (comparing in full only the pairs that a sorted
linear key leaves possible) and keeps the first of each in word order, and
one concatenation appends them to the (N, d, d) stack of kept matrices.  A
product's loop refers to its generators' pieces.
The catalog charts have closed-form metrics and batched Christoffels with no
loop over points: the conformal spheres' write their 3d nonzero slabs, and
Fubini-Study's come from its complex connection realified through a
constant basis, one matmul for a whole stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .acs import canonical_j
from .errors import (
    DimensionMismatch,
    InvalidLoopFamily,
    LoopEscapesDomain,
    MetricNotInvertible,
    OutsideDomain,
    StepTooCoarse,
    TooManySteps,
    UnknownManifold,
)

FD_STEP = 1e-5          # finite-difference step for Christoffels
DEFECT_LIMIT = 1e-4     # raw orthogonality defect beyond which results are rejected


@dataclass(frozen=True, eq=False)
class ManifoldChart:
    """A coordinate chart with metric g_ij(x) on a box domain.

    ``metric`` takes one point x of shape (dim,) and returns g(x).  The
    optional analytic ``christoffel`` is batched: it takes a (P, dim) array
    of points and returns Gamma[p, k, i, j] = Gamma^k_ij at point p, shape
    (P, dim, dim, dim); each row's result must not depend on the other
    rows."""

    dim: int
    metric: callable            # x -> (dim, dim) symmetric positive-definite
    domain: np.ndarray          # (dim, 2) per-axis closed intervals
    christoffel: callable = None  # optional analytic (P, dim) -> (P, dim, dim, dim)
    name: str = "chart"

    def __post_init__(self):
        object.__setattr__(self, "domain", np.array(self.domain, dtype=float))
        self.domain.setflags(write=False)

    def coords(self, x) -> np.ndarray:
        """x as float coordinates, one point per row; DimensionMismatch
        unless its last axis has length ``dim``."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise DimensionMismatch(
                f"point of shape {x.shape} on the {self.dim}-dimensional {self.name}")
        return x

    def contains(self, x) -> bool:
        """Whether every point of x lies in the box."""
        x = self.coords(x)
        return bool(np.all(x >= self.domain[:, 0]) and np.all(x <= self.domain[:, 1]))


@dataclass(frozen=True)
class SmoothPath:
    """A path t in [0, 1] in chart coordinates, stored once as its pieces.

    Piece k of m is a ``(map, velocity)`` pair on s = t m - k in [0, 1];
    both take an array of s and return one row per entry.  The transport
    integrator steps each piece on its own, so the velocity may jump between
    pieces (rectangle corners), and checks each piece against the box once.
    """

    pieces: tuple
    description: dict = field(default_factory=dict)

    def map(self, t: float) -> np.ndarray:
        """The point at t; t = 1 is read in the last piece (past 16 pieces
        m - 1e-15 rounds to m, so the index is bounded by m - 1)."""
        m = len(self.pieces)
        s = min(t * m, m - 1e-15)
        k = min(int(s), m - 1)
        return self.pieces[k][0](np.array([s - k]))[0]

    def reversed(self) -> "SmoothPath":
        return SmoothPath(
            tuple((lambda s, f=f: f(1.0 - s), lambda s, v=v: -v(1.0 - s))
                  for f, v in reversed(self.pieces)),
            description={"kind": "reversed", "of": self.description},
        )


MIN_MOVE = 1e-15  # a polyline coordinate moving by at most this stays put


def _straight(a, b) -> tuple:
    """The piece a + s (b - a), velocity b - a."""
    d = b - a
    return lambda s: a + s[:, None] * d, lambda s: np.broadcast_to(d, (s.size, d.size))


def polyline(vertices) -> SmoothPath:
    """Straight pieces through the vertices; a coordinate that would move by
    at most ``MIN_MOVE`` stays put, and a move left with none is dropped."""
    a = np.asarray(vertices[0], dtype=float)
    pieces = []
    for b in vertices[1:]:
        b = np.where(np.abs(b - a) > MIN_MOVE, b, a)
        if np.any(b != a):
            pieces.append(_straight(a, b))
            a = b
    return SmoothPath(tuple(pieces))


def curve(map, velocity) -> SmoothPath:
    """One piece from a scalar curve t -> point on [0, 1] and its velocity
    t -> d map / dt."""
    return SmoothPath(((lambda s: np.array([map(t) for t in s.tolist()], dtype=float),
                        lambda s: np.array([velocity(t) for t in s.tolist()], dtype=float)),))


def concatenate_paths(paths) -> SmoothPath:
    """Join paths end to end; their pieces share [0, 1] evenly."""
    paths = list(paths)
    return SmoothPath(tuple(pc for p in paths for pc in p.pieces),
                      description={"kind": "concatenation",
                                   "parts": [p.description for p in paths]})


@dataclass(frozen=True, eq=False)
class HolonomySample:
    """A loop together with the orthogonal matrix it induces on the
    orthonormal frame at the base point."""

    base_point: np.ndarray
    loop: SmoothPath
    matrix: np.ndarray
    ode_steps: int
    orthogonality_defect: float
    word: tuple = ()


# -- Christoffel symbols ------------------------------------------------------

def metric(chart: ManifoldChart, x) -> np.ndarray:
    """g at every point of x, shape (..., d, d): the chart's single-point
    ``metric`` read once per point."""
    x = chart.coords(x)
    g = np.array([chart.metric(y) for y in x.reshape(-1, chart.dim)], dtype=float)
    if len(g) and g.shape[1:] != (chart.dim, chart.dim):
        raise DimensionMismatch(f"metric of {chart.name} gave shape {g.shape[1:]} at a point")
    return g.reshape(x.shape + (chart.dim,))


def central_difference(f, x, h):
    """f(x) and df[..., k, :] = (f(x + h_k e_k) - f(x - h_k e_k)) / (2 h_k) at each
    point of x, (..., d), for the step array h, from one f call on the (..., 2d + 1,
    d) stencil, each point's rows adjacent: x, then x +- h_k e_k for k in order."""
    x = np.asarray(x, dtype=float)
    pts = np.repeat(x[..., None, :], 2 * len(h) + 1, axis=-2)
    pts[..., 1::2, :] += np.diag(h)
    pts[..., 2::2, :] -= np.diag(h)
    F = np.moveaxis(f(pts), x.ndim - 1, 0)  # stencil axis first
    df = (F[1::2] - F[2::2]) / (2.0 * h).reshape((-1,) + (1,) * (F.ndim - 1))
    return F[0], np.moveaxis(df, 0, x.ndim - 1)


def christoffel(chart: ManifoldChart, x) -> np.ndarray:
    """Gamma[..., k, i, j] at every point of x, shape (..., d): the chart's
    analytic Christoffels, else central differences of the metric, in one
    call on the (P, d) stack of points."""
    x = chart.coords(x)
    d = chart.dim
    pts = x.reshape(-1, d)
    if chart.christoffel is None:
        return _fd_christoffel(chart, pts).reshape(x.shape + (d, d))
    G = np.asarray(chart.christoffel(pts), dtype=float)
    if G.shape != (len(pts), d, d, d):
        raise DimensionMismatch(
            f"christoffel of {chart.name} gave shape {G.shape} for {len(pts)} points; "
            f"a (P, {d}) stack needs (P, {d}, {d}, {d})")
    return G.reshape(x.shape + (d, d))


def _fd_christoffel(chart: ManifoldChart, x) -> np.ndarray:
    """Gamma[p, k, i, j] at a (P, d) stack of points by central differences of
    the metric; OutsideDomain names the first point too near the boundary."""
    h = FD_STEP
    near = ~np.all((x >= chart.domain[:, 0] + 2.0 * h) & (x <= chart.domain[:, 1] - 2.0 * h), -1)
    if near.any():
        raise OutsideDomain(f"{x[near.argmax()]} too close to the domain boundary for step {h}")
    # dg[p, l, i, j] = d g_ij / d x_l
    g, dg = central_difference(lambda y: metric(chart, y), x, np.full(chart.dim, h))
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise MetricNotInvertible(str(exc)) from exc
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), term[p, i, j, l]
    term = dg + np.swapaxes(dg, 1, 2) - np.moveaxis(dg, 1, 3)
    return 0.5 * np.einsum("pkl,pijl->pkij", ginv, term)


def orthonormal_frame(chart: ManifoldChart, x) -> np.ndarray:
    """Columns form a g-orthonormal basis at every point of x, (..., d, d):
    Gram-Schmidt on the coordinate basis, as the inverse transposed Cholesky factor."""
    g = metric(chart, x)
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise MetricNotInvertible(f"metric not positive definite at {x}") from exc
    return np.swapaxes(np.linalg.solve(L, np.eye(chart.dim)), -1, -2)  # L^{-T}, upper triangular


# -- parallel transport -------------------------------------------------------

STEP_CHUNK = 128  # RK4 step maps multiplied out in one pairwise product


def _step_maps(A, h: float) -> np.ndarray:
    """The RK4 step maps of V' = A(t) V, an (n, ...) stack, from A at the
    2n + 1 stage times t_0, t_0 + h/2, t_0 + h, ..., t_0 + n h: step i is
    V -> P_i V, where P_i = I + (h/6)(K1 + 2 K2 + 2 K3 + K4) is the step
    applied to I, so it does not depend on V."""
    I = np.eye(A.shape[-1])
    K1 = A[:-1:2]
    K2 = A[1::2] @ (I + 0.5 * h * K1)
    K3 = A[1::2] @ (I + 0.5 * h * K2)
    K4 = A[2::2] @ (I + h * K3)
    return I + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def _step_product(P, V) -> np.ndarray:
    """(P_{n-1} ... P_1 P_0) V for an (n, ...) stack of step maps P.  Each
    chunk of STEP_CHUNK maps is multiplied out in pairwise rounds (P_1 P_0,
    P_3 P_2, ..., an odd last map carried to the next round) and then
    applied to V.  The order of the products depends on n alone, so each
    slice of a stack gets the bits of its maps multiplied alone."""
    for c in range(0, len(P), STEP_CHUNK):
        Q = P[c:c + STEP_CHUNK]
        while len(Q) > 1:
            pairs = Q[1::2] @ Q[:-1:2]
            Q = np.concatenate([pairs, Q[-1:]]) if len(Q) % 2 else pairs
        V = Q[0] @ V
    return V


BLOCK_STEPS = 8 * STEP_CHUNK  # RK4 steps of one piece held in memory at once
MAX_STEPS = 100_000  # ODE steps a transport may ask for


def _stage_times(t0: float, t1: float, steps: int):
    """Yield (h, ts) for the piece [t0, t1] in n >= 2 RK4 steps of h, about
    steps (t1 - t0), one block of nb <= BLOCK_STEPS steps at a time: ts holds
    the block's 2 nb + 1 stage times t, t + h/2, t + h, ..., t + nb h.  Each
    block's step starts carry on the left fold t += h from the last start of
    the block before, so they have the bits of one fold over the piece."""
    n = max(2, int(math.ceil(steps * (t1 - t0))))
    h = (t1 - t0) / n
    start = t0
    for c in range(0, n, BLOCK_STEPS):
        nb = min(BLOCK_STEPS, n - c)
        starts = np.add.accumulate(np.r_[start, np.full(nb, h)])  # t += h, step by step
        ts = np.empty(2 * nb + 1)
        ts[0::2] = starts
        ts[1::2] = starts[:-1] + 0.5 * h
        start = starts[-1]
        yield h, ts


def _transport_coordinate(chart: ManifoldChart, paths, steps: int) -> np.ndarray:
    """Coordinate-frame transport matrices of the paths, one (B, d, d) stack
    in input order, by piecewise RK4 on V' = -M(t) V.

    Paths with the same piece count m share their stage times and step as
    one stack.  Piece k covers t in [k/m, (k+1)/m] in n >= 2 steps, about
    steps/m, walked in blocks of at most BLOCK_STEPS steps (``_stage_times``),
    so peak memory does not grow with steps.  The stage points of a block of
    every path in the stack are checked against the box with one call and
    their Christoffels evaluated with one call; M(t) is then formed once per
    stage time: k2 and k3 share M(t + h/2), and k4's M(t + h) is the next
    step's k1.  The ODE is linear, so the block's RK4 steps are step maps,
    formed for the whole stack at once and multiplied onto V in a fixed
    pairwise order (``_step_maps``, ``_step_product``); a block is a whole
    number of STEP_CHUNKs, so that order is the one of the whole piece."""
    d = chart.dim
    out = np.empty((len(paths), d, d))
    groups = {}
    for b, path in enumerate(paths):
        groups.setdefault(len(path.pieces), []).append(b)
    for m, idx in groups.items():
        V = np.tile(np.eye(d), (len(idx), 1, 1))
        for k in range(m):
            t0, t1 = k / m, (k + 1) / m
            # keep stage times strictly inside the piece so that the one-sided
            # velocity at corners is picked up correctly
            nudge = 1e-9 * (t1 - t0)
            for h, ts in _stage_times(t0, t1, steps):
                s = np.clip(ts, t0 + nudge, t1 - nudge) * m - k
                # (2 nb + 1, B, d): stage time first, so M[i] is one contiguous stack
                x = np.stack([paths[b].pieces[k][0](s) for b in idx], axis=1)
                if not chart.contains(x):
                    raise OutsideDomain(f"path leaves the domain for t in [{t0}, {t1}]")
                v = np.stack([m * paths[b].pieces[k][1](s) for b in idx], axis=1)
                # this einsum, unlike a matmul, gives each point the bits of a
                # single-point einsum("kij,i->kj")
                A = -np.einsum("pkij,pi->pkj", christoffel(chart, x.reshape(-1, d)),
                               v.reshape(-1, d)).reshape(len(ts), len(idx), d, d)
                V = _step_product(_step_maps(A, h), V)
        out[idx] = V
    return out


def transport_with_defect(chart: ManifoldChart, paths, steps: int):
    """Orthonormal-frame transport matrices of the paths, one (B, d, d)
    stack, and their raw orthogonality defects, a list of B floats, both in
    input order; StepTooCoarse below 100 steps and TooManySteps above
    MAX_STEPS, before any path is transported."""
    if steps < 100:
        raise StepTooCoarse(f"{steps} ODE steps; at least 100 are needed")
    if steps > MAX_STEPS:
        raise TooManySteps(f"{steps} ODE steps; at most {MAX_STEPS} are allowed")
    paths = list(paths)
    d = chart.dim
    P = _transport_coordinate(chart, paths, steps)
    Fp = orthonormal_frame(chart, np.reshape([path.map(0.0) for path in paths], (-1, d)))
    Fq = orthonormal_frame(chart, np.reshape([path.map(1.0) for path in paths], (-1, d)))
    A = np.linalg.solve(Fq, P @ Fp)
    defects = np.max(np.abs(np.swapaxes(A, 1, 2) @ A - np.eye(d)), axis=(1, 2))
    return A, defects.tolist()


def _check_defect(defect: float) -> None:
    """Reject a transport unless its defect is finite and below the limit."""
    if not defect < DEFECT_LIMIT:
        kind = "orthogonality" if math.isfinite(defect) else "non-finite orthogonality"
        raise StepTooCoarse(f"{kind} defect {defect:.3e} >= {DEFECT_LIMIT}; raise steps")


def parallel_transport(chart: ManifoldChart, paths, steps: int) -> np.ndarray:
    """Orthonormal-frame parallel transport along each path, one (B, d, d)
    stack in input order; StepTooCoarse for the first path whose defect is
    not below the limit."""
    A, defects = transport_with_defect(chart, paths, steps)
    for defect in defects:
        _check_defect(defect)
    return A


def nearest_orthogonal(A: np.ndarray) -> np.ndarray:
    """Polar factor of A: the nearest orthogonal matrix."""
    U, _, Vt = np.linalg.svd(A)
    return U @ Vt


# -- loop families and holonomy sampling --------------------------------------

INSIDE_PROBES = 256  # loop points _check_inside tests against the box


def _check_inside(chart, path):
    """LoopEscapesDomain unless each of the m pieces is in the box at
    INSIDE_PROBES // m evenly spaced s, ends included (one ``contains`` call
    per piece)."""
    s = np.linspace(0.0, 1.0, INSIDE_PROBES // len(path.pieces))
    if not all(chart.contains(pmap(s)) for pmap, _ in path.pieces):
        raise LoopEscapesDomain(f"loop leaves the domain of {chart.name}")


def rectangle_loop(p, axis_i: int, axis_j: int, scale: float) -> SmoothPath:
    """The coordinate rectangle loop of side ``scale`` in the (i, j)-plane:
    always its four sides, however little they move."""
    p = np.asarray(p, dtype=float)
    ei, ej = np.zeros((2, p.size))
    ei[axis_i] = ej[axis_j] = scale
    corners = [p, p + ei, p + ei + ej, p + ej, p]
    return SmoothPath(tuple(_straight(a, b) for a, b in zip(corners, corners[1:])),
                      description={"kind": "rectangle", "base": p.tolist(),
                                   "axes": [axis_i, axis_j], "scale": scale})


def fourier_loop(p, coeffs_a: np.ndarray, coeffs_b: np.ndarray) -> SmoothPath:
    """Closed curve p + sum_k (a_k sin 2pi k t + b_k cos 2pi k t) - sum_k b_k."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(coeffs_a, dtype=float)  # (K, dim)
    b = np.asarray(coeffs_b, dtype=float)
    start = p - b.sum(axis=0)
    ws = 2.0 * math.pi * np.arange(1, len(a) + 1)

    def fmap(s):
        x = np.tile(start, (s.size, 1))
        for ak, bk, w in zip(a, b, ws):
            x = x + ak * np.sin(w * s)[:, None] + bk * np.cos(w * s)[:, None]
        return x

    def fvel(s):
        v = np.zeros((s.size, p.size))
        for ak, bk, w in zip(a, b, ws):
            v = v + w * (ak * np.cos(w * s)[:, None] - bk * np.sin(w * s)[:, None])
        return v

    return SmoothPath(((fmap, fvel),),
                      description={"kind": "fourier", "base": p.tolist(),
                                   "a": a.tolist(), "b": b.tolist()})


LOOP_KINDS = ("coordinate_rectangles", "fourier_random")


def check_loop_family(kind: str, count: int, scale: float) -> None:
    """Reject a loop family request that cannot yield a loop that moves."""
    if kind not in LOOP_KINDS:
        raise InvalidLoopFamily(f"unknown loop family kind {kind!r}")
    if count < 1:
        raise InvalidLoopFamily(f"{count} loops requested; at least 1 is needed")
    if not abs(scale) > MIN_MOVE or math.isinf(scale):
        raise InvalidLoopFamily(
            f"loop scale {scale!r}; a finite scale above {MIN_MOVE} in magnitude is needed")


def loop_family(chart: ManifoldChart, p, kind: str, count: int, scale: float,
                seed: int = 0) -> list:
    """Generate closed loops based at p.

    ``coordinate_rectangles``: one rectangle per axis pair (count ignored
    beyond the number of pairs times repeats with alternating orientation).
    ``fourier_random``: seeded closed Fourier curves through p, with
    harmonic k's coefficients uniform in [-|scale|, |scale|] / k.
    """
    check_loop_family(kind, count, scale)
    p = np.asarray(p, dtype=float)
    if not chart.contains(p):
        raise OutsideDomain(f"base point {p} outside {chart.name}")
    loops = []
    if kind == "coordinate_rectangles":
        pairs = list(itertools.combinations(range(chart.dim), 2))
        for idx in range(count):
            i, j = pairs[idx % len(pairs)]
            s = scale if (idx // len(pairs)) % 2 == 0 else -scale
            if p[i] + s == p[i] or p[j] + s == p[j]:
                raise InvalidLoopFamily(
                    f"loop scale {s!r} does not move {p.tolist()} along axes {i} and {j}")
            loops.append(rectangle_loop(p, i, j, s))
    else:  # fourier_random
        rng = np.random.default_rng(seed)
        r = abs(scale)
        for _ in range(count):
            a = rng.uniform(-r, r, size=(3, chart.dim)) / np.array([[1.0], [2.0], [3.0]])
            b = rng.uniform(-r, r, size=(3, chart.dim)) / np.array([[1.0], [2.0], [3.0]])
            loops.append(fourier_loop(p, a, b))
    for loop in loops:
        _check_inside(chart, loop)
    return loops


CLOSE = 1e-9        # a product within this of a kept matrix in every entry is a duplicate
PAIR_CHUNK = 8192   # matrix pairs compared entry by entry at once


def _near_pairs(flat, key, width, rows, cols):
    """Yield, chunk by chunk, the pairs (r, c) of ``rows`` and ``cols``
    (indices into the flattened matrices ``flat``) that lie within CLOSE of
    each other in every entry.  Only the pairs whose keys differ by at most
    ``width`` are compared, PAIR_CHUNK at a time."""
    cols = cols[np.argsort(key[cols])]
    lo = np.searchsorted(key[cols], key[rows] - width)
    n = np.searchsorted(key[cols], key[rows] + width, side="right") - lo
    cuts = np.searchsorted(np.cumsum(n), range(PAIR_CHUNK, int(n.sum()), PAIR_CHUNK))
    for part in np.split(np.arange(rows.size), cuts):
        k = n[part]
        r = np.repeat(rows[part], k)
        c = cols[np.repeat(lo[part] - np.cumsum(k) + k, k) + np.arange(k.sum())]
        near = np.max(np.abs(flat[r] - flat[c]), axis=1) < CLOSE
        yield r[near], c[near]


def _new_in_order(old, cands) -> list:
    """Whether each of the (M, d, d) candidates is new, decided in order: a
    candidate is a duplicate when an ``old`` matrix or an earlier new
    candidate is within CLOSE of it in every entry, so a matrix with a NaN
    or inf entry is never one.  Pairs are found through the keys w . a:
    |w . (a - b)| <= sum(w) max|a - b|, and the width allows for the keys'
    rounding.  Candidates near an old matrix are dropped first and never
    compared with each other, so a level of products that all repeat one
    old matrix (a flat chart's identities) costs no pairs among them."""
    m = len(old)
    flat = np.concatenate([old, cands]).reshape(-1, old.shape[-1] ** 2)
    w = np.linspace(1.0, 2.0, flat.shape[1])
    key = flat @ w
    rows = np.flatnonzero(np.isfinite(key))
    width = 2.0 * CLOSE * w.sum() + 1e-13 * np.max(np.abs(flat[rows]) @ w, initial=0.0)
    dup = np.zeros(len(flat), dtype=bool)  # within CLOSE of an old matrix
    for r, _ in _near_pairs(flat, key, width, rows[rows >= m], rows[rows < m]):
        dup[r] = True
    rest = rows[(rows >= m) & ~dup[rows]]
    earlier = {}  # candidate -> the earlier candidates within CLOSE
    for r, c in _near_pairs(flat, key, width, rest, rest):
        before = c < r
        for x, y in zip(c[before].tolist(), r[before].tolist()):
            earlier.setdefault(y - m, []).append(x - m)
    new = []
    for i in range(len(cands)):
        new.append(not dup[m + i] and not any(new[j] for j in earlier.get(i, ())))
    return new


def holonomy_samples(chart: ManifoldChart, p, loops, steps: int,
                     word_length: int = 1) -> list:
    """Transport every loop, in one kernel call, and optionally close under
    products/inverses.

    A loop is admitted when it has pieces and its points at t = 0 and t = 1
    both lie within 1e-9 of p in every coordinate, the one check that a path
    is a loop at p; the products of admitted loops are not checked again.

    Products are formed on the polar-corrected matrices; their loops are the
    corresponding path concatenations, so every sample stays independently
    replayable.  The closure runs level by level: the loops, their inverses
    when word_length > 1, then each word of the previous level times each
    generator (1, -1, 2, -2, ...) without an immediate cancellation, formed
    in one stacked matmul.  Past the loops, a candidate is a duplicate when
    a kept matrix, of an earlier level or earlier in its own level, is within
    1e-9 of it in every entry; a NaN is never one.  One ``_new_in_order``
    call tests a level and keeps it in word order, so a product kept earlier
    in a level hides a later duplicate and a dropped one hides nothing.  Each
    level's kept matrices are concatenated onto one read-only (N, d, d)
    stack, and each sample's matrix is a view into it.
    """
    if word_length < 1:
        raise InvalidLoopFamily(f"word length {word_length}; at least 1 is needed")
    p = np.asarray(p, dtype=float)
    loops = list(loops)
    for loop in loops:
        if not loop.pieces:
            raise ValueError("holonomy sampling needs loops that move")
        if not np.all(np.abs(np.array([loop.map(0.0), loop.map(1.0)]) - p) <= 1e-9):
            raise ValueError("loop does not start and end within 1e-9 of p")
    mats, defects = transport_with_defect(chart, loops, steps)
    for defect in defects:
        _check_defect(defect)
    # generators +1..+k, -1..-k: (word, loop, defect) and G; products take 1, -1, 2, -2, ...
    k = len(loops)
    gens = [((i + 1,), loop, defect) for i, (loop, defect) in enumerate(zip(loops, defects))]
    gens += [((-w[0],), loop.reversed(), defect) for w, loop, defect in gens]
    Q = nearest_orthogonal(mats)
    G = np.concatenate([Q, np.swapaxes(Q, 1, 2)])
    order = [j for i in range(k) for j in (i, k + i)]

    kept, stack = gens[:k], G[:k]
    if word_length > 1:
        new = _new_in_order(stack, G[k:])
        kept += [g for g, n in zip(gens[k:], new) if n]
        stack = np.concatenate([stack, G[k:][new]])
    frontier, F = gens, G  # every generator, kept or not
    for _ in range(word_length - 1):
        pairs = [(i, j) for i, (word, _, _) in enumerate(frontier)
                 for j in order if gens[j][0] != (-word[-1],)]
        rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
        cands = (F[:, None] @ G)[rows, cols]
        new = _new_in_order(stack, cands)
        frontier = [(frontier[i][0] + gens[j][0],
                     concatenate_paths([gens[j][1], frontier[i][1]]),
                     max(frontier[i][2], gens[j][2]))
                    for (i, j), n in zip(pairs, new) if n]
        F = cands[new]
        kept += frontier
        stack = np.concatenate([stack, F])

    stack.setflags(write=False)
    return [HolonomySample(p, loop, stack[i], steps, defect, word=word)
            for i, (word, loop, defect) in enumerate(kept)]


# -- catalog charts -----------------------------------------------------------

def _conformal_sphere_metric(d):
    def metric(x):
        lam = 2.0 / (1.0 + float(np.dot(x, x)))
        return (lam * lam) * np.eye(d)
    return metric


def _sq_norms(x) -> np.ndarray:
    """|x_p|^2 of each row, with the bits of np.dot(x_p, x_p)."""
    return np.vecdot(x, x)


def _conformal_sphere_christoffel(d):
    # g = e^{2f} delta with f = log 2 - log(1+|x|^2):
    # Gamma^k_ij = delta_ki w_j + delta_kj w_i - delta_ij w_k, w = grad f,
    # written as its 3d nonzero slabs
    def gamma(x):
        w = -2.0 * x / (1.0 + _sq_norms(x))[:, None]
        G = np.zeros((len(x), d, d, d))
        for k in range(d):
            G[:, k, k, :] += w
            G[:, k, :, k] += w
            G[:, :, k, k] -= w
        return G
    return gamma


# Fubini-Study chart: coordinates (x1, y1, x2, y2), z_a = x_a + i y_a, and
# J0 = multiplication by i
_FS_J0 = canonical_j(2).mat


def _fs_connection_basis() -> np.ndarray:
    """Constant E, shape (4, 64), with Gamma[k, i, j] = (x @ E)[16 k + 4 i +
    j] / (1 + |x|^2): the complex connection Gamma^c_ab = -(delta^c_a zbar_b +
    delta^c_b zbar_a) / (1 + |z|^2), taken on real axes u_i = 1 or i of z_a(i)
    and realified."""
    A = np.repeat(np.eye(2), 2, axis=1)        # A[a, i] = 1 iff a(i) = a
    u = np.tile([1.0, 1j], 2)
    Z = (A.T @ A) * u.conj()                   # Z[i, l]: d zbar_{a(i)} / d x_l
    N = -(np.einsum("ci,jl->cijl", A, Z) + np.einsum("cj,il->cijl", A, Z)) \
        * np.outer(u, u)[None, :, :, None]
    return np.stack([N.real, N.imag], axis=1).reshape(64, 4).T


_FS_E = _fs_connection_basis()


def fubini_study_metric(x):
    """Real form of the Fubini-Study metric in the affine chart, normalized
    to the identity at the origin:
    g = ((1 + r^2) I - x x^T - (J0 x)(J0 x)^T) / (1 + r^2)^2."""
    x = np.asarray(x, dtype=float)
    D = 1.0 + float(np.dot(x, x))
    Jx = _FS_J0 @ x
    return (D * np.eye(4) - np.outer(x, x) - np.outer(Jx, Jx)) / (D * D)


def fubini_study_christoffel(x):
    """Closed-form Christoffels of the Fubini-Study chart at a (P, 4) stack
    of points."""
    x = np.asarray(x, dtype=float)
    return (x @ _FS_E).reshape(-1, 4, 4, 4) / (1.0 + _sq_norms(x))[:, None, None, None]


_S2_CHRISTOFFEL = _conformal_sphere_christoffel(2)


def _product_s2_metric(x):
    g = np.zeros((4, 4))
    for blk in range(2):
        xx = x[2 * blk:2 * blk + 2]
        lam = 2.0 / (1.0 + float(np.dot(xx, xx)))
        g[2 * blk:2 * blk + 2, 2 * blk:2 * blk + 2] = (lam * lam) * np.eye(2)
    return g


def _product_s2_christoffel(x):
    G = np.zeros((len(x), 4, 4, 4))
    for blk in range(2):
        sl = slice(2 * blk, 2 * blk + 2)
        G[:, sl, sl, sl] = _S2_CHRISTOFFEL(x[:, sl])
    return G


CATALOG_NAMES = ("flat_torus_4", "round_sphere_2", "round_sphere_4",
                 "fubini_study_cp2", "product_s2_s2")


def catalog(name: str) -> ManifoldChart:
    """Built-in analytic test charts."""
    if name == "flat_torus_4":
        return ManifoldChart(4, lambda x: np.eye(4),
                             [[0.0, 1.0]] * 4,
                             christoffel=lambda x: np.zeros((len(x), 4, 4, 4)),
                             name=name)
    if name == "round_sphere_2":
        return ManifoldChart(2, _conformal_sphere_metric(2),
                             [[-4.0, 4.0]] * 2,
                             christoffel=_conformal_sphere_christoffel(2),
                             name=name)
    if name == "round_sphere_4":
        return ManifoldChart(4, _conformal_sphere_metric(4),
                             [[-4.0, 4.0]] * 4,
                             christoffel=_conformal_sphere_christoffel(4),
                             name=name)
    if name == "fubini_study_cp2":
        return ManifoldChart(4, fubini_study_metric,
                             [[-0.5, 0.5]] * 4,
                             christoffel=fubini_study_christoffel,
                             name=name)
    if name == "product_s2_s2":
        return ManifoldChart(4, _product_s2_metric,
                             [[-4.0, 4.0]] * 4,
                             christoffel=_product_s2_christoffel,
                             name=name)
    raise UnknownManifold(f"no catalog chart named {name!r}")
