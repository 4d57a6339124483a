"""End-to-end dichotomy pipeline.

Sampled holonomy acts on an almost complex structure at the base point by
conjugation.  If the orbit escapes the ball of radius delta, the argmax
loop is a quantified obstruction witness.  If the orbit stays inside, its
Karcher mean is an (approximately) holonomy-fixed structure, which is
extended over the chart by parallel transport and certified by three
finite-difference residuals: covariant constancy, the integrability
obstruction tensor, and closedness of the fundamental 2-form.  Every
numerical failure, from the delta constant on, yields an Inconclusive
verdict naming the failing stage; the pipeline never rounds to a verdict it
cannot back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import acs, holonomy
from .acs import OrthoComplexStructure
from .constants import DeltaConstant, compute_delta
from .errors import (
    DeterminantAnomaly,
    DimensionMismatch,
    GridTooCoarse,
    FormNotAntisymmetric,
    KahlerProbeError,
    OutsideDomain,
)
from .karcher import (DEFAULT_TOL, MeanResult, WeightedSampleSet, karcher_mean,
                      karcher_mean_checked)

TOL_FIX = 1e-5           # fixedness of the averaged structure
TOL_PATH_INDEP = 1e-4    # two-path comparison of the global field
TOL_CERT = 1e-3          # finite-difference certificates at grid_res = 17
CERT_FLOOR = 1e-5        # below the fixedness noise floor, no decay is required
MIN_DECAY = 3.0          # required residual shrink when h is halved
MAX_ROUNDS = 80          # re-orbit-and-average rounds of average_to_fixed
SUB_BOX = 0.8            # share of each domain axis the global field covers


@dataclass(frozen=True)
class ProbeConfig:
    loop_kind: str = "coordinate_rectangles"
    loops: int = 6
    loop_scale: float = 0.5
    ode_steps: int = 400
    word_length: int = 3
    grid_res: int = 17
    field_steps: int = 300
    probe_points: int = 10
    seed: int = 0
    mean_tol: float = DEFAULT_TOL


@dataclass(frozen=True)
class OrbitReport:
    base_J: OrthoComplexStructure
    samples: tuple
    orbit: tuple
    distances: tuple
    max_distance: float
    argmax_loop: int


@dataclass(eq=False)
class GlobalJField:
    """Almost complex structure field built by parallel transport.

    Values are computed on demand by transporting the base structure along
    the canonical axis-ordered path and cached; ``grid`` holds the probe
    points at which the finite-difference certificates are evaluated."""

    chart: holonomy.ManifoldChart
    base_point: np.ndarray
    base_J: OrthoComplexStructure       # orthonormal-frame expression at base
    grid: tuple                          # probe points (interior)
    h: np.ndarray                        # per-axis stencil step
    steps: int
    path_independence_residual: float = math.nan
    _cache: dict = field(default_factory=dict)

    def _canonical_path(self, x, axis_order=None):
        """The axis-parallel polyline from the base point to x, one axis
        at a time in ``axis_order``."""
        order = list(range(self.chart.dim)) if axis_order is None else list(axis_order)
        corners = [np.array(self.base_point, dtype=float)]
        for ax in order:
            corners.append(corners[-1].copy())
            corners[-1][ax] = x[ax]
        return holonomy.polyline(corners)

    def _key(self, x, axis_order=None) -> tuple:
        return (tuple(np.round(x, 12)), tuple(axis_order) if axis_order else None)

    def _transported(self, A: np.ndarray) -> np.ndarray:
        """The base structure carried by the transport matrix A, polar-corrected."""
        P = holonomy.nearest_orthogonal(A)
        return P @ self.base_J.mat @ P.T

    def ortho_j(self, x, axis_order=None) -> np.ndarray:
        """Orthonormal-frame expression of the field at x."""
        key = self._key(x, axis_order)
        if key in self._cache:
            return self._cache[key]
        path = self._canonical_path(x, axis_order)
        if not path.pieces:
            val = self.base_J.mat
        else:
            val = self._transported(holonomy.parallel_transport(self.chart, path, self.steps))
        self._cache[key] = val
        return val

    def coordinate_j(self, x) -> np.ndarray:
        """Coordinate-frame expression F(x) J(x) F(x)^{-1} at every point of
        x, shape (..., d, d).  The points missing from the cache are
        transported in one call, the first point in C order of each rounded
        key deciding its value; then the values are read point by point."""
        F = holonomy.orthonormal_frame(self.chart, x)
        pts = np.reshape(x, (-1, self.chart.dim))
        paths = {}
        for y in pts:
            key = self._key(y)
            if key not in self._cache and key not in paths:
                paths[key] = self._canonical_path(y)
        moving = [key for key, path in paths.items() if path.pieces]
        moved = {}
        if moving:
            moved = dict(zip(moving, holonomy.parallel_transports(
                self.chart, [paths[key] for key in moving], self.steps)))
        for key in paths:
            self._cache[key] = (self._transported(moved[key]) if key in moved
                                else self.base_J.mat)
        J = np.reshape([self.ortho_j(y) for y in pts], F.shape)
        return F @ J @ np.linalg.inv(F)


def orbit(J_p: OrthoComplexStructure, samples) -> OrbitReport:
    """Conjugate J_p by every holonomy sample and record all distances.

    A distance past the cut locus is recorded as +inf: it certainly exceeds
    any delta below the injectivity radius."""
    pts = []
    dists = []
    for s in samples:
        if s.matrix.shape != J_p.mat.shape:
            raise DimensionMismatch("sample dimension differs from J_p")
        if np.linalg.det(s.matrix) < 0.0:
            raise DeterminantAnomaly(
                "holonomy sample with determinant -1; transport on a "
                "connected manifold cannot produce this")
        Jq = acs.conjugate(s.matrix, J_p)
        pts.append(Jq)
        dists.append(acs.distance_or_inf(J_p, Jq))
    max_d = max(dists) if dists else 0.0
    return OrbitReport(base_J=J_p, samples=tuple(samples), orbit=tuple(pts),
                       distances=tuple(dists), max_distance=float(max_d),
                       argmax_loop=int(np.argmax(dists)) if dists else -1)


def near_preservation_test(report: OrbitReport, delta: DeltaConstant) -> bool:
    """True iff the sampled orbit stays inside the ball of radius delta."""
    if report.base_J.n != delta.n:
        raise DimensionMismatch("delta constant has the wrong dimension")
    return report.max_distance <= delta.delta


def average_to_fixed(report: OrbitReport, delta: DeltaConstant,
                     tol: float = DEFAULT_TOL) -> MeanResult:
    """Iterated Karcher mean of the orbit under uniform weights (Haar proxy).

    A single discrete orbit average is only approximately fixed by the
    sampled group, so the mean is re-orbited and re-averaged; since
    conjugation is an isometry fixing the true fixed set, each round
    contracts the unfixed component and the iteration converges
    geometrically.  The convexity hypothesis is verified on the initial
    orbit; later rounds average strictly smaller sets."""
    if not near_preservation_test(report, delta):
        raise ValueError("orbit is not nearly preserved; nothing to average")
    mean = karcher_mean_checked(WeightedSampleSet.uniform(report.orbit), delta, tol=tol)
    if not report.samples:
        return mean
    mats = _matrices(report.samples)
    for _ in range(MAX_ROUNDS):
        if not mean.converged:
            break
        # one conjugate stack gives the round's fixedness and the next samples
        conj = acs.conjugates(mats, mean.mean)
        if _max_distance(mean.mean, conj) < TOL_FIX:
            break
        mean = karcher_mean(WeightedSampleSet.uniform(conj), tol=tol, start=mean.mean)
    return mean


def _matrices(samples) -> np.ndarray:
    """The samples' holonomy matrices as one (N, d, d) stack."""
    return np.stack([s.matrix for s in samples])


def _max_distance(J: OrthoComplexStructure, conj: np.ndarray) -> float:
    """Max distance between J and the slices of a conjugate stack."""
    return max([0.0] + acs.distances_or_inf(J.mat, conj).tolist())


def fixedness_check(J_prime: OrthoComplexStructure, samples) -> float:
    """Max distance between J' and its conjugates by the samples."""
    if not samples:
        return 0.0
    return _max_distance(J_prime, acs.conjugates(_matrices(samples), J_prime))


def build_global_j(chart: holonomy.ManifoldChart, p, J_prime: OrthoComplexStructure,
                   config: ProbeConfig = ProbeConfig()) -> GlobalJField:
    """Extend J' over the central sub-box by canonical-path transport.

    ``config.probe_points`` distinct probe points are drawn, with
    ``config.seed``, from the interior nodes of a ``config.grid_res``-per-axis
    grid, in 4 ``probe_points`` draws; GridTooCoarse when fewer are found.  The
    field itself is evaluated lazily wherever the certificate stencils need
    it, each value transported in ``config.field_steps`` RK4 steps.  Path
    independence is measured by re-deriving the value along the reversed
    axis order at every probe point.
    """
    grid_res, probe_points = config.grid_res, config.probe_points
    if grid_res < 9:
        raise GridTooCoarse("grid_res must be >= 9")
    if probe_points < 1:
        raise GridTooCoarse(f"{probe_points} probe points; at least 1 is needed")
    p = np.asarray(p, dtype=float)
    if not chart.contains(p):
        raise OutsideDomain(f"base point {p} outside the domain")
    lo = chart.domain[:, 0]
    hi = chart.domain[:, 1]
    c = 0.5 * (lo + hi)
    half = 0.5 * SUB_BOX * (hi - lo)
    box_lo, box_hi = c - half, c + half
    h = (box_hi - box_lo) / (grid_res - 1)
    rng = np.random.default_rng(config.seed)
    # interior grid nodes, stencil-safe
    idx_pool = [tuple(v) for v in
                rng.integers(2, grid_res - 2, size=(4 * probe_points, chart.dim))]
    probes = []
    seen = set()
    for iv in idx_pool:
        if iv in seen:
            continue
        seen.add(iv)
        probes.append(box_lo + np.array(iv) * h)
        if len(probes) == probe_points:
            break
    if len(probes) < probe_points:
        raise GridTooCoarse(
            f"{len(probes)} of {probe_points} probe points drawn from the "
            f"{(grid_res - 4) ** chart.dim} interior nodes; raise grid_res")
    field_ = GlobalJField(chart=chart, base_point=p, base_J=J_prime,
                          grid=tuple(probes), h=h, steps=config.field_steps)
    reversed_order = list(range(chart.dim))[::-1]
    worst = 0.0
    for x in probes:
        A = field_.ortho_j(x)
        B = field_.ortho_j(x, axis_order=reversed_order)
        worst = max(worst, float(np.max(np.abs(A - B))))
        acs.validate_j(A, tol=1e-6)
    field_.path_independence_residual = worst
    return field_


def covariant_constancy_check(field_: GlobalJField, scale: float = 1.0) -> float:
    """Max-abs entry of the covariant derivative of the field; the field's
    stencil and the Christoffels at every grid point come from one call each."""
    J, dJ = holonomy.central_difference(field_.coordinate_j, field_.grid, scale * field_.h)
    # G[p, k] = Gamma[p, :, k, :], (Gk)^i_l = Gamma^i_{k l}
    G = np.swapaxes(holonomy.christoffel(field_.chart, field_.grid), 1, 2)
    return float(np.max(np.abs(dJ + G @ J[:, None] - J[:, None] @ G)))


def nijenhuis_check(field_: GlobalJField, scale: float = 1.0) -> float:
    """Max-abs component of the integrability obstruction tensor."""
    J, dJ = holonomy.central_difference(field_.coordinate_j, field_.grid, scale * field_.h)
    t1 = np.einsum("pkj,pkil->pijl", J, dJ)
    t2 = np.einsum("pkl,pkij->pijl", J, dJ)
    t3 = np.einsum("pik,pjkl->pijl", J, dJ) - np.einsum("pik,plkj->pijl", J, dJ)
    return float(np.max(np.abs(t1 - t2 - t3)))


def kahler_form_check(field_: GlobalJField, scale: float = 1.0) -> float:
    """Antisymmetry of omega = g J and max-abs component of d omega."""
    w, dw = holonomy.central_difference(
        lambda x: holonomy.metric(field_.chart, x) @ field_.coordinate_j(x),
        field_.grid, scale * field_.h)
    if float(np.max(np.abs(w + np.swapaxes(w, 1, 2)))) > 1e-8:
        raise FormNotAntisymmetric(
            "fundamental 2-form is not antisymmetric at a probe point")
    ext = dw + np.einsum("pjki->pijk", dw) + np.einsum("pkij->pijk", dw)
    return float(np.max(np.abs(ext)))


@dataclass
class DichotomyVerdict:
    """The outcome of ``probe``.  An Inconclusive verdict names its
    ``failing_stage``; only a failed certificate also carries the orbit,
    mean, field and certificates.  ``delta_used`` is None only when the
    failing stage is ``compute_delta``."""

    kind: str                      # KahlerWitness | HolonomyObstruction | Inconclusive
    delta_used: DeltaConstant
    orbit_report: OrbitReport = None
    mean_result: MeanResult = None
    global_field: GlobalJField = None
    certificates: dict = field(default_factory=dict)
    witness_loop_index: int = -1
    witness_distance: float = math.nan
    failing_stage: str = ""
    detail: str = ""


def default_structure(chart: holonomy.ManifoldChart, p) -> OrthoComplexStructure:
    """AUTO structure: the chart's canonical multiplication-by-i expressed
    in the orthonormal frame (reduces to the canonical block structure on
    conformally flat charts)."""
    n = chart.dim // 2
    Jc = acs.canonical_j(n).mat
    F = holonomy.orthonormal_frame(chart, np.asarray(p, dtype=float))
    return acs.validate_j(np.linalg.solve(F, Jc @ F), tol=1e-8)


def _inconclusive(delta, stage: str, why) -> DichotomyVerdict:
    return DichotomyVerdict(kind="Inconclusive", delta_used=delta,
                            failing_stage=stage, detail=str(why))


def probe(chart: holonomy.ManifoldChart, p, J_p=None,
          config: ProbeConfig = ProbeConfig(),
          delta: DeltaConstant = None) -> DichotomyVerdict:
    """Run the full dichotomy pipeline at base point p.

    Each stage is named once, as it starts; ``compute_delta`` is skipped
    when ``delta`` is given and ``default_structure`` when ``J_p`` is.  One
    boundary turns a KahlerProbeError from any stage into an Inconclusive
    verdict naming that stage; a residual past its tolerance does the same,
    and a failed certificate is named by its key (``nabla_j``, ...)."""
    p = np.asarray(p, dtype=float)
    stage = "compute_delta"
    try:
        if delta is None:
            delta = compute_delta(chart.dim // 2, seed=config.seed)

        stage = "default_structure"
        if J_p is None:
            J_p = default_structure(chart, p)

        stage = "holonomy_samples"
        loops = holonomy.loop_family(chart, p, config.loop_kind, config.loops,
                                     config.loop_scale, seed=config.seed)
        samples = holonomy.holonomy_samples(chart, p, loops, config.ode_steps,
                                            word_length=config.word_length)

        stage = "orbit"
        report = orbit(J_p, samples)
        if not near_preservation_test(report, delta):
            i = report.argmax_loop
            return DichotomyVerdict(kind="HolonomyObstruction", delta_used=delta,
                                    orbit_report=report, witness_loop_index=i,
                                    witness_distance=report.distances[i])

        stage = "average_to_fixed"
        mean = average_to_fixed(report, delta, tol=config.mean_tol)
        if not mean.converged:
            return _inconclusive(delta, stage, "mean iteration did not converge")

        stage = "fixedness_check"
        fix_res = fixedness_check(mean.mean, samples)
        if fix_res >= TOL_FIX:
            return _inconclusive(delta, stage,
                                 f"fixedness residual {fix_res:.3e} >= {TOL_FIX}")

        stage = "build_global_j"
        field_ = build_global_j(chart, p, mean.mean, config)
        residual = field_.path_independence_residual
        if residual >= TOL_PATH_INDEP:
            return _inconclusive(delta, stage,
                                 f"path independence residual {residual:.3e}")

        stage = "certificates"
        certs = {"fixedness": fix_res, "path_independence": residual}
        failing, detail = "", ""
        for name, check in (("nabla_j", covariant_constancy_check),
                            ("nijenhuis", nijenhuis_check),
                            ("d_omega", kahler_form_check)):
            coarse = check(field_, scale=1.0)
            certs[name] = coarse
            if coarse >= TOL_CERT:
                failing, detail = name, f"residual {coarse:.3e} >= {TOL_CERT}"
                break
            if coarse > CERT_FLOOR:
                fine = check(field_, scale=0.5)
                certs[name + "_refined"] = fine
                if fine * MIN_DECAY > coarse:
                    failing = name
                    detail = f"refinement decay {coarse/fine:.2f}x < {MIN_DECAY}x"
                    break
    except KahlerProbeError as exc:
        return _inconclusive(delta, stage, exc)

    return DichotomyVerdict(kind="Inconclusive" if failing else "KahlerWitness",
                            delta_used=delta, orbit_report=report,
                            mean_result=mean, global_field=field_,
                            certificates=certs, failing_stage=failing,
                            detail=detail)
