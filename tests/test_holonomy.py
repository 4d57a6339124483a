"""Tests for charts, Christoffel symbols, parallel transport, and holonomy."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerprobe import acs, holonomy, prober
from kahlerprobe.errors import (
    DimensionMismatch,
    InvalidLoopFamily,
    LoopEscapesDomain,
    OutsideDomain,
    StepTooCoarse,
    UnknownManifold,
)


def maxabs(a):
    return float(np.max(np.abs(a)))


def random_interior_points(chart, count, seed, margin=0.1):
    rng = np.random.default_rng(seed)
    lo = chart.domain[:, 0] + margin
    hi = chart.domain[:, 1] - margin
    return [lo + rng.uniform(size=chart.dim) * (hi - lo) for _ in range(count)]


# -- Christoffel symbols ------------------------------------------------------

def test_christoffel_flat_torus_zero():
    chart = holonomy.catalog("flat_torus_4")
    g = holonomy.christoffel(chart, [0.3, 0.4, 0.5, 0.6])
    assert maxabs(g) == 0.0


@pytest.mark.parametrize("name", holonomy.CATALOG_NAMES)
def test_christoffel_symmetric_in_lower_indices(name):
    chart = holonomy.catalog(name)
    for x in random_interior_points(chart, 20, seed=1):
        G = holonomy.christoffel(chart, x)
        assert maxabs(G - np.swapaxes(G, 1, 2)) < 1e-12


@pytest.mark.parametrize("name", holonomy.CATALOG_NAMES)
def test_analytic_christoffels_match_finite_differences(name):
    """The closed-form catalog Christoffels agree with the central-difference
    fallback on the same metric (FD error ~ FD_STEP^2, measured <= 2e-10)."""
    chart = holonomy.catalog(name)
    assert chart.christoffel is not None
    fd_chart = holonomy.ManifoldChart(chart.dim, chart.metric, chart.domain,
                                      christoffel=None, name=name + "_fd")
    for x in random_interior_points(chart, 50, seed=2):
        Ga = holonomy.christoffel(chart, x)
        Gf = holonomy.christoffel(fd_chart, x)
        assert maxabs(Ga - Gf) < 1e-7


def _fs_hermitian_reference(x):
    """Fubini-Study metric from its Hermitian coefficient matrix
    H = ((1 + r^2) I - z zbar^T) / (1 + r^2)^2, realified block by block."""
    z = np.array([x[0] + 1j * x[1], x[2] + 1j * x[3]])
    r2 = float(np.dot(x, x))
    H = ((1.0 + r2) * np.eye(2) - np.outer(z, z.conj())) / (1.0 + r2) ** 2
    g = np.empty((4, 4))
    for a in range(2):
        for b in range(2):
            A, B = H[a, b].real, H[a, b].imag
            g[2 * a:2 * a + 2, 2 * b:2 * b + 2] = [[A, -B], [B, A]]
    return g


def test_fubini_study_metric_matches_hermitian_form():
    chart = holonomy.catalog("fubini_study_cp2")
    for x in random_interior_points(chart, 50, seed=7, margin=0.0):
        assert maxabs(chart.metric(x) - _fs_hermitian_reference(x)) < 1e-15


# the Fubini-Study connection basis as E[k, i, j, l], Gamma[k, i, j] = E[k, i, j] @ x / (1 + |x|^2)
_FS_E4 = holonomy._FS_E.T.reshape(4, 4, 4, 4)


def _fs_christoffel_broadcast(x):
    """The Fubini-Study Christoffels as P * 16 broadcast dot products of
    length 4: an oracle for the one-matmul form."""
    return (_FS_E4 @ x[:, None, None, :, None])[..., 0] \
        / (1.0 + np.vecdot(x, x))[:, None, None, None]


def _fs_christoffel_inputs():
    rng = np.random.default_rng(11)
    for size in (2, 17, 300, 3000):
        yield rng.uniform(-2.0, 2.0, size=(size, 4))
    signed = rng.uniform(-1.0, 1.0, size=(400, 4))
    signed[rng.random((400, 4)) < 0.3] = 0.0
    signed[rng.random((400, 4)) < 0.2] = -0.0
    yield signed
    yield np.array([[0.0, 0.0, 0.0, 0.0], [-0.0, -0.0, -0.0, -0.0],
                    [0.0, -0.0, -0.5, 0.25], [-1e-300, 0.0, 3.0, -0.0]])
    yield np.array([[-0.3, 0.0, -0.0, 1.7]])  # P = 1
    yield np.zeros((0, 4))


def test_fubini_study_christoffel_has_the_bytes_of_the_broadcast_form():
    for x in _fs_christoffel_inputs():
        G = holonomy.fubini_study_christoffel(x)
        assert G.shape == (len(x), 4, 4, 4)
        assert G.tobytes() == _fs_christoffel_broadcast(x).tobytes()


@pytest.mark.parametrize("name", ["round_sphere_2", "round_sphere_4", "product_s2_s2"])
def test_conformal_christoffels_have_the_bits_of_the_dense_form(name):
    """Values and signs of zero, against the dense three-broadcast formula
    at one point at a time (``_pointwise_christoffel``), at the origin, at
    points with +-0.0 coordinates and at random points."""
    chart = holonomy.catalog(name)
    d = chart.dim
    rng = np.random.default_rng(12)
    signed = rng.uniform(-3.0, 3.0, size=(400, d))
    signed[rng.random((400, d)) < 0.3] = 0.0
    signed[rng.random((400, d)) < 0.3] = -0.0
    for x in (np.zeros((1, d)), np.full((2, d), -0.0),
              np.resize([0.0, -0.0, 0.5, -0.25, -0.0, 1.5], (3, d)), signed,
              rng.uniform(-4.0, 4.0, size=(3000, d))):
        G = chart.christoffel(x)
        ref = np.array([_pointwise_christoffel(chart, xj) for xj in x])
        assert np.array_equal(G, ref)
        assert np.array_equal(np.signbit(G), np.signbit(ref))


def test_christoffel_spherical_chart_closed_form():
    """Classical sphere in (theta, phi) coordinates: g = diag(1, sin^2).

    Gamma^theta_{phi phi} = -sin cos, Gamma^phi_{theta phi} = cot(theta).
    """
    chart = holonomy.ManifoldChart(
        2, lambda x: np.diag([1.0, math.sin(x[0]) ** 2]),
        [[0.3, math.pi - 0.3], [-math.pi, math.pi]], name="sphere_angles")
    for theta in (0.7, 1.2, 2.0):
        G = holonomy.christoffel(chart, [theta, 0.5])
        assert G[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta),
                                           abs=1e-6)
        assert G[1, 0, 1] == pytest.approx(1.0 / math.tan(theta), abs=1e-6)


def test_christoffel_rejects_boundary_point():
    chart = holonomy.ManifoldChart(2, lambda x: np.eye(2), [[0.0, 1.0]] * 2)
    with pytest.raises(OutsideDomain):
        holonomy.christoffel(chart, [0.0, 0.5])


def test_fd_christoffel_names_the_first_point_near_the_boundary():
    """Before any metric is read, a stack with points at the boundary is
    rejected naming the first of them."""
    chart = holonomy.ManifoldChart(2, lambda x: pytest.fail("metric read"), [[0.0, 1.0]] * 2)
    with pytest.raises(OutsideDomain, match=r"^\[0\.5 1\. *\] too close"):
        holonomy.christoffel(chart, [[0.5, 0.5], [0.5, 1.0], [0.0, 0.5]])


# -- orthonormal frames -------------------------------------------------------

def test_frame_identity_metric():
    chart = holonomy.catalog("flat_torus_4")
    assert maxabs(holonomy.orthonormal_frame(chart, [0.5] * 4) - np.eye(4)) == 0.0


def test_frame_diagonal_metric():
    chart = holonomy.ManifoldChart(2, lambda x: np.diag([4.0, 1.0]),
                                   [[0.0, 1.0]] * 2)
    F = holonomy.orthonormal_frame(chart, [0.5, 0.5])
    assert F[0, 0] == pytest.approx(0.5)
    assert F[1, 0] == pytest.approx(0.0)


@pytest.mark.parametrize("name", holonomy.CATALOG_NAMES)
def test_frame_orthonormalizes_the_metric(name):
    chart = holonomy.catalog(name)
    for x in random_interior_points(chart, 100, seed=3):
        g = chart.metric(np.asarray(x))
        assert maxabs(np.asarray(g) - np.asarray(g).T) < 1e-12
        F = holonomy.orthonormal_frame(chart, x)
        assert maxabs(F.T @ g @ F - np.eye(chart.dim)) < 1e-10


@pytest.mark.parametrize("name", holonomy.CATALOG_NAMES)
def test_frame_and_metric_of_a_stack_match_single_points(name):
    chart = holonomy.catalog(name)
    x = np.reshape(random_interior_points(chart, 6, seed=5), (2, 3, chart.dim))
    F, g = holonomy.orthonormal_frame(chart, x), holonomy.metric(chart, x)
    assert F.shape == g.shape == (2, 3, chart.dim, chart.dim)
    for i, j in itertools.product(range(2), range(3)):
        assert np.array_equal(F[i, j], holonomy.orthonormal_frame(chart, x[i, j]))
        assert np.array_equal(g[i, j], chart.metric(x[i, j]))


@pytest.mark.parametrize("g", [1.0, np.ones(4), np.eye(3)], ids=["scalar", "vector", "3x3"])
def test_metric_of_the_wrong_shape_is_a_dimension_mismatch(g):
    """A user metric that does not return (d, d) at a point is named, not a
    reshape, Cholesky or solve error."""
    chart = holonomy.ManifoldChart(4, lambda x: g, [[0.0, 1.0]] * 4, name="bad_metric")
    for call in (holonomy.metric, holonomy.orthonormal_frame, holonomy.christoffel):
        with pytest.raises(DimensionMismatch, match="bad_metric"):
            call(chart, np.full((2, 4), 0.5))


def test_central_difference_of_a_quadratic_is_exact():
    """f(x) and its central differences on a (2, 3, d) stack, with integer
    points and power-of-two steps so that every difference is exact."""
    A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, -1.0], [0.0, -1.0, 1.0]])

    def f(y):  # (..., 3) -> (..., 2)
        return np.stack([np.einsum("...i,ij,...j->...", y, A, y), y[..., 0] * y[..., 2]], axis=-1)

    x = np.arange(18.0).reshape(2, 3, 3) - 7.0
    h = np.array([0.5, 0.25, 1.0])
    fx, df = holonomy.central_difference(f, x, h)
    assert np.array_equal(fx, f(x))
    grad = np.stack([2.0 * x @ A, np.stack([x[..., 2], 0.0 * x[..., 1], x[..., 0]], axis=-1)],
                    axis=-1)
    assert df.shape == (2, 3, 3, 2)
    assert np.array_equal(df, grad)


# -- transport ----------------------------------------------------------------

def test_transport_constant_path_is_identity():
    chart = holonomy.catalog("round_sphere_4")
    p = np.array([0.2, -0.1, 0.3, 0.0])
    path = holonomy.curve(lambda t: p, lambda t: np.zeros(4))
    A = holonomy.parallel_transport(chart, [path], 200)[0]
    assert maxabs(A - np.eye(4)) < 1e-12


def test_transport_flat_torus_loop_is_identity():
    chart = holonomy.catalog("flat_torus_4")
    loop = holonomy.rectangle_loop([0.4] * 4, 0, 2, 0.3)
    A = holonomy.parallel_transport(chart, [loop], 200)[0]
    assert maxabs(A - np.eye(4)) < 1e-10


def test_transport_reuses_stage_evaluations():
    """n RK4 steps evaluate the Christoffels at 2n + 1 points per segment: k2
    and k3 share t + h/2, and each step's t + h is the next step's k1.  The
    points of one segment go to the chart in one call."""
    base = holonomy.catalog("round_sphere_4")
    calls = []

    def counting(x):
        calls.append(len(x))
        return base.christoffel(x)

    chart = holonomy.ManifoldChart(base.dim, base.metric, base.domain,
                                   christoffel=counting, name="counted")
    loop = holonomy.rectangle_loop(np.zeros(4), 0, 1, 0.5)
    A = holonomy.parallel_transport(chart, [loop], 400)[0]
    assert calls == [2 * 100 + 1] * 4
    assert sum(calls) == 4 * (2 * 100 + 1)
    assert np.array_equal(A, holonomy.parallel_transport(base, [loop], 400)[0])


def test_transport_rejects_non_finite_defect():
    base = holonomy.catalog("round_sphere_4")
    chart = holonomy.ManifoldChart(base.dim, base.metric, base.domain,
                                   christoffel=lambda x: np.full((len(x), 4, 4, 4), np.nan),
                                   name="nan_christoffels")
    loop = holonomy.rectangle_loop(np.zeros(4), 0, 1, 0.5)
    _, (defect,) = holonomy.transport_with_defect(chart, [loop], 200)
    assert math.isnan(defect)
    with pytest.raises(StepTooCoarse, match="non-finite"):
        holonomy.parallel_transport(chart, [loop], 200)
    with pytest.raises(StepTooCoarse, match="non-finite"):
        holonomy.holonomy_samples(chart, np.zeros(4), [loop], 200)


def test_transport_requires_enough_steps():
    chart = holonomy.catalog("flat_torus_4")
    loop = holonomy.rectangle_loop([0.4] * 4, 0, 1, 0.2)
    with pytest.raises(StepTooCoarse):
        holonomy.parallel_transport(chart, [loop], 50)


def test_transport_preserves_the_metric():
    """|g(q)(Pv, Pv) - g(p)(v, v)| stays tiny on every catalog chart."""
    rng = np.random.default_rng(4)
    for name in holonomy.CATALOG_NAMES:
        chart = holonomy.catalog(name)
        c = chart.domain.mean(axis=1)
        span = 0.2 * (chart.domain[:, 1] - chart.domain[:, 0])
        q_target = c + 0.5 * span
        path = holonomy.polyline([c, q_target])
        P = holonomy._transport_coordinate(chart, [path], 600)[0]
        gp = chart.metric(c)
        gq = chart.metric(q_target)
        for _ in range(5):
            v = rng.standard_normal(chart.dim)
            before = float(v @ gp @ v)
            after = float((P @ v) @ gq @ (P @ v))
            assert abs(after - before) < 1e-7 * max(1.0, before)


def test_transport_concatenation_homomorphism():
    chart = holonomy.catalog("round_sphere_4")
    p = np.zeros(4)
    l1 = holonomy.rectangle_loop(p, 0, 1, 0.6)
    l2 = holonomy.rectangle_loop(p, 2, 3, 0.5)
    A1 = holonomy.parallel_transport(chart, [l1], 800)[0]
    A2 = holonomy.parallel_transport(chart, [l2], 800)[0]
    A12 = holonomy.parallel_transport(chart, [holonomy.concatenate_paths([l1, l2])],
                                      1600)[0]
    assert maxabs(A12 - A2 @ A1) < 1e-6


def test_reversed_loop_gives_inverse():
    chart = holonomy.catalog("round_sphere_4")
    loop = holonomy.rectangle_loop(np.zeros(4), 1, 3, 0.7)
    A = holonomy.parallel_transport(chart, [loop], 1000)[0]
    B = holonomy.parallel_transport(chart, [loop.reversed()], 1000)[0]
    assert maxabs(A @ B - np.eye(4)) < 1e-7


def test_defect_decays_at_fourth_order():
    """Raw orthogonality defect of RK4 transport shrinks ~16x per doubling."""
    chart = holonomy.catalog("round_sphere_4")
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.2, 1.2, size=(3, 4)) / np.array([[1.0], [2.0], [3.0]])
    b = rng.uniform(-1.2, 1.2, size=(3, 4)) / np.array([[1.0], [2.0], [3.0]])
    loop = holonomy.fourier_loop(np.zeros(4), a, b)
    defects = [holonomy.transport_with_defect(chart, [loop], s)[1][0]
               for s in (500, 1000, 2000)]
    assert defects[0] / defects[1] > 8.0
    assert defects[1] / defects[2] > 8.0


def test_small_equator_rectangle_rotation_angle():
    """Rotation angle of a small centered square loop ~ enclosed area.

    At a point on the unit sphere the holonomy of a small geodesic square of
    side s is a rotation by its area s^2 (Gauss-Bonnet).  The stereographic
    chart is conformal with factor 1 on |x| = 1, so a coordinate square of
    side s centered there encloses metric area ~ s^2.
    """
    chart = holonomy.catalog("round_sphere_2")
    s = 0.05
    p = np.array([1.0, 0.0])
    loop = holonomy.rectangle_loop(p - 0.5 * s, 0, 1, s)
    A = holonomy.parallel_transport(chart, [loop], 400)[0]
    angle = abs(math.atan2(A[1, 0], A[0, 0]))
    assert abs(angle - s ** 2) < 0.05 * s ** 2


# -- loop families ------------------------------------------------------------

def test_rectangle_loops_closed_at_base():
    loop = holonomy.rectangle_loop([0.5] * 4, 0, 3, 0.2)
    assert maxabs(np.asarray(loop.map(0.0)) - 0.5) == 0.0
    assert maxabs(np.asarray(loop.map(1.0)) - 0.5) < 1e-12


def test_fourier_family_count_and_closure():
    chart = holonomy.catalog("round_sphere_4")
    loops = holonomy.loop_family(chart, np.zeros(4), "fourier_random", 7, 0.5,
                                 seed=11)
    assert len(loops) == 7
    for loop in loops:
        assert maxabs(np.asarray(loop.map(0.0)) - np.asarray(loop.map(1.0))) < 1e-12
        assert maxabs(np.asarray(loop.map(0.0))) < 1e-12


def test_loop_family_escape_detection():
    chart = holonomy.catalog("fubini_study_cp2")
    with pytest.raises(LoopEscapesDomain):
        holonomy.loop_family(chart, np.zeros(4), "coordinate_rectangles", 6, 0.8)


def test_loop_family_unknown_kind():
    chart = holonomy.catalog("flat_torus_4")
    with pytest.raises(InvalidLoopFamily) as err:
        holonomy.loop_family(chart, [0.5] * 4, "circles", 3, 0.1)
    assert err.value.code == "invalid_loop_family"


@pytest.mark.parametrize("kind", holonomy.LOOP_KINDS)
@pytest.mark.parametrize("count", [0, -1])
def test_loop_family_needs_a_loop(kind, count):
    chart = holonomy.catalog("flat_torus_4")
    with pytest.raises(InvalidLoopFamily, match="at least 1"):
        holonomy.loop_family(chart, [0.5] * 4, kind, count, 0.1)


# -- holonomy sampling --------------------------------------------------------

def test_flat_torus_samples_are_identity():
    """Every product and inverse is a duplicate: only the base is kept."""
    chart = holonomy.catalog("flat_torus_4")
    loops = holonomy.loop_family(chart, [0.5] * 4, "coordinate_rectangles",
                                 6, 0.3)
    samples = holonomy.holonomy_samples(chart, [0.5] * 4, loops, 200,
                                        word_length=3)
    assert [s.word for s in samples] == [(i,) for i in range(1, 7)]
    for s in samples:
        assert maxabs(s.matrix - np.eye(4)) < 1e-10
        assert s.orthogonality_defect < 1e-10


def test_word_closure_products_match_matrices():
    chart = holonomy.catalog("round_sphere_4")
    p = np.zeros(4)
    loops = holonomy.loop_family(chart, p, "coordinate_rectangles", 2, 0.6)
    samples = holonomy.holonomy_samples(chart, p, loops, 600, word_length=2)
    base = {s.word: s.matrix for s in samples if len(s.word) == 1}
    for s in samples:
        if len(s.word) != 2:
            continue
        expected = np.eye(4)
        for idx in s.word:
            expected = expected @ base[(idx,)]
        # sample matrices are polar-corrected products, so this is exact
        assert maxabs(s.matrix - expected) < 1e-12
        # and the concatenated loop replays to the same matrix numerically
        (A,), _ = holonomy.transport_with_defect(chart, [s.loop], 1200)
        assert maxabs(holonomy.nearest_orthogonal(A) - s.matrix) < 1e-6


def test_word_closure_contains_inverses():
    chart = holonomy.catalog("round_sphere_4")
    p = np.zeros(4)
    loops = holonomy.loop_family(chart, p, "coordinate_rectangles", 1, 0.6)
    samples = holonomy.holonomy_samples(chart, p, loops, 600, word_length=2)
    words = {s.word for s in samples}
    assert (-1,) in words


def _pairwise_closure(base, word_length):
    """The word closure with a pairwise duplicate scan: each candidate is
    compared with every kept matrix in turn, any(max|a - b| < 1e-9)."""
    k = len(base)
    gens = {}
    for i, s in enumerate(base):
        gens[i + 1] = s.matrix
        gens[-(i + 1)] = s.matrix.T
    out = [(s.word, s.matrix) for s in base]

    def seen(mat):
        return any(np.max(np.abs(mat - m)) < 1e-9 for _, m in out)

    frontier = [((i + 1,), gens[i + 1]) for i in range(k)]
    frontier += [((-(i + 1),), gens[-(i + 1)]) for i in range(k)]
    for i in range(k):
        if not seen(gens[-(i + 1)]):
            out.append(((-(i + 1),), gens[-(i + 1)]))
    for _ in range(word_length - 1):
        new_frontier = []
        for word, m in frontier:
            for g_idx, g in gens.items():
                if g_idx == -word[-1]:
                    continue
                mat = m @ g
                if seen(mat):
                    continue
                out.append((word + (g_idx,), mat))
                new_frontier.append((word + (g_idx,), mat))
        frontier = new_frontier
    return out


# a rectangle case is named without its kind
@pytest.mark.parametrize("name,kind,loops,scale,word_length", [
    pytest.param(*case, id="-".join(map(str, case)).replace("-coordinate_rectangles", ""))
    for case in [("round_sphere_4", "coordinate_rectangles", 5, 0.5, 3),
                 ("fubini_study_cp2", "coordinate_rectangles", 6, 0.45, 2),
                 ("round_sphere_4", "coordinate_rectangles", 2, 0.5, 4),
                 ("round_sphere_4", "fourier_random", 3, 0.5, 3),
                 ("product_s2_s2", "coordinate_rectangles", 4, 0.5, 3)]
])
def test_word_closure_matches_pairwise_scan(name, kind, loops, scale, word_length):
    """The stacked, vectorized duplicate test keeps the same words in the
    same order, with bit-identical matrices, as the pairwise scan."""
    chart = holonomy.catalog(name)
    p = np.zeros(4)
    family = holonomy.loop_family(chart, p, kind, loops, scale)
    base = holonomy.holonomy_samples(chart, p, family, 400)
    samples = holonomy.holonomy_samples(chart, p, family, 400,
                                        word_length=word_length)
    expected = _pairwise_closure(base, word_length)
    assert [s.word for s in samples] == [w for w, _ in expected]
    for s, (_, mat) in zip(samples, expected):
        assert np.array_equal(s.matrix, mat)
        assert not s.matrix.flags.writeable
    assert len({len(s.word) for s in samples}) == word_length


def _rotation(i, j, angle):
    R = np.eye(4)
    R[i, i] = R[j, j] = math.cos(angle)
    R[j, i] = math.sin(angle)
    R[i, j] = -R[j, i]
    return R


_NAN_GEN = _rotation(2, 3, 0.5)
_NAN_GEN[2, 3] = math.nan


# Planted generators, and words the keep-first rule must keep and drop.
# same_level_pair: words 1.1 and -1.-1 are both R(pi) in the (0, 1)-plane,
# within 1e-9 of each other and of nothing shorter.  chain: 1.2 and 2.1 lie
# 7e-10 from 1.1 and from 2.2, which lie 1.2e-9 apart, so 2.2 is kept because
# its only near neighbours were dropped.  nan_generator: the chain behind a
# generator with a NaN entry, whose products are never duplicates.
@pytest.mark.parametrize("planted,kept,dropped", [
    pytest.param([_rotation(0, 1, math.pi / 2), _rotation(2, 3, math.pi / 2)],
                 [(1, 1)], [(-1, -1)], id="same_level_pair"),
    pytest.param([_rotation(0, 1, 0.3), _rotation(0, 1, 0.3 + 7e-10)],
                 [(1, 1), (2, 2)], [(1, 2), (2, 1)], id="chain"),
    pytest.param([_NAN_GEN, _rotation(0, 1, 0.3), _rotation(0, 1, 0.3 + 7e-10)],
                 [(-1,), (1, 1), (2, 2), (3, 3)], [(2, 3), (3, 2)],
                 id="nan_generator"),
])
def test_word_closure_keeps_first_like_pairwise_scan(monkeypatch, planted, kept,
                                                     dropped):
    """On planted transports the level-by-level duplicate test keeps the
    same words, with the same matrices, as the pairwise scan."""
    planted = np.array(planted)
    polar = holonomy.nearest_orthogonal
    monkeypatch.setattr(holonomy, "transport_with_defect",
                        lambda chart, paths, steps: (planted, [0.0] * len(planted)))
    monkeypatch.setattr(holonomy, "nearest_orthogonal",  # a NaN generator stays as it is
                        lambda A: np.array([a if np.isnan(a).any() else polar(a) for a in A]))
    monkeypatch.setattr(holonomy, "PAIR_CHUNK", 3)  # many chunks per level
    chart = holonomy.catalog("flat_torus_4")
    p = np.full(4, 0.5)
    family = holonomy.loop_family(chart, p, "coordinate_rectangles", len(planted), 0.1)
    base = holonomy.holonomy_samples(chart, p, family, 100)
    samples = holonomy.holonomy_samples(chart, p, family, 100, word_length=3)
    expected = _pairwise_closure(base, 3)
    words = [s.word for s in samples]
    assert words == [w for w, _ in expected]
    for s, (_, mat) in zip(samples, expected):
        assert np.array_equal(s.matrix, mat, equal_nan=True)
    assert set(kept) <= set(words)
    assert not set(dropped) & set(words)


def test_word_closure_of_no_loops_is_empty():
    chart = holonomy.catalog("round_sphere_4")
    assert holonomy.holonomy_samples(chart, np.zeros(4), [], 400,
                                     word_length=3) == []


def test_word_closure_of_length_six():
    """Words of length 6 join up to 24 rectangle sides; each product loop
    is still read at t = 0 and t = 1 at the base point."""
    chart = holonomy.catalog("round_sphere_4")
    p = np.zeros(4)
    loops = holonomy.loop_family(chart, p, "coordinate_rectangles", 2, 0.5)
    samples = holonomy.holonomy_samples(chart, p, loops, 100, word_length=6)
    longest = [s for s in samples if len(s.word) == 6]
    assert longest and all(len(s.loop.pieces) == 24 for s in longest)
    for s in longest:
        assert maxabs(s.loop.map(0.0) - p) == 0.0
        assert maxabs(s.loop.map(1.0) - p) < 1e-15


@pytest.mark.parametrize("count", [4, 5, 9])
def test_end_point_of_many_pieces(count):
    """Past 16 pieces m - 1e-15 rounds to m; t = 1 then reads the end of
    the last piece."""
    p = np.array([0.1, 0.2, 0.3, 0.4])
    path = holonomy.concatenate_paths(
        [holonomy.rectangle_loop(p, 0, 1, 0.25)] * (count - 1)
        + [holonomy.polyline([p, p + 0.5])])
    assert len(path.pieces) == 4 * count - 3
    assert maxabs(path.map(0.0) - p) == 0.0
    assert maxabs(path.map(1.0) - (p + 0.5)) < 1e-14


def test_samples_reject_open_loops():
    chart = holonomy.catalog("flat_torus_4")
    seg = holonomy.polyline([np.full(4, 0.2), np.full(4, 0.6)])
    with pytest.raises(ValueError):
        holonomy.holonomy_samples(chart, np.full(4, 0.2), [seg], 200)


def test_samples_reject_loops_without_pieces():
    """A polyline that never moves drops all its moves."""
    chart = holonomy.catalog("flat_torus_4")
    loop = holonomy.polyline([[0.5] * 4, [0.5] * 4])
    assert loop.pieces == ()
    with pytest.raises(ValueError, match="move"):
        holonomy.holonomy_samples(chart, [0.5] * 4, [loop], 200)


def test_samples_admit_loops_whose_ends_lie_within_1e_9_of_p():
    """Both ends are compared with p, 1e-9 in every coordinate, and only
    there: an end 5e-10 off p is admitted, 1e-8 off is not, and a loop that
    never moves is rejected before its ends are read."""
    chart = holonomy.catalog("flat_torus_4")
    p = np.full(4, 0.5)
    corners = [p, p + [0.1, 0, 0, 0], p + [0.1, 0.1, 0, 0], p + [0, 0.1, 0, 0]]
    near = holonomy.polyline(corners + [p + [5e-10, 0, 0, 0]])
    far = holonomy.polyline(corners + [p + [1e-8, 0, 0, 0]])
    assert maxabs(near.map(1.0) - p) == pytest.approx(5e-10, rel=1e-3)
    assert maxabs(far.map(1.0) - p) == pytest.approx(1e-8, rel=1e-3)
    [sample] = holonomy.holonomy_samples(chart, p, [near], 200)
    assert sample.loop is near
    with pytest.raises(ValueError, match="of p"):
        holonomy.holonomy_samples(chart, p, [far], 200)
    with pytest.raises(ValueError, match="move"):
        holonomy.holonomy_samples(chart, p, [holonomy.polyline([p, p])], 200)


def test_fubini_study_holonomy_is_unitary():
    """Holonomy of the complex-projective chart preserves the canonical
    structure: d(J, Q^{-1} J Q) < 1e-5 for every sampled loop."""
    chart = holonomy.catalog("fubini_study_cp2")
    p = np.zeros(4)
    J = prober.default_structure(chart, p)
    loops = holonomy.loop_family(chart, p, "coordinate_rectangles", 6, 0.45)
    for s in holonomy.holonomy_samples(chart, p, loops, 400, word_length=2):
        assert acs.distance(J, acs.conjugate(s.matrix, J)) < 1e-5


# -- catalog ------------------------------------------------------------------

def test_catalog_unknown_name():
    with pytest.raises(UnknownManifold):
        holonomy.catalog("lens_space")


def test_fubini_study_metric_is_identity_at_origin():
    chart = holonomy.catalog("fubini_study_cp2")
    assert maxabs(chart.metric(np.zeros(4)) - np.eye(4)) < 1e-14


def test_flat_torus_metric_identity_everywhere():
    chart = holonomy.catalog("flat_torus_4")
    for x in random_interior_points(chart, 10, seed=6):
        assert maxabs(chart.metric(x) - np.eye(4)) == 0.0


def test_round_sphere_scalar_curvature():
    """Finite-difference curvature oracle: for g = e^{2f} delta in 2d the
    scalar curvature is -2 e^{-2f} Laplacian(f); the unit round sphere has
    scalar curvature 2."""
    chart = holonomy.catalog("round_sphere_2")
    h = 1e-4

    def f(x):
        return math.log(2.0 / (1.0 + float(np.dot(x, x))))

    for x in random_interior_points(chart, 20, seed=7, margin=0.5):
        lap = 0.0
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            lap += (f(x + e) - 2.0 * f(x) + f(x - e)) / h ** 2
        scal = -2.0 * math.exp(-2.0 * f(x)) * lap
        assert scal == pytest.approx(2.0, abs=1e-4)


# -- piece tuples against the closure paths they replaced ---------------------
#
# A copy of the former representation: each path was a closure over all of
# [0, 1], concatenation found the current part again with int(t m) at every
# call, and ``breakpoints`` told the integrator where to split.

class _ClosurePath:
    def __init__(self, map, velocity=None, breakpoints=()):
        self.map, self.velocity, self.breakpoints = map, velocity, breakpoints

    def vel(self, t):
        if self.velocity is not None:
            return np.asarray(self.velocity(t), dtype=float)
        h = 1e-6
        return (np.asarray(self.map(min(t + h, 1.0)))
                - np.asarray(self.map(max(t - h, 0.0)))) / (min(t + h, 1.0) - max(t - h, 0.0))


def _closure_concatenate(paths):
    m = len(paths)

    def cmap(t):
        s = min(t * m, m - 1e-15)
        k = int(s)
        return paths[k].map(s - k)

    def cvel(t):
        s = min(t * m, m - 1e-15)
        k = int(s)
        return m * np.asarray(paths[k].vel(s - k))

    breaks = []
    for k, p in enumerate(paths):
        if k > 0:
            breaks.append(k / m)
        breaks.extend((k + b) / m for b in p.breakpoints)
    return _ClosurePath(cmap, cvel, tuple(sorted(breaks)))


def _closure_segment(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return _ClosurePath(lambda t: a + t * (b - a), lambda t: b - a)


def _closure_rectangle(p, axis_i, axis_j, scale):
    p = np.asarray(p, dtype=float)
    ei = np.zeros_like(p)
    ej = np.zeros_like(p)
    ei[axis_i] = scale
    ej[axis_j] = scale
    corners = [p, p + ei, p + ei + ej, p + ej, p]
    return _closure_concatenate(
        [_closure_segment(corners[k], corners[k + 1]) for k in range(4)])


def _closure_fourier(p, a, b):
    shift = b.sum(axis=0)

    def fmap(t):
        x = p - shift
        for k in range(a.shape[0]):
            w = 2.0 * math.pi * (k + 1)
            x = x + a[k] * math.sin(w * t) + b[k] * math.cos(w * t)
        return x

    def fvel(t):
        v = np.zeros_like(p)
        for k in range(a.shape[0]):
            w = 2.0 * math.pi * (k + 1)
            v = v + w * (a[k] * math.cos(w * t) - b[k] * math.sin(w * t))
        return v

    return _ClosurePath(fmap, fvel)


def _closure_canonical(base, x, order):
    segs = []
    cur = np.array(base, dtype=float)
    for ax in order:
        nxt = cur.copy()
        nxt[ax] = x[ax]
        if abs(nxt[ax] - cur[ax]) > 1e-15:
            segs.append(_closure_segment(cur, nxt))
            cur = nxt
    return _closure_concatenate(segs) if segs else None


def _closure_transport(chart, path, steps):
    d = chart.dim

    def M(t):
        x = np.asarray(path.map(t), dtype=float)
        if not chart.contains(x):
            raise OutsideDomain(f"path leaves the domain at t={t}: {x}")
        gamma = holonomy.christoffel(chart, x)
        return np.einsum("kij,i->kj", gamma, path.vel(t))

    knots = sorted({0.0, 1.0, *(b for b in path.breakpoints if 0.0 < b < 1.0)})
    V = np.eye(d)
    for t0, t1 in zip(knots[:-1], knots[1:]):
        n = max(2, int(math.ceil(steps * (t1 - t0))))
        h = (t1 - t0) / n
        nudge = 1e-9 * (t1 - t0)
        Ms = lambda t: M(min(max(t, t0 + nudge), t1 - nudge))  # noqa: E731
        t = t0
        stages = [Ms(t)]
        for _ in range(n):
            stages += [Ms(t + 0.5 * h), Ms(t + h)]
            t += h
        V = _rk4_step_maps(stages, h, V)
    return V


def _closure_transport_with_defect(chart, path, steps):
    P = _closure_transport(chart, path, steps)
    Fp = holonomy.orthonormal_frame(chart, np.asarray(path.map(0.0), dtype=float))
    Fq = holonomy.orthonormal_frame(chart, np.asarray(path.map(1.0), dtype=float))
    A = np.linalg.solve(Fq, P @ Fp)
    return A, float(np.max(np.abs(A.T @ A - np.eye(chart.dim))))


def _assert_same_transport(chart, new_path, old_path, steps):
    (A,), (defect,) = holonomy.transport_with_defect(chart, [new_path], steps)
    A_old, defect_old = _closure_transport_with_defect(chart, old_path, steps)
    assert np.array_equal(A, A_old)
    assert defect == defect_old


@pytest.mark.parametrize("name", holonomy.CATALOG_NAMES)
def test_rectangles_match_closure_paths(name):
    """Every axis-plane rectangle, both orientations, off the chart centre:
    the piece-tuple kernel reproduces the closure kernel bit for bit."""
    chart = holonomy.catalog(name)
    width = chart.domain[:, 1] - chart.domain[:, 0]
    p = chart.domain.mean(axis=1) + 0.05 * width * np.resize([1.0, -2.0, 3.0, -1.0], chart.dim)
    for i, j in itertools.combinations(range(chart.dim), 2):
        for scale in (0.2 * width[0], -0.2 * width[0]):
            for steps in (100, 333):
                _assert_same_transport(chart, holonomy.rectangle_loop(p, i, j, scale),
                                       _closure_rectangle(p, i, j, scale), steps)


def test_fourier_loop_matches_closure_path():
    """A Fourier loop is one piece: the same coordinate transport bits."""
    chart = holonomy.catalog("round_sphere_4")
    p = np.array([0.3, -0.2, 0.1, 0.4])
    rng = np.random.default_rng(3)
    a = rng.uniform(-0.5, 0.5, size=(3, 4)) / np.array([[1.0], [2.0], [3.0]])
    b = rng.uniform(-0.5, 0.5, size=(3, 4)) / np.array([[1.0], [2.0], [3.0]])
    (P,) = holonomy._transport_coordinate(chart, [holonomy.fourier_loop(p, a, b)], 400)
    assert np.array_equal(P, _closure_transport(chart, _closure_fourier(p, a, b), 400))


@pytest.mark.parametrize("harmonics", [0, 1, 3])
def test_fourier_piece_on_an_array_matches_the_scalar_curve(harmonics):
    """The Fourier piece's map and velocity, read on the array of the
    kernel's stage parameters, have the bits of the scalar formulas read one
    t at a time; with no harmonics both are still fresh, writable arrays."""
    chart = holonomy.catalog("round_sphere_4")
    p = np.array([0.3, -0.2, 0.1, 0.4])
    rng = np.random.default_rng(7)
    a, b = rng.uniform(-0.5, 0.5, size=(2, harmonics, 4))
    ((fmap, fvel),) = holonomy.fourier_loop(p, a, b).pieces
    stages = []
    recording = holonomy.SmoothPath(((lambda s: stages.append(s) or fmap(s), fvel),))
    holonomy._transport_coordinate(chart, [recording], 400)
    (s,) = stages
    scalar = _closure_fourier(p, a, b)
    for piece, one_t in ((fmap, scalar.map), (fvel, scalar.vel)):
        out = piece(s)
        assert out.tobytes() == np.array([one_t(t) for t in s.tolist()]).tobytes()
        assert out.shape == (801, 4) and out.flags.writeable


def _arc_maps():
    """Criterion 07's geodesic triangle on the unit sphere: three great-circle
    arcs as scalar curves in the stereographic chart."""
    def vert(theta, phi):
        return np.array([math.sin(theta) * math.cos(phi),
                         math.sin(theta) * math.sin(phi), math.cos(theta)])

    def arc(P, Q):
        omega = math.acos(float(np.clip(P @ Q, -1.0, 1.0)))

        def amap(t):
            u = (math.sin((1.0 - t) * omega) * P + math.sin(t * omega) * Q) \
                / math.sin(omega)
            return u[:2] / (1.0 - u[2])
        return amap

    A, B, C = vert(2.6, 0.0), vert(2.0, 1.0), vert(2.2, -1.2)
    return [arc(A, B), arc(B, C), arc(C, A)]


def _fd_velocity(f):
    """The closure paths' velocity fallback: a central difference of step
    1e-6, one-sided at the ends."""
    def vel(t):
        lo, hi = max(t - 1e-6, 0.0), min(t + 1e-6, 1.0)
        return (np.asarray(f(hi)) - np.asarray(f(lo))) / (hi - lo)
    return vel


def test_arc_triangle_matches_closure_path():
    """Curves with the finite-difference velocity, joined end to end."""
    chart = holonomy.catalog("round_sphere_2")
    new = holonomy.concatenate_paths([holonomy.curve(f, _fd_velocity(f))
                                      for f in _arc_maps()])
    old = _closure_concatenate([_ClosurePath(f) for f in _arc_maps()])
    _assert_same_transport(chart, new, old, 500)


def test_canonical_paths_match_closure_paths():
    """Axis polylines in both axis orders, including targets that share
    coordinates with the base point or differ from it by at most 1e-15."""
    chart = holonomy.catalog("fubini_study_cp2")
    base = np.array([0.05, -0.1, 0.0, 0.02])
    field_ = prober.GlobalJField(chart=chart, base_point=base,
                                 base_J=prober.default_structure(chart, base),
                                 grid=(), h=np.full(4, 0.05), steps=100)
    targets = random_interior_points(chart, 6, seed=9, margin=0.15)
    targets += [np.array([0.05, 0.3, 0.0, 0.02]), base + [1e-17, 0.2, 0.0, -0.3],
                base + [3e-16, 0.0, -1e-16, 0.0], base.copy()]
    for x in targets:
        for order in ([0, 1, 2, 3], [3, 2, 1, 0]):
            new = field_._canonical_path(x, order)
            old = _closure_canonical(base, x, order)
            assert (old is None) == (not new.pieces)
            if old is not None:
                _assert_same_transport(chart, new, old, 100)


# -- containment --------------------------------------------------------------

def test_transport_rejects_straight_path_leaving_the_box():
    chart = holonomy.catalog("fubini_study_cp2")
    path = holonomy.polyline([np.zeros(4), [0.7, 0.0, 0.0, 0.0]])
    with pytest.raises(OutsideDomain):
        holonomy.parallel_transport(chart, [path], 200)


def test_transport_rejects_curve_bulging_out_of_the_box():
    """Both ends are inside; the middle is not."""
    chart = holonomy.catalog("fubini_study_cp2")
    path = holonomy.curve(lambda t: np.array([0.9 * math.sin(math.pi * t), 0.0, 0.1, 0.0]),
                          lambda t: np.array([0.9 * math.pi * math.cos(math.pi * t), 0.0,
                                              0.0, 0.0]))
    assert chart.contains(path.map(0.0)) and chart.contains(path.map(1.0))
    with pytest.raises(OutsideDomain):
        holonomy.parallel_transport(chart, [path], 200)


def test_points_of_the_wrong_length_are_a_dimension_mismatch():
    chart = holonomy.catalog("round_sphere_4")
    for call in (chart.contains, lambda x: holonomy.orthonormal_frame(chart, x)):
        with pytest.raises(DimensionMismatch):
            call([0.5, 0.5])


@pytest.mark.parametrize("kind", holonomy.LOOP_KINDS)
@pytest.mark.parametrize("scale", [0.0, -0.0, 1e-16, math.nan, math.inf, -math.inf])
def test_loop_family_needs_a_finite_moving_scale(kind, scale):
    chart = holonomy.catalog("flat_torus_4")
    with pytest.raises(InvalidLoopFamily, match="loop scale"):
        holonomy.loop_family(chart, [0.5] * 4, kind, 3, scale)


def test_tiny_rectangles_keep_their_four_sides():
    """At |x| >= 2 a side of 1.1e-15 rounds to a move of 8.9e-16, which a
    polyline would drop; a rectangle keeps it and stays a loop that moves."""
    chart = holonomy.catalog("round_sphere_4")
    p = np.full(4, 3.0)
    loops = holonomy.loop_family(chart, p, "coordinate_rectangles", 6, 1.1e-15)
    for loop in loops:
        i, j = loop.description["axes"]
        moves = [vel(np.zeros(1))[0] for _, vel in loop.pieces]
        assert len(moves) == 4
        assert maxabs(loop.map(0.0) - p) == 0.0 and maxabs(loop.map(1.0) - p) < 1e-15
        assert moves[0][i] > 0.0 and moves[1][j] > 0.0
    samples = holonomy.holonomy_samples(chart, p, loops, 100, word_length=2)
    assert all(s.orthogonality_defect < 1e-12 for s in samples)


def test_rectangle_side_that_rounds_away_is_an_invalid_loop_family():
    """On a wide chart a side of 1e-14 does not move a coordinate of 500."""
    chart = holonomy.ManifoldChart(4, lambda x: np.eye(4), [[-1e3, 1e3]] * 4,
                                   christoffel=lambda x: np.zeros((len(x), 4, 4, 4)))
    with pytest.raises(InvalidLoopFamily, match="does not move"):
        holonomy.loop_family(chart, np.full(4, 500.0), "coordinate_rectangles", 1, 1e-14)


def test_fourier_family_negative_scale_is_its_magnitude():
    chart = holonomy.catalog("round_sphere_4")
    pos, neg = (holonomy.loop_family(chart, np.zeros(4), "fourier_random", 2, s, seed=4)
                for s in (0.3, -0.3))
    assert [l.description for l in pos] == [l.description for l in neg]


# -- transport properties over random loops -----------------------------------

_SPHERE = holonomy.catalog("round_sphere_4")


def _draw_loop(draw, p):
    """A rectangle or a Fourier loop at p on the round 4-sphere chart."""
    scale = draw(st.floats(0.1, 0.6)) * draw(st.sampled_from([1.0, -1.0]))
    if draw(st.booleans()):
        i, j = draw(st.sampled_from(list(itertools.combinations(range(4), 2))))
        return holonomy.rectangle_loop(p, i, j, scale)
    seed = draw(st.integers(0, 2**20))
    return holonomy.loop_family(_SPHERE, p, "fourier_random", 1, scale, seed=seed)[0]


_base_points = st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4).map(np.array)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data(), p=_base_points)
def test_reversed_loop_gives_inverse_property(data, p):
    """The tolerance of test_reversed_loop_gives_inverse (worst seen at 400
    steps: 2.7e-10)."""
    loop = _draw_loop(data.draw, p)
    A = holonomy.parallel_transport(_SPHERE, [loop], 400)[0]
    B = holonomy.parallel_transport(_SPHERE, [loop.reversed()], 400)[0]
    assert maxabs(A @ B - np.eye(4)) < 1e-7


@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data(), p=_base_points)
def test_concatenation_homomorphism_property(data, p):
    """The tolerance of test_transport_concatenation_homomorphism (worst
    seen at 400 steps per loop: 1.8e-7)."""
    l1, l2 = _draw_loop(data.draw, p), _draw_loop(data.draw, p)
    A1 = holonomy.parallel_transport(_SPHERE, [l1], 500)[0]
    A2 = holonomy.parallel_transport(_SPHERE, [l2], 500)[0]
    A12 = holonomy.parallel_transport(_SPHERE, [holonomy.concatenate_paths([l1, l2])], 1000)[0]
    assert maxabs(A12 - A2 @ A1) < 1e-6


# -- the stacked kernel against the per-path kernel ---------------------------

def _pointwise_fd_christoffel(chart, x):
    """Central-difference Christoffels at one point, as the per-path kernel
    took them."""
    dg = []
    for k in range(chart.dim):
        e = np.zeros(chart.dim)
        e[k] = holonomy.FD_STEP
        dg.append((np.asarray(chart.metric(x + e), dtype=float)
                   - np.asarray(chart.metric(x - e), dtype=float)) / (2.0 * e[k]))
    dg = np.stack(dg)
    term = dg + np.swapaxes(dg, 0, 1) - np.moveaxis(dg, 0, 2)
    return 0.5 * np.einsum("kl,ijl->kij", np.linalg.inv(chart.metric(x)), term)


def _pointwise_sphere_christoffel(x):
    d = x.size
    I = np.eye(d)
    w = -2.0 * x / (1.0 + float(np.dot(x, x)))
    G = np.zeros((d, d, d))
    G += I[:, :, None] * w
    G += I[:, None, :] * w[:, None]
    G -= I * w[:, None, None]
    return G


def _pointwise_christoffel(chart, x):
    """Gamma[k, i, j] at one point, from the single-point closed forms the
    catalog had before its Christoffels were batched."""
    if chart.christoffel is None:
        return _pointwise_fd_christoffel(chart, x)
    if chart.name == "flat_torus_4":
        return np.zeros((4, 4, 4))
    if chart.name.startswith("round_sphere"):
        return _pointwise_sphere_christoffel(x)
    if chart.name == "fubini_study_cp2":
        return (_FS_E4 @ x) / (1.0 + float(np.dot(x, x)))
    G = np.zeros((4, 4, 4))  # product_s2_s2
    for sl in (slice(0, 2), slice(2, 4)):
        G[sl, sl, sl] = _pointwise_sphere_christoffel(x[sl])
    return G


def _rk4_sequential(M, h, V):
    """RK4 on V' = -M(t) V one step at a time, from M at the stage times
    t_0, t_0 + h/2, t_0 + h, ..., t_0 + n h: the former kernel's loop."""
    for i in range(0, len(M) - 1, 2):
        k1 = -M[i] @ V
        k2 = -M[i + 1] @ (V + 0.5 * h * k1)
        k3 = -M[i + 1] @ (V + 0.5 * h * k2)
        k4 = -M[i + 2] @ (V + h * k3)
        V = V + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return V


def _rk4_step_maps(M, h, V):
    """The kernel's arithmetic on one (d, d) matrix at a time: each step's
    map P_i (RK4 applied to I), then (P_{n-1} ... P_0) V with each chunk of
    STEP_CHUNK maps multiplied out in pairwise rounds."""
    I = np.eye(len(V))
    maps = []
    for i in range(0, len(M) - 1, 2):
        A0, Ah, A1 = -M[i], -M[i + 1], -M[i + 2]
        K2 = Ah @ (I + 0.5 * h * A0)
        K3 = Ah @ (I + 0.5 * h * K2)
        K4 = A1 @ (I + h * K3)
        maps.append(I + (h / 6.0) * (A0 + 2.0 * K2 + 2.0 * K3 + K4))
    for c in range(0, len(maps), holonomy.STEP_CHUNK):
        Q = maps[c:c + holonomy.STEP_CHUNK]
        while len(Q) > 1:
            Q = [Q[j + 1] @ Q[j] for j in range(0, len(Q) - 1, 2)] + Q[len(Q) - len(Q) % 2:]
        V = Q[0] @ V
    return V


def _per_path_transport(chart, path, steps, rk4=_rk4_step_maps):
    """One path, one point at a time: M(t) from a single-point Christoffel
    and an einsum per stage point, then ``rk4`` on a (d, d) matrix."""
    m = len(path.pieces)
    V = np.eye(chart.dim)
    for k, (pmap, pvel) in enumerate(path.pieces):
        t0, t1 = k / m, (k + 1) / m
        n = max(2, int(math.ceil(steps * (t1 - t0))))
        h = (t1 - t0) / n
        starts = np.add.accumulate(np.r_[t0, np.full(n, h)])
        ts = np.empty(2 * n + 1)
        ts[0::2] = starts
        ts[1::2] = starts[:-1] + 0.5 * h
        nudge = 1e-9 * (t1 - t0)
        s = np.clip(ts, t0 + nudge, t1 - nudge) * m - k
        M = [np.einsum("kij,i->kj", _pointwise_christoffel(chart, xj), vj)
             for xj, vj in zip(pmap(s), m * pvel(s))]
        V = rk4(M, h, V)
    return V


def _per_path_transport_with_defect(chart, path, steps):
    V = _per_path_transport(chart, path, steps)
    Fp = holonomy.orthonormal_frame(chart, path.map(0.0))
    Fq = holonomy.orthonormal_frame(chart, path.map(1.0))
    A = np.linalg.solve(Fq, V @ Fp)
    return A, float(np.max(np.abs(A.T @ A - np.eye(chart.dim))))


@pytest.mark.parametrize("name", holonomy.CATALOG_NAMES)
def test_step_maps_stay_within_1e_13_of_sequential_rk4(name):
    """The step-map product reorders RK4's roundings: the kernel's
    coordinate transport stays within 1e-13 of the same RK4 stepped one
    matrix at a time (1.9e-14 is the largest difference seen on the catalog
    charts' rectangles and Fourier loops up to 3000 steps)."""
    chart = holonomy.catalog(name)
    width = chart.domain[:, 1] - chart.domain[:, 0]
    p = chart.domain.mean(axis=1) + 0.05 * width * np.resize([1.0, -2.0, 3.0, -1.0], chart.dim)
    loops = [holonomy.rectangle_loop(p, 0, 1, 0.15 * width[0]),
             holonomy.loop_family(chart, p, "fourier_random", 1, 0.03 * width[0], seed=1)[0]]
    for steps in (100, 1000, 3000):
        P = holonomy._transport_coordinate(chart, loops, steps)
        for path, P_b in zip(loops, P):
            assert maxabs(P_b - _per_path_transport(chart, path, steps, _rk4_sequential)) < 1e-13


def test_a_path_longer_than_one_chunk_has_the_same_bits_in_a_stack():
    """A one-piece path of more than STEP_CHUNK steps, with an odd tail in
    its pairwise rounds, alone and as the middle slice of a stack of three."""
    loops = holonomy.loop_family(_SPHERE, np.zeros(4), "fourier_random", 3, 0.4, seed=2)
    steps = 2 * holonomy.STEP_CHUNK + 37
    (alone,) = holonomy._transport_coordinate(_SPHERE, loops[1:2], steps)
    stacked = holonomy._transport_coordinate(_SPHERE, loops, steps)
    assert alone.tobytes() == stacked[1].tobytes()
    assert alone.tobytes() == _per_path_transport(_SPHERE, loops[1], steps).tobytes()


def _whole_piece_transport(chart, paths, steps):
    """The kernel with no blocks: every stage point of a piece, its
    Christoffels and its step maps at once, for a stack of paths of one
    piece count."""
    m, d = len(paths[0].pieces), chart.dim
    V = np.tile(np.eye(d), (len(paths), 1, 1))
    for k in range(m):
        t0, t1 = k / m, (k + 1) / m
        n = max(2, int(math.ceil(steps * (t1 - t0))))
        h = (t1 - t0) / n
        starts = np.add.accumulate(np.r_[t0, np.full(n, h)])
        ts = np.empty(2 * n + 1)
        ts[0::2] = starts
        ts[1::2] = starts[:-1] + 0.5 * h
        nudge = 1e-9 * (t1 - t0)
        s = np.clip(ts, t0 + nudge, t1 - nudge) * m - k
        x = np.stack([path.pieces[k][0](s) for path in paths], axis=1)
        v = np.stack([m * path.pieces[k][1](s) for path in paths], axis=1)
        A = -np.einsum("pkij,pi->pkj", holonomy.christoffel(chart, x.reshape(-1, d)),
                       v.reshape(-1, d)).reshape(2 * n + 1, len(paths), d, d)
        V = holonomy._step_product(holonomy._step_maps(A, h), V)
    return V


@pytest.mark.parametrize("steps", [1023, 1024, 1025, 3000, 4097])
@pytest.mark.parametrize("name", ["round_sphere_4", "fubini_study_cp2"])
def test_step_blocks_have_the_bits_of_whole_pieces(name, steps):
    """Walking a piece in blocks of BLOCK_STEPS steps changes no bit: at
    4097 steps a rectangle's pieces, and from 1025 a Fourier loop's one
    piece, span more than one block."""
    chart = holonomy.catalog(name)
    scale = 0.1 if name == "fubini_study_cp2" else 0.5
    for kind in holonomy.LOOP_KINDS:
        loops = holonomy.loop_family(chart, np.zeros(4), kind, 3, scale, seed=1)
        assert holonomy._transport_coordinate(chart, loops, steps).tobytes() == \
            _whole_piece_transport(chart, loops, steps).tobytes()


def test_a_piece_is_evaluated_one_block_at_a_time():
    """A one-piece path of 2500 steps reads its Christoffels in blocks of
    BLOCK_STEPS steps, 2 nb + 1 points each, and none past the piece."""
    base = holonomy.catalog("round_sphere_4")
    calls = []

    def counting(x):
        calls.append(len(x))
        return base.christoffel(x)

    chart = holonomy.ManifoldChart(base.dim, base.metric, base.domain,
                                   christoffel=counting, name="counted")
    loop = holonomy.loop_family(base, np.zeros(4), "fourier_random", 1, 0.4, seed=2)[0]
    A = holonomy._transport_coordinate(chart, [loop], 2500)
    block = holonomy.BLOCK_STEPS
    assert calls == [2 * block + 1, 2 * block + 1, 2 * (2500 - 2 * block) + 1]
    assert A.tobytes() == holonomy._transport_coordinate(base, [loop], 2500).tobytes()


def test_transport_memory_does_not_grow_with_steps():
    """8 Fourier loops at 20 000 steps peak below 20 MB above entry (215.6
    MB when a piece's step maps were all formed at once; 13.1 MB in blocks)."""
    loops = holonomy.loop_family(_SPHERE, np.zeros(4), "fourier_random", 8, 0.5, seed=0)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        holonomy._transport_coordinate(_SPHERE, loops, 20000)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def _fd_chart(name):
    base = holonomy.catalog(name)
    return holonomy.ManifoldChart(base.dim, base.metric, base.domain, name=name + "_fd")


_STACK_CHARTS = {**{name: holonomy.catalog(name) for name in holonomy.CATALOG_NAMES},
                 "fubini_study_cp2_fd": _fd_chart("fubini_study_cp2")}


def _draw_stack_loop(draw, chart, p, kind):
    """A rectangle, a Fourier loop, or a concatenation of two of them, at p."""
    width = chart.domain[0, 1] - chart.domain[0, 0]
    if kind == "concatenation":
        return holonomy.concatenate_paths(
            [_draw_stack_loop(draw, chart, p, draw(st.sampled_from(["rectangle", "fourier"])))
             for _ in range(2)])
    scale = draw(st.floats(0.05, 0.2)) * width * draw(st.sampled_from([1.0, -1.0]))
    if kind == "rectangle":
        i, j = draw(st.sampled_from(list(itertools.combinations(range(chart.dim), 2))))
        return holonomy.rectangle_loop(p, i, j, scale)
    seed = draw(st.integers(0, 2**20))
    return holonomy.loop_family(chart, p, "fourier_random", 1, 0.2 * scale, seed=seed)[0]


@pytest.mark.parametrize("name", sorted(_STACK_CHARTS))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_stacked_transport_slices_match_per_path_kernel(name, data):
    """Every slice of one stacked transport, matrix and defect, has the bits
    of its path transported alone by the per-point, per-path kernel; the
    stack always mixes piece counts (a rectangle has 4, a Fourier loop 1)."""
    chart = _STACK_CHARTS[name]
    width = chart.domain[:, 1] - chart.domain[:, 0]
    u = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=chart.dim, max_size=chart.dim))
    p = chart.domain.mean(axis=1) + 0.15 * width * np.array(u)
    kinds = ["rectangle", "fourier"] + data.draw(st.lists(
        st.sampled_from(["rectangle", "fourier", "concatenation"]), max_size=3))
    paths = [_draw_stack_loop(data.draw, chart, p, kind)
             for kind in data.draw(st.permutations(kinds))]
    paths = [path.reversed() if data.draw(st.booleans()) else path for path in paths]
    steps = data.draw(st.sampled_from([100, 157]))
    A, defects = holonomy.transport_with_defect(chart, paths, steps)
    assert A.shape == (len(paths), chart.dim, chart.dim) and len(defects) == len(paths)
    for path, A_b, defect in zip(paths, A, defects):
        A_ref, defect_ref = _per_path_transport_with_defect(chart, path, steps)
        assert np.array_equal(A_b, A_ref)
        assert repr(defect) == repr(defect_ref)


def test_unbatched_christoffel_is_a_dimension_mismatch():
    """A chart whose Christoffels answer one point with one (d, d, d) array
    is named, not a broadcasting error deep in the kernel."""
    base = holonomy.catalog("flat_torus_4")
    chart = holonomy.ManifoldChart(base.dim, base.metric, base.domain,
                                   christoffel=lambda x: np.zeros((4, 4, 4)),
                                   name="unbatched")
    with pytest.raises(DimensionMismatch, match="unbatched"):
        holonomy.christoffel(chart, np.full((3, 4), 0.5))
    with pytest.raises(DimensionMismatch):
        holonomy.parallel_transport(chart, [holonomy.rectangle_loop([0.5] * 4, 0, 1, 0.2)], 100)


def test_christoffel_keeps_the_leading_shape():
    chart = holonomy.catalog("fubini_study_cp2")
    x = np.linspace(-0.3, 0.3, 24).reshape(2, 3, 4)
    G = holonomy.christoffel(chart, x)
    assert G.shape == (2, 3, 4, 4, 4)
    assert np.array_equal(G[1, 2], holonomy.christoffel(chart, x[1, 2]))
