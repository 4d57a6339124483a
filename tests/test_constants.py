"""Tests for the curvature bound, injectivity estimate, and delta constant."""

import contextlib
import io
import json
import math
import os
import sys
import threading

import numpy as np
import pytest

from kahlerprobe import acs, cli, constants, holonomy, prober
from kahlerprobe.constants import (
    SAFETY_FACTOR,
    DeltaConstant,
    cache_path,
    compute_delta,
    estimate_epsilon,
    estimate_injectivity,
)
from kahlerprobe.errors import DimensionTooSmall


def test_injectivity_estimate_invariants():
    with pytest.raises(ValueError):
        DeltaConstant(2, 1.0, 0.0)


def test_delta_arithmetic_curvature_branch():
    d = DeltaConstant(2, 1.0, 10.0)
    assert d.delta == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_delta_arithmetic_injectivity_branch():
    d = DeltaConstant(2, math.pi ** 2 / 4.0, 0.5)
    assert d.delta == pytest.approx(0.25, abs=1e-12)


def test_estimators_reject_n1():
    with pytest.raises(DimensionTooSmall):
        estimate_epsilon(1)
    with pytest.raises(DimensionTooSmall):
        estimate_injectivity(1)


def test_epsilon_covers_every_sample():
    """The bound is at least the safety factor times the curvature of every
    sampled plane, recomputed here from the same plane seeds."""
    J = acs.canonical_j(2)
    seeds = np.random.default_rng(3).integers(0, 2**31 - 1, size=100).tolist()
    phis = acs.random_tangents(J, seeds)
    psis = acs.random_tangents(J, [s + 500_009 for s in seeds])
    psis = [psi - float(np.sum(phi * psi)) * phi for phi, psi in zip(phis, psis)]
    psis = np.array([(1.0 / float(np.linalg.norm(psi))) * psi for psi in psis])
    sampled = np.max(acs.sectional_curvatures(J, phis, psis)[0])
    assert estimate_epsilon(2, num_samples=100, seed=3) >= SAFETY_FACTOR * sampled


def test_epsilon_positive_and_finite_for_n3():
    assert 0.0 < estimate_epsilon(3, num_samples=100, seed=0) < math.inf


def test_epsilon_matches_constant_curvature_for_n2():
    """n = 2 has constant sectional curvature 1/4; the sampled maximum must
    land on it and the 1.05 safety factor on top."""
    assert estimate_epsilon(2, num_samples=100, seed=1) == pytest.approx(0.2625, abs=1e-9)


@pytest.mark.parametrize("seed,bits", [
    (0, "0.2624999999747195"), (1, "0.2624999999851881"), (2, "0.26249999999369966"),
])
def test_epsilon_bits_at_n3(seed, bits):
    """At n = 3 ascent trials are taken, so these pins cover the replay of
    the trials after a taken one."""
    assert repr(estimate_epsilon(3, num_samples=100, seed=seed)) == bits


def _plain_tangent(J, seed, norm=1.0):
    A = np.random.default_rng(seed).standard_normal(J.shape)
    S = 0.5 * (A - A.T)
    phi = 0.5 * (S + J @ S @ J)
    return (norm / float(np.linalg.norm(phi))) * phi


def _plain_curvature(J, phi, psi):
    """The curvature of span(phi, psi), or None for a degenerate plane."""
    X = -0.5 * phi @ J
    Y = -0.5 * psi @ J
    qxx = 4.0 * float(np.sum(X * X))
    qyy = 4.0 * float(np.sum(Y * Y))
    qxy = 4.0 * float(np.sum(X * Y))
    gram = qxx * qyy - qxy * qxy
    if gram < 1e-14:
        return None
    B = X @ Y - Y @ X
    return 4.0 * float(np.sum(B * B)) / gram


def _sequential_epsilon(n, num_samples, seed):
    """estimate_epsilon one plane and one ascent trial at a time, as it was
    before the planes were stacked, on plain (d, d) arrays; also returns
    how many ascent trials were taken."""
    J = acs.canonical_j(n).mat
    rng = np.random.default_rng(seed)
    found = []
    for ps in rng.integers(0, 2**31 - 1, size=num_samples):
        phi = _plain_tangent(J, int(ps))
        psi = _plain_tangent(J, int(ps) + 500_009)
        psi = psi - float(np.sum(phi * psi)) * phi
        nrm = float(np.linalg.norm(psi))
        if nrm < 1e-8:
            continue
        psi = (1.0 / nrm) * psi
        found.append((_plain_curvature(J, phi, psi), (phi, psi)))
    found.sort(key=lambda kv: -kv[0])
    best, taken = -math.inf, 0
    for cur, (phi, psi) in found[:10]:
        step = 0.2
        while step > 1e-6:
            improved = False
            for _ in range(20):
                a = phi + _plain_tangent(J, int(rng.integers(0, 2**31 - 1)), step)
                b = psi + _plain_tangent(J, int(rng.integers(0, 2**31 - 1)), step)
                k = _plain_curvature(J, a, b)
                if k is not None and k > cur + 1e-10:
                    cur, phi, psi = k, a, b
                    improved, taken = True, taken + 1
            if not improved:
                step *= 0.5
        best = max(best, cur)
    return SAFETY_FACTOR * best, taken


@pytest.mark.parametrize("n,seed", [(3, 3), (4, 0)])
def test_stacked_epsilon_matches_sequential(n, seed):
    eps, taken = _sequential_epsilon(n, 100, seed)
    assert taken > 0
    assert repr(estimate_epsilon(n, num_samples=100, seed=seed)) == repr(eps)


def test_epsilon_measures_each_round_in_one_call(monkeypatch):
    """At n = 2 the curvature is constant, so no trial is taken and each of
    the ten ascents runs 18 rounds: one stacked call measures the sampled
    planes and one measures each round's trials, and one call draws the
    sampled planes' tangents and one each round's perturbations."""
    calls = {"curvatures": [], "tangents": []}
    curvatures, tangents = acs.sectional_curvatures, acs.random_tangents

    def counting_curvatures(J, phis, psis):
        calls["curvatures"].append(len(phis))
        return curvatures(J, phis, psis)

    def counting_tangents(J, seeds, norm=1.0):
        calls["tangents"].append(len(seeds))
        return tangents(J, seeds, norm)

    monkeypatch.setattr(acs, "sectional_curvatures", counting_curvatures)
    monkeypatch.setattr(acs, "random_tangents", counting_tangents)
    assert repr(estimate_epsilon(2, seed=0)) == "0.26250000000000007"
    assert calls["curvatures"] == [300] + [20] * 180
    assert calls["tangents"] == [600] + [40] * 180


def test_injectivity_march_finds_2pi_for_n2(delta4):
    """Each component for n = 2 is a round sphere of radius 2, so geodesics
    minimize up to pi * radius = 2 pi."""
    assert delta4.inj_used == pytest.approx(2.0 * math.pi, abs=0.05)


def test_minimality_along_sampled_directions():
    """distance(J, exp(t phi)) = t within 2*resolution below the estimate."""
    inj = estimate_injectivity(2, resolution=0.01, seed=5)
    J = acs.canonical_j(2)
    phi = acs.random_tangent(J, 123)
    t = 0.1
    while t < min(inj, 3.0):
        assert abs(acs.distance(J, acs.exp_map(J, phi, t)) - t) <= 0.02
        t += 0.53


def _sequential_injectivity(n, num_directions=8, resolution=0.01, seed=0, t_max=20.0):
    """The injectivity march one geodesic time at a time, as it was before
    the times were chunked."""
    J = acs.canonical_j(n)
    rng = np.random.default_rng(seed)
    first_break = t_max
    for _ in range(num_directions):
        phi = acs.random_tangent(J, int(rng.integers(0, 2**31 - 1)))
        t = resolution
        while t < first_break:
            try:
                d = acs.distance(J, acs.exp_map(J, phi, t))
            except (acs.CutLocusError, acs.ComponentMismatch):
                first_break = min(first_break, t)
                break
            if d < t - 2.0 * resolution:
                first_break = min(first_break, t)
                break
            t += resolution
    return first_break - resolution


@pytest.mark.parametrize("n,seed", [pytest.param(2, 0, id="0"), pytest.param(2, 1, id="1"),
                                    pytest.param(2, 2, id="2"), pytest.param(3, 0, id="n3-0")])
def test_chunked_injectivity_march_matches_sequential(n, seed):
    assert (repr(estimate_injectivity(n, seed=seed))
            == repr(_sequential_injectivity(n, seed=seed)))


@pytest.mark.parametrize("seed,bits", [
    (1, ("1.532940249906427", "0.2625000000000001", "6.28999999999991")),
    (2, ("1.5329402499064273", "0.26250000000000007", "6.28999999999991")),
])
def test_delta_bits_at_seed(seed, bits):
    """delta, epsilon and inj keep their bits at seeds 1 and 2; seed 0 is
    pinned by test_cache_entry_in_the_established_layout_is_a_hit."""
    d = compute_delta(2, seed=seed, use_cache=False)
    assert (repr(d.delta), repr(d.epsilon_used), repr(d.inj_used)) == bits


def test_delta4_value(delta4):
    # min(2 pi / 2, pi / (4 sqrt(0.2625))) -- the curvature branch wins
    expected = math.pi / (4.0 * math.sqrt(delta4.epsilon_used))
    assert delta4.delta == pytest.approx(expected, abs=1e-12)
    assert delta4.delta == pytest.approx(1.53294, abs=1e-3)


def test_compute_delta_cache_roundtrip():
    d1 = compute_delta(2, seed=0)
    assert os.path.exists(cache_path())
    with open(cache_path()) as fh:
        cache = json.load(fh)
    assert any(k.startswith("n=2;seed=0") for k in cache)
    d2 = compute_delta(2, seed=0)  # served from cache
    assert d2.delta == d1.delta
    assert d2.epsilon_used == d1.epsilon_used


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
def test_curvature_bound_needs_a_finite_positive_epsilon(epsilon):
    with pytest.raises(ValueError, match="finite and positive"):
        DeltaConstant(2, epsilon, 1.0)


def test_epsilon_override_needs_to_be_finite_and_positive():
    """A library override is checked by ``DeltaConstant``, as an estimate is."""
    with pytest.raises(ValueError, match="finite and positive"):
        compute_delta(2, epsilon_override=-1.0, use_cache=False)


@pytest.mark.parametrize("resolution", [0.0, -0.01, 1e-4, 0.02, math.nan])
def test_injectivity_march_step_is_bounded(resolution):
    with pytest.raises(ValueError, match="resolution must be in"):
        estimate_injectivity(2, resolution=resolution)


def test_epsilon_override():
    d = compute_delta(2, epsilon_override=1.0, use_cache=False)
    assert d.epsilon_used == 1.0
    assert d.delta == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_failed_cache_write_keeps_previous_file(tmp_path, monkeypatch):
    """The cache is replaced atomically: a write that dies half way leaves
    the previous file intact and no temp file behind."""
    path = tmp_path / "delta_cache.json"
    previous = json.dumps({"n=2;seed=9;ns=300;res=0.01": {"delta": 1.0}})
    path.write_text(previous)
    monkeypatch.setenv("KAHLER_PROBE_CACHE", str(path))

    def broken_dump(obj, fh, **kw):
        fh.write('{"n=2;')
        raise OSError("disk full")

    monkeypatch.setattr(constants.json, "dump", broken_dump)
    d = compute_delta(2, epsilon_override=1.0)
    assert d.epsilon_used == 1.0
    assert path.read_text() == previous
    assert os.listdir(tmp_path) == [path.name]


def test_cache_write_keeps_keys_written_during_the_estimate(tmp_path, monkeypatch):
    """Another process that stores its key while this one estimates keeps
    it: the write re-reads the file instead of writing back what was read
    before the estimate."""
    path = tmp_path / "delta_cache.json"
    monkeypatch.setenv("KAHLER_PROBE_CACHE", str(path))
    theirs = {"n=3;seed=5;ns=300;res=0.01": {"delta": 0.5, "epsilon": 1.0,
                                             "inj_lower": 1.0}}
    estimate = constants.estimate_injectivity

    def racing_estimate(*args, **kwargs):
        path.write_text(json.dumps(theirs))
        return estimate(*args, **kwargs)

    monkeypatch.setattr(constants, "estimate_injectivity", racing_estimate)
    d = compute_delta(2, epsilon_override=1.0)
    cache = json.loads(path.read_text())
    ours = "n=2;seed=0;ns=300;res=0.01;eps=1.0"
    assert set(cache) == set(theirs) | {ours}
    assert cache[ours]["delta"] == d.delta
    assert os.listdir(tmp_path) == [path.name]


def test_cache_writers_take_turns(tmp_path):
    """A writer waits for the cache lock, then adds its key to what the
    lock holder wrote; the lock file is gone afterwards."""
    path = str(tmp_path / "delta_cache.json")
    with constants._cache_lock(path):
        writer = threading.Thread(target=constants._write_cache,
                                  args=(path, "b", {"delta": 2.0}))
        writer.start()
        writer.join(0.2)
        assert writer.is_alive() and not os.path.exists(path)
        with open(path, "w") as fh:
            json.dump({"a": {"delta": 1.0}}, fh)
    writer.join(10.0)
    assert not writer.is_alive()
    with open(path) as fh:
        assert json.load(fh) == {"a": {"delta": 1.0}, "b": {"delta": 2.0}}
    assert os.listdir(tmp_path) == ["delta_cache.json"]


def test_concurrent_cache_writers_lose_no_key(tmp_path):
    """Four threads add five keys each, switching often: every key is in
    the file at the end."""
    path = str(tmp_path / "delta_cache.json")

    def add(worker):
        for k in range(5):
            constants._write_cache(path, f"{worker}-{k}", {"delta": float(k)})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=add, args=(w,)) for w in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    with open(path) as fh:
        assert set(json.load(fh)) == {f"{w}-{k}" for w in range(4) for k in range(5)}
    assert os.listdir(tmp_path) == ["delta_cache.json"]


# -- a cache entry is read through DeltaConstant -----------------------------

_DEFAULT_KEY = "n=2;seed=0;ns=300;res=0.01"
_BAD_ENTRIES = {
    "missing_fields": '{"delta": 1.0}',
    "inconsistent": '{"delta": 1.0, "epsilon": 0.2625, "inj_lower": 6.29}',
    "negative_epsilon": '{"delta": 1.0, "epsilon": -1.0, "inj_lower": 6.29}',
    "list": "[0.2625, 6.29, 1.0]",
    "all_nan": '{"delta": NaN, "epsilon": NaN, "inj_lower": NaN}',
    "string_epsilon": '{"delta": 0.7853981633974483, "epsilon": "1", "inj_lower": 10.0}',
    "huge_integer": '{"delta": 1.0, "epsilon": 1%s, "inj_lower": 6.29}' % ("0" * 400),
    "boolean_epsilon": '{"delta": 0.7853981633974483, "epsilon": true, "inj_lower": 10}',
    "boolean_inj": '{"delta": 0.5, "epsilon": 0.2625, "inj_lower": true}',
}


def _cache_with(tmp_path, monkeypatch, entry_text):
    path = tmp_path / "delta_cache.json"
    path.write_text('{"%s": %s}' % (_DEFAULT_KEY, entry_text))
    monkeypatch.setenv("KAHLER_PROBE_CACHE", str(path))
    return path


def _assert_same_delta(d, fresh):
    assert ((repr(d.delta), repr(d.epsilon_used), repr(d.inj_used))
            == (repr(fresh.delta), repr(fresh.epsilon_used), repr(fresh.inj_used)))


@pytest.mark.parametrize("entry", sorted(_BAD_ENTRIES))
def test_malformed_cache_entry_is_estimated_again(tmp_path, monkeypatch, delta4, entry):
    """A cache entry that does not rebuild its own delta is a miss: the
    fresh estimate is returned and overwrites it."""
    path = _cache_with(tmp_path, monkeypatch, _BAD_ENTRIES[entry])
    d = compute_delta(2)
    _assert_same_delta(d, delta4)
    assert json.loads(path.read_text()) == {_DEFAULT_KEY: {
        "delta": d.delta, "epsilon": d.epsilon_used, "inj_lower": d.inj_used}}


@pytest.fixture(scope="module")
def delta_cli_bytes():
    """`kahler-probe delta --dim 4 --no-timestamp` with no cache."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["delta", "--dim", "4", "--no-cache", "--no-timestamp"]) == 0
    return out.getvalue().replace('"no_cache": true', '"no_cache": false')


@pytest.mark.parametrize("entry", sorted(_BAD_ENTRIES))
def test_malformed_cache_entry_at_the_cli(tmp_path, monkeypatch, capsys,
                                          delta_cli_bytes, entry):
    _cache_with(tmp_path, monkeypatch, _BAD_ENTRIES[entry])
    assert cli.main(["delta", "--dim", "4", "--no-timestamp"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (delta_cli_bytes, "")


def test_probe_with_an_inconsistent_cache_entry_gives_a_verdict(tmp_path, monkeypatch,
                                                                delta4):
    _cache_with(tmp_path, monkeypatch, _BAD_ENTRIES["inconsistent"])
    config = prober.ProbeConfig(loops=2, ode_steps=100, word_length=1, grid_res=9,
                                field_steps=100, probe_points=1)
    v = prober.probe(holonomy.catalog("flat_torus_4"), [0.5] * 4, config=config)
    assert v.kind == "KahlerWitness"
    _assert_same_delta(v.delta_used, delta4)


def test_probe_with_a_nan_cache_entry_runs_against_a_finite_delta(tmp_path, monkeypatch,
                                                                  delta4):
    """An all-NaN entry once passed every check, and every orbit distance
    then exceeded delta = NaN: a wrong obstruction."""
    _cache_with(tmp_path, monkeypatch, _BAD_ENTRIES["all_nan"])
    config = prober.ProbeConfig(loops=2, word_length=1)
    v = prober.probe(holonomy.catalog("round_sphere_4"), [0.0] * 4, config=config)
    assert math.isfinite(v.delta_used.delta)
    _assert_same_delta(v.delta_used, delta4)


@pytest.mark.parametrize("epsilon,inj", [
    (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0),
    (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -1.0),
    (True, 1.0), (1.0, True),
])
def test_delta_constant_needs_finite_positive_inputs(epsilon, inj):
    with pytest.raises(ValueError, match="finite and positive"):
        DeltaConstant(2, epsilon, inj)


def test_delta_constant_holds_floats():
    """Integer inputs, as a JSON cache entry may hold them, are stored as
    floats, so the record prints the same whatever the entry held."""
    d = DeltaConstant(2, 1, 10)
    assert (repr(d.epsilon_used), repr(d.inj_used)) == ("1.0", "10.0")
    assert repr(d.delta) == repr(DeltaConstant(2, 1.0, 10.0).delta)


def test_cache_entry_in_the_established_layout_is_a_hit(tmp_path, monkeypatch, delta4):
    """Entries keep the layout {epsilon, inj_lower, delta}: one written
    that way is served without estimating, and carries the fresh bits."""
    path = tmp_path / "delta_cache.json"
    path.write_text('{\n "%s": {\n  "delta": 1.5329402499064273,\n'
                    '  "epsilon": 0.26250000000000007,\n'
                    '  "inj_lower": 6.28999999999991\n }\n}' % _DEFAULT_KEY)
    monkeypatch.setenv("KAHLER_PROBE_CACHE", str(path))

    def not_called(*args, **kwargs):
        raise AssertionError("a cache hit estimates nothing")

    monkeypatch.setattr(constants, "estimate_epsilon", not_called)
    monkeypatch.setattr(constants, "estimate_injectivity", not_called)
    _assert_same_delta(compute_delta(2), delta4)
