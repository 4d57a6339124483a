"""Tests for the JSON exchange helpers and the command-line interface."""

import contextlib
import gc
import hashlib
import json
import math
import os
import signal
import sys
import tracemalloc
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kahlerprobe import acs, cli, holonomy, io
from kahlerprobe.errors import DimensionMismatch, MalformedInput, OutputNotWritable


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- io -----------------------------------------------------------------------

def test_matrix_json_roundtrip():
    mat = acs.random_j(2, 0).mat
    back = io.matrix_from_json(io.matrix_to_json(mat))
    assert np.array_equal(mat, back)


def test_matrix_json_shape_check():
    with pytest.raises(DimensionMismatch):
        io.matrix_from_json({"dim": 3, "rows": [[1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(DimensionMismatch):
        io.matrix_from_json([[1.0]])


def test_sample_set_json_roundtrip():
    J = acs.canonical_j(2)
    pts = [acs.exp_map(J, acs.random_tangent(J, k, 0.3), 1.0) for k in range(3)]
    back = io.sample_set_from_json({"points": [io.matrix_to_json(p.mat) for p in pts],
                                    "weights": [0.5, 0.25, 0.25]})
    assert back.weights == (0.5, 0.25, 0.25)
    assert back.points.tobytes() == np.stack([p.mat for p in pts]).tobytes()


def test_sample_set_accepts_bare_array():
    J = acs.canonical_j(2)
    s = io.sample_set_from_json([io.structure_to_json(J)] * 2)
    assert s.weights == (0.5, 0.5)


@pytest.mark.parametrize("weights", [[math.nan, 1.0], [0.5, math.nan],
                                     [math.inf, 0.0]])
def test_sample_set_rejects_weights_that_are_not_finite(weights):
    obj = {"points": [io.structure_to_json(acs.canonical_j(2))] * 2,
           "weights": weights}
    with pytest.raises(MalformedInput, match="finite and nonnegative"):
        io.sample_set_from_json(obj)


def test_unwritable_output_is_a_domain_error(tmp_path):
    with pytest.raises(OutputNotWritable) as exc:
        io.dump_json({"a": 1}, str(tmp_path / "missing" / "x.json"))
    assert exc.value.code == "output_not_writable"
    with pytest.raises(OutputNotWritable):
        io.dump_json({"a": 1}, str(tmp_path))  # a directory
    assert io.dump_json({"a": 1}, str(tmp_path / "x.json")) is None
    assert (tmp_path / "x.json").read_text() == io.dump_json({"a": 1}) + "\n"


class _Chunks(list):
    """A file that keeps each write as one item."""

    write = list.append


def test_file_writer_matches_json_dumps(tmp_path):
    """A document streamed to a file is json.dumps(sort_keys=True, indent=1)
    and a newline, across several flushes, with one dict reached at several
    depths and many times at one, and float lists holding NaN, +-inf, -0.0,
    numpy floats or an item that is not a float."""
    shared = {"kind": "rectangle", "base": [0.5, -0.0], "axes": [0, 1]}
    floats = [[1.0, math.nan], [math.inf, 2.0], [-math.inf], [-0.0, 0.1],
              [np.float64(0.1), 1e-300, 5e-324], (0.25, 0.5), [1.0, 2, 3.0],
              [1.0, True], [0.5, None], [0.5, "x"], [0.5, [1.0]]]
    doc = {"shared": [shared, {"deeper": shared}, shared], "floats": floats,
           "many": [{"i": i, "row": [i / 7.0] * 3, "loop": shared}
                    for i in range(io.FLUSH_PIECES)]}
    text = json.dumps(doc, sort_keys=True, indent=1)
    assert io.dump_json(doc, str(tmp_path / "doc.json")) is None
    assert (tmp_path / "doc.json").read_text() == text + "\n"
    assert io.dump_json(doc) == text
    chunks, held = _Chunks(), []
    io._encode(doc, 0, held, {}, chunks)
    assert len(chunks) >= 3 and len(held) < io.FLUSH_PIECES
    assert "".join(chunks + held) == text


def test_writer_leaves_no_reference_cycle(tmp_path):
    """Nothing the writer makes waits for the cyclic collector."""
    doc = {"a": [1.0, 2.0], "b": {"c": "d"}, "e": None}
    gc.collect()
    io.dump_json(doc, str(tmp_path / "x.json"))
    io.dump_json(doc)
    assert gc.collect() == 0


_JSON_LEAVES = (st.none() | st.booleans()
                | st.integers(-2**80, 2**80)
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324])
                | st.text())
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(doc=_JSON_DOCS)
@example(doc={"\u00e9\x00\n": ["\u2603\t\x1f\"\\", (), {}, [], -0.0, 10**30]})
def test_writer_matches_json_dumps(doc):
    """dump_json writes json.dumps(sort_keys=True, indent=1) byte for byte,
    also when one dict is reached at several depths and twice at one."""
    for obj in (doc, {"doc": doc, "again": [doc, {"deeper": doc}, doc]}):
        assert io.dump_json(obj) == json.dumps(obj, sort_keys=True, indent=1)


@pytest.mark.parametrize("argv", [
    ["delta", "--dim", "4"],
    ["mean", "--input", "{points}"],
    ["mean", "--input", "{weighted}"],
    ["transport", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
     "--loops", "2", "--word-length", "3", "--ode-steps", "100"],
    ["orbit", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
     "--loops", "2", "--word-length", "2", "--ode-steps", "100"],
    ["probe", "--manifold", "flat_torus_4", "--point", "0.5,0.5,0.5,0.5"],
    ["transport", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
     "--ode-steps", "50"],  # the error payload
], ids=["delta", "mean", "mean_weighted", "transport", "orbit", "probe", "error"])
def test_writer_matches_json_dumps_on_every_command(capsys, tmp_path, monkeypatch,
                                                    argv):
    J = acs.canonical_j(2)
    pts = [io.structure_to_json(acs.exp_map(J, acs.random_tangent(J, k, 0.3), 1.0))
           for k in range(3)]
    files = {"points": tmp_path / "points.json", "weighted": tmp_path / "weighted.json"}
    files["points"].write_text(json.dumps(pts))
    files["weighted"].write_text(json.dumps({"points": pts, "weights": [0.5, 0.25, 0.25]}))
    docs = []
    for name in ("dump_json", "write_json"):
        def recorded(obj, *args, writer=getattr(io, name)):
            docs.append(obj)
            return writer(obj, *args)
        monkeypatch.setattr(io, name, recorded)
    code, out, err = run_cli(capsys, *[a.format(**files) for a in argv], "--no-timestamp")
    assert len(docs) == 1
    assert (err if code else out) == json.dumps(docs[0], sort_keys=True, indent=1) + "\n"


_SPHERE_TRANSPORT = ["transport", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
                     "--loops", "5", "--no-timestamp"]


def test_stdout_is_streamed_with_the_bytes_of_the_file(tmp_path, monkeypatch):
    """Without --out, the document goes to standard output in several
    writes, with the bytes --out writes: dump_json's text and a newline."""
    docs = []
    write = io.write_json

    def recorded(obj, fh):
        docs.append(obj)
        write(obj, fh)

    chunks = _Chunks()
    monkeypatch.setattr(io, "write_json", recorded)
    monkeypatch.setattr(sys, "stdout", chunks)
    assert cli.main(_SPHERE_TRANSPORT) == 0
    assert len(chunks) >= 3
    assert "".join(chunks) == io.dump_json(docs[0]) + "\n"
    assert cli.main(_SPHERE_TRANSPORT + ["--out", str(tmp_path / "t.json")]) == 0
    assert (tmp_path / "t.json").read_text() == "".join(chunks)


def test_stdout_holds_no_more_than_the_file_writer(tmp_path, monkeypatch):
    """The traced peak of a transport command printing its 1.1 MB document
    stays within a quarter of the text's size of the same command writing
    it to --out: the whole text is never held."""
    cli.main(_SPHERE_TRANSPORT + ["--out", str(tmp_path / "warm.json")])
    size = (tmp_path / "warm.json").stat().st_size
    assert size > 10**6
    peaks = []
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        for extra in ([], ["--out", str(tmp_path / "t.json")]):
            tracemalloc.start()
            try:
                assert cli.main(_SPHERE_TRANSPORT + extra) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[0] <= peaks[1] + size / 4


_J1 = io.structure_to_json(acs.canonical_j(1))
_J2 = io.structure_to_json(acs.canonical_j(2))


@pytest.mark.parametrize("points,error", [
    ([], "malformed_input"),
    ([_J2, _J1], "malformed_input"),  # mixed sizes
    # the matrix reader stops these before they reach the sample set
    ([_J2, {"dim": 2, "rows": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]}],
     "dimension_mismatch"),
    ([{"dim": 3, "rows": np.eye(3).tolist()}], "odd_dimension"),
])
def test_mean_input_that_is_not_one_stack(capsys, tmp_path, points, error):
    src = tmp_path / "points.json"
    src.write_text(json.dumps({"points": points}))
    code, out, err = run_cli(capsys, "mean", "--input", str(src))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == error


# -- cli ----------------------------------------------------------------------

def test_delta_output_is_byte_deterministic(capsys):
    c1, out1, _ = run_cli(capsys, "delta", "--dim", "4", "--seed", "7",
                          "--no-timestamp")
    c2, out2, _ = run_cli(capsys, "delta", "--dim", "4", "--seed", "7",
                          "--no-timestamp")
    assert c1 == c2 == 0
    assert out1 == out2


def test_delta_reports_reproducibility_header(capsys):
    code, out, _ = run_cli(capsys, "delta", "--dim", "4", "--no-timestamp")
    doc = json.loads(out)
    assert code == 0
    assert doc["config"]["dim"] == 4
    assert doc["config"]["subcommand"] == "delta"
    assert "timestamp" not in doc
    assert doc["result"]["delta"] > 0.0


def test_probe_flat_torus_via_cli(capsys, tmp_path):
    out_file = tmp_path / "verdict.json"
    code = cli.main(["probe", "--manifold", "flat_torus_4",
                     "--point", "0.5,0.5,0.5,0.5", "--no-timestamp",
                     "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["result"]["kind"] == "KahlerWitness"
    assert doc["result"]["orbit_max_distance"] == 0.0


def test_mean_matches_midpoint_fixture(capsys, tmp_path):
    J1 = acs.random_j(2, 1)
    phi = acs.random_tangent(J1, 3, 0.4)
    J2 = acs.exp_map(J1, phi, 1.0)
    src = tmp_path / "two_points.json"
    src.write_text(io.dump_json([io.structure_to_json(J1),
                                 io.structure_to_json(J2)]))
    code, out, _ = run_cli(capsys, "mean", "--input", str(src),
                           "--no-timestamp")
    assert code == 0
    mean = io.structure_from_json(json.loads(out)["result"]["mean"])
    mid = acs.exp_map(J1, phi, 0.5)
    assert acs.distance(mean, mid) < 1e-8


def test_mean_rejects_invalid_structure(capsys, tmp_path):
    src = tmp_path / "bad.json"
    for mat in (np.eye(4), np.full((4, 4), np.nan)):
        src.write_text(io.dump_json([io.matrix_to_json(mat)]))
        code, out, err = run_cli(capsys, "mean", "--input", str(src))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "not_a_complex_structure"


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 4, "seed": 7}))
    code, out, _ = run_cli(capsys, "delta", "--config", str(cfg),
                           "--no-timestamp")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 7
    # explicit flag beats the config value
    code, out, _ = run_cli(capsys, "delta", "--config", str(cfg),
                           "--seed", "0", "--no-timestamp")
    assert json.loads(out)["config"]["seed"] == 0


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["delta", "--config", str(cfg)])
    assert exc.value.code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["transport", "--manifold", "flat_torus_4"])  # missing --point
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["delta", "--threads", "2"])  # no such flag
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["probe", "--manifold", "flat_torus_4", "--point", "0.5,0.5,0.5,0.5",
                  "--delta-dim", "6"])  # delta always has the chart's dimension
    assert exc.value.code == 1


def test_config_header_keys(capsys, tmp_path):
    """Each subcommand echoes exactly its own resolved flags."""
    common = {"subcommand", "no_timestamp"}
    loop = {"manifold", "point", "loop_kind", "loops", "loop_scale",
            "ode_steps", "word_length", "seed"}
    src = tmp_path / "points.json"
    src.write_text(io.dump_json([io.structure_to_json(acs.canonical_j(2))]))
    small = ["--manifold", "flat_torus_4", "--point", "0.5,0.5,0.5,0.5",
             "--loops", "2", "--word-length", "1", "--ode-steps", "100"]
    cases = {
        "delta": ([], {"dim", "samples", "resolution", "epsilon_override",
                       "no_cache", "seed"}),
        "mean": (["--input", str(src)], {"input", "tol", "max_iter"}),
        "transport": (small, loop),
        "orbit": (small, loop | {"j", "csv"}),
        "probe": (small + ["--grid", "9", "--field-steps", "100",
                           "--probe-points", "1"],
                  loop | {"j", "grid", "field_steps", "probe_points", "mean_tol"}),
    }
    for name, (argv, keys) in cases.items():
        code, out, _ = run_cli(capsys, name, *argv, "--no-timestamp")
        assert code == 0
        assert set(json.loads(out)["config"]) == common | keys


def test_transport_output_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "transport", "--manifold", "round_sphere_4",
                           "--point", "0,0,0,0", "--loops", "2",
                           "--loop-scale", "0.5", "--ode-steps", "400",
                           "--word-length", "1", "--no-timestamp")
    assert code == 0
    samples = json.loads(out)["result"]["samples"]
    assert len(samples) == 2
    for s in samples:
        Q = io.matrix_from_json(s["matrix"])
        assert float(np.max(np.abs(Q.T @ Q - np.eye(4)))) < 1e-8
        assert s["orthogonality_defect"] < 1e-4


def test_transport_too_few_ode_steps(capsys):
    code, out, err = run_cli(capsys, "transport", "--manifold", "round_sphere_4",
                             "--point", "0,0,0,0", "--ode-steps", "50")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "step_too_coarse"


def test_transport_too_many_ode_steps_starts_no_transport(capsys, monkeypatch):
    """Above MAX_STEPS the command ends in a domain error before any
    transport; MAX_STEPS itself is accepted."""
    calls = []

    def recorded(chart, paths, steps):
        calls.append(steps)
        return np.tile(np.eye(chart.dim), (len(paths), 1, 1))

    monkeypatch.setattr(holonomy, "_transport_coordinate", recorded)
    argv = ["transport", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
            "--loops", "1", "--no-timestamp", "--ode-steps"]
    code, out, err = run_cli(capsys, *argv, "100000000")
    assert (code, out, calls) == (2, "", [])
    assert json.loads(err)["error"] == "too_many_steps"
    code, out, _ = run_cli(capsys, *argv, str(holonomy.MAX_STEPS))
    assert (code, calls) == (0, [holonomy.MAX_STEPS])
    assert json.loads(out)["result"]["samples"][0]["ode_steps"] == holonomy.MAX_STEPS


@pytest.mark.parametrize("command", ["probe", "transport", "orbit"])
def test_zero_loops_is_a_domain_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--manifold", "flat_torus_4",
                             "--point", "0.5,0.5,0.5,0.5", "--loops", "0")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "invalid_loop_family"


def test_orbit_csv_export(capsys, tmp_path):
    csv_path = tmp_path / "distances.csv"
    code, out, _ = run_cli(capsys, "orbit", "--manifold", "round_sphere_4",
                           "--point", "0,0,0,0", "--loops", "2",
                           "--word-length", "1", "--csv", str(csv_path),
                           "--no-timestamp")
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "index,distance"
    assert len(lines) == 1 + len(json.loads(out)["result"]["distances"])


def run_cli_exit(capsys, *argv):
    """run_cli, with a usage error's SystemExit read as its exit status."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_degenerate_probe_is_an_invalid_loop_family(capsys):
    code, out, err = run_cli_exit(capsys, "probe", "--manifold", "round_sphere_4",
                                  "--point", "0,0,0,0", "--loop-scale", "0",
                                  "--probe-points", "0")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "invalid_loop_family"


def test_transport_of_six_letter_words(capsys):
    code, out, _ = run_cli(capsys, "transport", "--manifold", "round_sphere_4",
                           "--point", "0,0,0,0", "--loops", "1", "--word-length", "6",
                           "--ode-steps", "100", "--no-timestamp")
    assert code == 0
    assert max(len(s["word"]) for s in json.loads(out)["result"]["samples"]) == 6


def test_probe_with_tiny_rectangles_far_from_the_centre(capsys):
    """Sides of 1.1e-15 at (3, 3, 3, 3) still move: a verdict, not a traceback."""
    code, out, err = run_cli_exit(capsys, "probe", "--manifold", "round_sphere_4",
                                  "--point", "3,3,3,3", "--loop-scale", "1.1e-15",
                                  "--ode-steps", "100", "--field-steps", "100",
                                  "--probe-points", "1", "--word-length", "2",
                                  "--no-timestamp")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["kind"] == "Inconclusive"


@pytest.mark.parametrize("command", ["probe", "transport"])
def test_point_of_the_wrong_length_is_a_dimension_mismatch(capsys, command):
    code, out, err = run_cli_exit(capsys, command, "--manifold", "round_sphere_4",
                                  "--point", "0.5,0.5")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "dimension_mismatch"


_ONE_POINT = io.dump_json([io.structure_to_json(acs.canonical_j(2))])
_TWO_POINTS = io.dump_json([io.structure_to_json(acs.canonical_j(2))] * 2)
# values that float() or int() would read as numbers, and a "points" that is
# not an array: each is malformed input
_NOT_NUMBERS = {
    "weights_string": '{"points": %s, "weights": "01"}' % _TWO_POINTS,
    "weights_bool": '{"points": %s, "weights": [true]}' % _ONE_POINT,
    "dim_fraction": '[{"dim": 2.9, "rows": [[0.0, -1.0], [1.0, 0.0]]}]',
    "dim_bool": '[{"dim": true, "rows": [[0.0, -1.0]]}]',
    "entries_strings": '[{"dim": 2, "rows": [["0", "-1"], ["1", "0"]]}]',
    "entries_bools": '[{"dim": 2, "rows": [[false, -1.0], [true, false]]}]',
    "points_object": '{"points": {"a": %s}}' % _ONE_POINT,
}


@pytest.mark.parametrize("argv,files,status", [
    (["mean", "--input", "bad.json"], {"bad.json": "{bad"}, 2),
    (["mean", "--input", "missing.json"], {}, 2),
    (["mean", "--input", "empty.json"], {"empty.json": "[]"}, 2),
    (["mean", "--input", "weights.json"], {"weights.json": '{"weights": [1.0]}'}, 2),
    (["orbit", "--manifold", "round_sphere_4", "--point", "0,0,0,0", "--loops", "1",
      "--word-length", "1", "--j", "j.json"],
     {"j.json": '{"dim": 2, "rows": [[0.0, "x"], [1.0, 0.0]]}'}, 2),
    (["delta", "--samples", "5"], {}, 1),
    (["delta", "--resolution", "0.1"], {}, 1),
    (["mean", "--input", "points.json", "--tol", "1e-20"], {}, 1),
    (["mean", "--input", "points.json", "--max-iter", "-1", "--no-timestamp"],
     {"points.json": _ONE_POINT}, 1),
    (["mean", "--input", "points.json", "--max-iter", "0"], {"points.json": _ONE_POINT}, 1),
    (["probe", "--manifold", "fubini_study_cp2", "--point", "0,0,0,0",
      "--mean-tol", "1e-20"], {}, 1),
    (["mean", "--input", "nan.json"],
     {"nan.json": '{"points": %s, "weights": [NaN, 1.0]}' % _TWO_POINTS}, 2),
    *[(["mean", "--input", f"{name}.json"], {f"{name}.json": text}, 2)
      for name, text in _NOT_NUMBERS.items()],
    (["transport", "--manifold", "flat_torus_4", "--point", "0.5,0.5,0.5,0.5",
      "--loops", "1", "--word-length", "1", "--out", "missing/x.json"], {}, 2),
    (["orbit", "--manifold", "flat_torus_4", "--point", "0.5,0.5,0.5,0.5",
      "--loops", "1", "--word-length", "1", "--csv", "missing/x.csv"], {}, 2),
])
def test_bad_inputs_end_in_a_stable_outcome(capsys, tmp_path, monkeypatch,
                                            argv, files, status):
    """Unreadable or malformed input files and unwritable output paths are
    domain errors (exit 2) and out-of-range flags are usage errors (exit 1);
    neither is a traceback."""
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_cli_exit(capsys, *argv)
    assert code == status
    assert out == ""
    assert "Traceback" not in err
    if status == 2:
        writes = {"--out", "--csv"} & set(argv)
        assert json.loads(err)["error"] == ("output_not_writable" if writes
                                            else "malformed_input")


@pytest.mark.parametrize("argv", [
    ["probe", "--manifold", "fubini_study_cp2", "--point", "0,0,0,0",
     "--out", "missing/x.json"],
    ["orbit", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
     "--csv", "missing/x.csv"],
    ["orbit", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
     "--out", "kept.json", "--csv", "missing/x.csv"],
    ["transport", "--manifold", "round_sphere_4", "--point", "0,0,0,0", "--out", "."],
    ["transport", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
     "--out", "kept.json/"],
])
def test_unwritable_output_is_found_before_the_work(capsys, tmp_path, monkeypatch, argv):
    """An output path that cannot be written ends the command before any
    estimate or transport, and no file is created or truncated."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kept.json").write_text("previous")

    def not_called(*args, **kwargs):
        raise AssertionError("the work ran before the output check")

    monkeypatch.setattr(cli, "compute_delta", not_called)
    monkeypatch.setattr(holonomy, "loop_family", not_called)
    code, out, err = run_cli_exit(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "output_not_writable"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]
    assert (tmp_path / "kept.json").read_text() == "previous"


def test_transport_loop_descriptions_are_pinned(capsys):
    """The replayable loop JSON of the 758 samples of the default closure on
    five sphere rectangles, as pinned by the benchmark reference."""
    code, out, _ = run_cli(capsys, "transport", "--manifold", "round_sphere_4",
                           "--point", "0,0,0,0", "--loops", "5", "--no-timestamp")
    assert code == 0
    samples = json.loads(out)["result"]["samples"]
    loops = json.dumps([s["loop"] for s in samples], sort_keys=True,
                       separators=(",", ":"))
    assert len(samples) == 758
    assert hashlib.sha256(loops.encode()).hexdigest() == \
        "1146e736e4f449d6b490008649fe68002d9278ccb1faaa8ceefd6cf163adf5f4"


def test_config_values_go_through_the_flag_checks(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 5}))
    code, out, err = run_cli_exit(capsys, "delta", "--config", str(cfg), "--no-cache")
    assert (code, out) == (1, "")
    assert "argument --samples: 5 is outside [100, inf]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("form", ["separate", "joined"])
def test_config_can_supply_required_keys(capsys, tmp_path, form):
    """A config holding --manifold and --point runs transport, with the same
    bytes as the flag form; a switch set true and a list both carry over."""
    flags = ["--manifold", "round_sphere_4", "--point", "0.5,0,0,0", "--loops", "2",
             "--word-length", "1", "--ode-steps", "100", "--no-timestamp"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"manifold": "round_sphere_4", "point": [0.5, 0, 0, 0],
                               "loops": 2, "word_length": 3, "ode_steps": 100,
                               "no_timestamp": True}))
    config = ["--config", str(cfg)] if form == "separate" else [f"--config={cfg}"]
    code, out, err = run_cli(capsys, "transport", *config, "--word-length", "1")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "transport", *flags)[1]


@pytest.mark.parametrize("argv", [
    ["delta", "--resolution", "0", "--no-cache"],
    ["delta", "--resolution", "1e-4", "--no-cache"],
    ["delta", "--epsilon-override", "nan", "--no-cache"],
    ["delta", "--epsilon-override", "inf", "--no-cache"],
    ["delta", "--epsilon-override", "0", "--no-cache"],
    ["delta", "--epsilon-override", "-1", "--no-cache"],
    ["delta", "--seed", "-1"],
    ["delta", "--dim", "0", "--no-cache"],
    ["delta", "--dim", "-4", "--no-cache"],
    ["probe", "--manifold", "flat_torus_4", "--point", "0.5,0.5,0.5,0.5", "--seed", "-1"],
    ["transport", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
     "--loop-kind", "fourier_random", "--seed", "-1"],
    ["mean", "--input", "points.json", "--seed", "0"],
    ["transport", "--manifold", "round_sphere_4", "--point", "0,0,0,0",
     "--word-length", "0"],
    ["probe", "--manifold", "flat_torus_4", "--point", "0.5,0.5,0.5,0.5",
     "--word-length", "-3"],
])
def test_out_of_range_delta_and_seed_inputs_are_usage_errors(capsys, argv):
    code, out, err = run_cli_exit(capsys, *argv)
    assert (code, out) == (1, "")
    assert "Traceback" not in err


def test_delta_dim_from_a_config_goes_through_the_bound(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 0}))
    code, out, err = run_cli_exit(capsys, "delta", "--config", str(cfg), "--no-cache")
    assert (code, out) == (1, "")
    assert "argument --dim: 0 is outside [2, inf]" in err


@pytest.mark.parametrize("dim,error", [("5", "odd_dimension"), ("3", "odd_dimension"),
                                       ("2", "dimension_too_small")])
def test_odd_or_n1_delta_dim_is_a_dimension_error(capsys, monkeypatch, dim, error):
    """An odd --dim is rejected before any estimate; --dim 2 reaches the
    estimator, which has no 2-planes to sample for n = 1."""
    if error == "odd_dimension":
        monkeypatch.setattr(cli, "compute_delta", lambda *a, **kw: pytest.fail("estimated"))
    code, out, err = run_cli_exit(capsys, "delta", "--dim", dim, "--no-cache")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == error


def test_n1_probe_is_a_dimension_error(capsys):
    code, out, err = run_cli_exit(capsys, "probe", "--manifold", "round_sphere_2",
                                  "--point", "0,0")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "dimension_too_small",
                               "detail": "no 2-planes for n = 1"}


# -- fuzz ---------------------------------------------------------------------

def _values(*vs):
    return st.sampled_from(vs)


_LOOP_BASE = {"manifold": "flat_torus_4", "point": [0.5] * 4, "loops": 2,
              "ode_steps": 100, "word_length": 1, "no_timestamp": True}
_LOOP_KEYS = {"loop_kind", "loops", "loop_scale", "ode_steps", "word_length",
              "seed", "point", "no_timestamp"}
# per command: (keys every run sets, so that it stays short; keys drawn over them)
_FUZZ = {
    "transport": (_LOOP_BASE, _LOOP_KEYS),
    "orbit": (_LOOP_BASE, _LOOP_KEYS),
    "probe": ({**_LOOP_BASE, "grid": 9, "field_steps": 100, "probe_points": 1},
              _LOOP_KEYS | {"mean_tol"}),
    "mean": ({"no_timestamp": True}, {"tol", "max_iter", "no_timestamp"}),
    "delta": ({"no_timestamp": True}, {"dim", "seed", "samples", "resolution",
                                       "epsilon_override", "no_timestamp"}),
}
_VALUES = {"loop_kind": _values("coordinate_rectangles", "fourier_random"),
           "loops": _values(-1, 0, 1, 2),
           "loop_scale": _values(0.0, 0.3, -0.3, 1e-16, math.nan, math.inf),
           "ode_steps": _values(-1, 0, 99, 100),
           "word_length": _values(-1, 0, 1, 2),
           "seed": _values(-1, 0, 3),
           "point": st.lists(_values(0.5, math.nan, math.inf), min_size=3, max_size=5),
           "no_timestamp": st.booleans(),
           "mean_tol": _values(1e-20, 1e-10),
           "tol": _values(1e-20, 1e-10, math.nan),
           "max_iter": _values(-1, 0, 5),
           "dim": _values(2, 4),
           "samples": _values(5, 100),
           "resolution": _values(0.0, 1e-4),
           "epsilon_override": _values(-1.0, 0.0, math.nan, math.inf)}


def _hung(signum, frame):
    raise TimeoutError("the run did not return within 20 s")


def _as_flags(key, value) -> list:
    flag = "--" + key.replace("_", "-")
    if isinstance(value, bool):
        return [flag] if value else []
    if isinstance(value, list):
        value = ",".join(repr(v) for v in value)
    return [flag, str(value)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(_FUZZ)),
       values=st.fixed_dictionaries({}, optional=_VALUES),
       in_config=st.sets(st.sampled_from(sorted(_VALUES) + ["manifold"])))
@example(command="transport", values={"loop_kind": "fourier_random", "seed": -1},
         in_config=set())
@example(command="delta", values={"samples": 5}, in_config={"samples"})
@example(command="delta", values={"epsilon_override": -1.0}, in_config=set())
def test_cli_fuzz_ends_in_an_exit_status(tmp_path_factory, command, values, in_config):
    """Flags, or the same keys from a --config file, end within 20 s in
    exit 0 with a JSON document, 1 (usage error) or 2 with a JSON error
    code; never in an exception."""
    base, drawn = _FUZZ[command]
    keys = {**base, **{k: v for k, v in values.items() if k in drawn}}
    work = tmp_path_factory.mktemp("fuzz")
    if command == "mean":
        J = acs.canonical_j(2)
        points = [J, acs.exp_map(J, acs.random_tangent(J, 1, 0.3), 1.0)]
        (work / "points.json").write_text(
            io.dump_json([io.structure_to_json(P) for P in points]))
        keys["input"] = str(work / "points.json")
    in_config = in_config & set(keys)
    argv = [command]
    if in_config:
        (work / "cfg.json").write_text(json.dumps({k: keys[k] for k in in_config}))
        argv += ["--config", str(work / "cfg.json")]
    for key, value in keys.items():
        if key not in in_config:
            argv += _as_flags(key, value)

    out, err = StringIO(), StringIO()
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(20)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), argv
    if code == 0:
        assert "result" in json.loads(out.getvalue())
    if code == 2:
        assert json.loads(err.getvalue())["error"]
