"""Command-line entry point.

Subcommands: ``delta`` (the dichotomy constant), ``mean`` (Karcher
mean of a JSON sample set), ``transport`` (holonomy samples of a loop
family), ``orbit`` (conjugation orbit of a structure under sampled
holonomy), and ``probe`` (the full dichotomy pipeline).

Every output is a JSON document with a reproducibility header: the fully
resolved configuration and an optional timestamp (``--no-timestamp`` for
byte-stable output).  Domain errors exit with status 2 and a
``{"error": code, "detail": ...}`` payload on stderr, also when stderr is
closed or cannot be written and the payload is lost; usage errors exit 1.
Output paths, and standard output when it is the output, are checked before
the command runs, and a failed write to standard output is the domain error
``output_not_writable`` as well.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys

import numpy as np

from . import holonomy, io, karcher, prober
from .constants import compute_delta
from .errors import KahlerProbeError, MalformedInput, OddDimension, OutputNotWritable

_DEFAULT = prober.ProbeConfig()


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _csv_floats(text: str) -> list:
    return [float(v) for v in text.split(",")]


def _bounded(cast, lo=-np.inf, hi=np.inf):
    """An argparse type: ``cast`` of the text, rejected outside [lo, hi]."""
    def parse(text):
        v = cast(text)
        if not lo <= v <= hi:
            raise argparse.ArgumentTypeError(f"{text} is outside [{lo}, {hi}]")
        return v
    return parse


def _add_common(sub):
    sub.add_argument("--config",
                     help="JSON file of flag keys (any key, required ones "
                          "included); flags given on the command line win")
    sub.add_argument("--out", help="write the output JSON here instead of stdout")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp field (byte-stable output)")


def _add_loop_flags(sub):
    sub.add_argument("--manifold", required=True,
                     choices=holonomy.CATALOG_NAMES)
    sub.add_argument("--point", required=True, type=_csv_floats,
                     help="base point, comma-separated coordinates")
    sub.add_argument("--loop-kind", default=_DEFAULT.loop_kind,
                     choices=holonomy.LOOP_KINDS)
    sub.add_argument("--loops", type=int, default=_DEFAULT.loops)
    sub.add_argument("--loop-scale", type=float, default=_DEFAULT.loop_scale)
    sub.add_argument("--ode-steps", type=int, default=_DEFAULT.ode_steps)
    sub.add_argument("--word-length", type=_bounded(int, lo=1),
                     default=_DEFAULT.word_length)
    sub.add_argument("--seed", type=_bounded(int, lo=0), default=_DEFAULT.seed)


def build_parser():
    parser = _Parser(prog="kahler-probe",
                     description="Kahler dichotomy pipeline on chart-defined "
                                 "Riemannian manifolds")
    subs = parser.add_subparsers(dest="subcommand", required=True,
                               parser_class=_Parser)
    by_name = {}

    p = subs.add_parser("delta",
                        help="the dichotomy constant")
    p.add_argument("--dim", type=_bounded(int, lo=2), default=4, help="ambient dimension 2n")
    p.add_argument("--epsilon-override", default=None,
                   type=_bounded(float, lo=np.finfo(float).tiny, hi=np.finfo(float).max))
    _add_common(p)
    by_name["delta"] = p

    p = subs.add_parser("mean",
                        help="Karcher mean of a JSON sample set")
    p.add_argument("--input", required=True,
                   help="JSON file: array of matrices or "
                        '{"points": [...], "weights": [...]}')
    p.add_argument("--tol", type=_bounded(float, lo=karcher.MIN_TOL),
                   default=karcher.DEFAULT_TOL)
    p.add_argument("--max-iter", type=_bounded(int, lo=1),
                   default=karcher.DEFAULT_MAX_ITER)
    _add_common(p)
    by_name["mean"] = p

    p = subs.add_parser("transport",
                        help="holonomy samples of a loop family")
    _add_loop_flags(p)
    _add_common(p)
    by_name["transport"] = p

    p = subs.add_parser("orbit",
                        help="conjugation orbit of a structure under "
                             "sampled holonomy")
    _add_loop_flags(p)
    p.add_argument("--j", default="auto",
                   help="'auto' or a JSON matrix file (orthonormal frame)")
    p.add_argument("--csv", help="also write the distance table as CSV")
    _add_common(p)
    by_name["orbit"] = p

    p = subs.add_parser("probe",
                        help="full dichotomy pipeline")
    _add_loop_flags(p)
    p.add_argument("--j", default="auto")
    p.add_argument("--grid", type=int, default=_DEFAULT.grid_res)
    p.add_argument("--field-steps", type=int, default=_DEFAULT.field_steps)
    p.add_argument("--probe-points", type=int, default=_DEFAULT.probe_points)
    p.add_argument("--mean-tol", type=_bounded(float, lo=karcher.MIN_TOL),
                   default=_DEFAULT.mean_tol)
    _add_common(p)
    by_name["probe"] = p

    return parser, by_name


def _resolved_config(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("config", "out")}
    return cfg


def _emit(args, result: dict) -> None:
    doc = {"config": _resolved_config(args), "result": result}
    if not args.no_timestamp:
        doc["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if args.out is None:
        try:
            io.write_json(doc, sys.stdout)
            sys.stdout.flush()
        except OSError as exc:
            _drop(sys.stdout)
            raise OutputNotWritable(f"cannot write standard output: {exc}") from exc
    else:
        io.dump_json(doc, args.out)


def _report(exc: KahlerProbeError) -> None:
    """Print the error's payload to standard error.  A closed stderr
    (None) gets nothing, so the payload never falls through to stdout, and
    one that cannot be written is dropped; the exit status stays 2."""
    if sys.stderr is None:
        return
    try:
        print(io.dump_json({"error": exc.code, "detail": str(exc)}), file=sys.stderr,
              flush=True)
    except OSError:
        _drop(sys.stderr)


def _drop(stream) -> None:
    """Point a standard stream's descriptor at os.devnull, so that the
    interpreter's exit-time flush of what the stream still buffers succeeds
    and prints nothing; a stream with no descriptor is left as it is."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def _structure_for(args, chart, p):
    if args.j == "auto":
        return prober.default_structure(chart, p)
    return io.structure_from_json(io.load_json(args.j))


def _loop_samples(args):
    chart = holonomy.catalog(args.manifold)
    p = np.asarray(args.point, dtype=float)
    loops = holonomy.loop_family(chart, p, args.loop_kind, args.loops,
                                 args.loop_scale, seed=args.seed)
    samples = holonomy.holonomy_samples(chart, p, loops, args.ode_steps,
                                        word_length=args.word_length)
    return chart, p, samples


def _delta_json(delta) -> dict:
    return {"n": delta.n, "delta": delta.delta,
            "epsilon_used": delta.epsilon_used, "inj_used": delta.inj_used}


def _cmd_delta(args) -> dict:
    if args.dim % 2:
        raise OddDimension(f"dimension {args.dim} is odd; a complex structure needs 2n")
    delta = compute_delta(args.dim // 2, args.epsilon_override)
    return _delta_json(delta)


def _cmd_mean(args) -> dict:
    s = io.sample_set_from_json(io.load_json(args.input))
    res = karcher.karcher_mean(s, tol=args.tol, max_iter=args.max_iter)
    return {"mean": io.structure_to_json(res.mean),
            "iterations": res.iterations,
            "final_grad_norm": res.final_grad_norm,
            "energy": res.energy,
            "converged": res.converged}


def _cmd_transport(args) -> dict:
    _, _, samples = _loop_samples(args)
    return {"samples": [io.holonomy_sample_to_json(s) for s in samples]}


def _cmd_orbit(args) -> dict:
    chart, p, samples = _loop_samples(args)
    J_p = _structure_for(args, chart, p)
    report = prober.orbit(J_p, samples)
    if args.csv:
        io.write_text(args.csv, "index,distance\n" + "".join(
            f"{i},{d!r}\n" for i, d in enumerate(report.distances)))
    return {"j": io.structure_to_json(J_p),
            "distances": list(report.distances),
            "max_distance": report.max_distance,
            "argmax_loop": report.argmax_loop,
            "argmax_word": list(samples[report.argmax_loop].word)
            if report.argmax_loop >= 0 else []}


def _cmd_probe(args) -> dict:
    chart = holonomy.catalog(args.manifold)
    p = chart.coords(args.point)
    J_p = None if args.j == "auto" else io.structure_from_json(io.load_json(args.j))
    holonomy.check_loop_family(args.loop_kind, args.loops, args.loop_scale)
    delta = compute_delta(chart.dim // 2)
    config = prober.ProbeConfig(loop_kind=args.loop_kind, loops=args.loops,
                                loop_scale=args.loop_scale,
                                ode_steps=args.ode_steps,
                                word_length=args.word_length,
                                grid_res=args.grid,
                                field_steps=args.field_steps,
                                probe_points=args.probe_points,
                                seed=args.seed, mean_tol=args.mean_tol)
    v = prober.probe(chart, p, J_p=J_p, config=config, delta=delta)
    result = {"kind": v.kind,
              "delta": _delta_json(v.delta_used),
              "certificates": dict(v.certificates),
              "failing_stage": v.failing_stage,
              "detail": v.detail}
    if v.orbit_report is not None:
        result["orbit_max_distance"] = v.orbit_report.max_distance
    if v.kind == "HolonomyObstruction":
        sample = v.orbit_report.samples[v.witness_loop_index]
        result["witness"] = {"loop_index": v.witness_loop_index,
                             "distance": v.witness_distance,
                             "word": list(sample.word),
                             "loop": sample.loop.description}
    if v.mean_result is not None:
        result["mean"] = io.structure_to_json(v.mean_result.mean)
    if v.global_field is not None:
        result["path_independence_residual"] = \
            v.global_field.path_independence_residual
    return result


_COMMANDS = {"delta": _cmd_delta, "mean": _cmd_mean, "transport": _cmd_transport,
             "orbit": _cmd_orbit, "probe": _cmd_probe}


def _config_flags(sub, path) -> list:
    """The flags that set the keys of the JSON config file at path: a switch
    appears only when its value is true, a list is comma-joined, and a null
    leaves the flag's default."""
    try:
        cfg = io.load_json(path)
    except MalformedInput as exc:
        sub.error(f"cannot read config file: {exc}")
    if not isinstance(cfg, dict):
        sub.error("a config file holds one JSON object")
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(cfg) - set(actions))
    if unknown:
        sub.error(f"unknown config keys: {', '.join(unknown)}")
    flags = []
    for key, value in cfg.items():
        opt = actions[key].option_strings[0]
        if actions[key].nargs == 0:
            if not isinstance(value, bool):
                sub.error(f"config key {key} is a switch: true or false")
            flags += [opt] if value else []
        elif value is not None:
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            flags.append(f"{opt}={value}")
    return flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, by_name = build_parser()
    sub = by_name.get(argv[0]) if argv else None
    if sub is not None:
        pre = _Parser(prog=sub.prog, add_help=False)
        pre.add_argument("--config")
        path = pre.parse_known_args(argv[1:])[0].config
        if path is not None:
            # the command line's own flags come later, so they win
            argv = argv[:1] + _config_flags(sub, path) + argv[1:]
    args = parser.parse_args(argv)
    try:
        if args.out is None and sys.stdout is None:
            raise OutputNotWritable("standard output is closed")
        for path in (args.out, getattr(args, "csv", None)):
            if path is not None:
                io.check_writable(path)
        _emit(args, _COMMANDS[args.subcommand](args))
    except KahlerProbeError as exc:
        _report(exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
