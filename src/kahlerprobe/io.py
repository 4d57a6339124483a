"""JSON exchange formats for matrices, sample sets, and holonomy samples.

The single matrix schema is ``{"dim": 2n, "rows": [[...], ...]}`` with
row-major 64-bit floats.  Everything the CLI emits can be read back by the
subcommand that consumes that artifact type.
"""

from __future__ import annotations

import json
import math
import os
from json.encoder import encode_basestring_ascii

import numpy as np

from . import acs
from .errors import DimensionMismatch, MalformedInput, OutputNotWritable
from .karcher import WeightedSampleSet


def matrix_to_json(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=float)
    return {"dim": int(mat.shape[0]), "rows": mat.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "rows" not in obj:
        raise DimensionMismatch('expected a {"dim": ..., "rows": ...} object')
    try:
        mat = np.array(obj["rows"], dtype=float)
        d = int(obj["dim"])
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"matrix entries are not numbers: {exc}") from exc
    if mat.shape != (d, d):
        raise DimensionMismatch(f"rows have shape {mat.shape}, dim says {d}")
    return mat


def structure_to_json(J: acs.OrthoComplexStructure) -> dict:
    return matrix_to_json(J.mat)


def structure_from_json(obj: dict) -> acs.OrthoComplexStructure:
    return acs.validate_j(matrix_from_json(obj), tol=acs.TOL_INPUT)


def sample_set_from_json(obj: dict) -> WeightedSampleSet:
    """Accepts {"points": [matrix...], "weights": [...]} (weights optional)
    or a bare JSON array of matrices with uniform weights."""
    if isinstance(obj, dict) and "points" in obj:
        matrices, weights = obj["points"], obj.get("weights")
    elif isinstance(obj, list):
        matrices, weights = obj, None
    else:
        raise MalformedInput('expected an array of matrices or {"points": [...]}')
    try:
        points = tuple(structure_from_json(m) for m in matrices)
        if weights is None:
            return WeightedSampleSet.uniform(points)
        return WeightedSampleSet(points, weights)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"not a sample set: {exc}") from exc


def holonomy_sample_to_json(sample) -> dict:
    return {"base_point": np.asarray(sample.base_point, dtype=float).tolist(),
            "matrix": matrix_to_json(sample.matrix),
            "ode_steps": int(sample.ode_steps),
            "orthogonality_defect": float(sample.orthogonality_defect),
            "word": list(sample.word),
            "loop": sample.loop.description}


def load_json(path: str):
    """The JSON document in the file at path; MalformedInput when the file
    cannot be read or is not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def check_writable(path: str) -> None:
    """OutputNotWritable unless ``write_text`` can write the file at path:
    an existing file must be writable, a new one needs a writable
    directory.  Nothing is created or truncated."""
    folder = os.path.dirname(path) or "."
    if not os.path.basename(path) or os.path.isdir(path):
        why = "not a file name"
    elif os.path.exists(path):
        why = "" if os.access(path, os.W_OK) else "the file is read-only"
    elif not os.path.isdir(folder):
        why = f"no directory {folder}"
    else:
        why = "" if os.access(folder, os.W_OK | os.X_OK) else f"{folder} is read-only"
    if why:
        raise OutputNotWritable(f"cannot write {path}: {why}")


def write_text(path: str, text: str) -> None:
    """Write text to the file at path; OutputNotWritable when it cannot be
    written."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputNotWritable(f"cannot write {path}: {exc}") from exc


def _json_text(obj) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=1)``, byte for
    byte, for dicts with string keys, lists, tuples, strings, ints, floats,
    bools and None.  A dict is encoded once per depth: a product loop's
    description holds its generators' description dicts.  The memo is keyed
    on (id, depth) and holds the dict, so no other object can take its id."""
    memo = {}

    def enc(o, depth):
        if isinstance(o, float):
            if o != o or o in (math.inf, -math.inf):
                return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
            return float.__repr__(o)
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if o is None or o is True or o is False:
            return "null" if o is None else "true" if o else "false"
        if isinstance(o, int):
            return int.__repr__(o)
        ind = "\n" + " " * depth
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            return "[" + ind + " " + ("," + ind + " ").join(
                [enc(v, depth + 1) for v in o]) + ind + "]"
        if not isinstance(o, dict):
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        if not o:
            return "{}"
        if (id(o), depth) not in memo:
            memo[id(o), depth] = (o, "{" + ind + " " + ("," + ind + " ").join(
                [encode_basestring_ascii(k) + ": " + enc(v, depth + 1)
                 for k, v in sorted(o.items())]) + ind + "}")
        return memo[id(o), depth][1]

    return enc(obj, 0)


def dump_json(obj, path: str | None = None) -> str:
    """Deterministic serialization: sorted keys, one-space indent
    (``_json_text``), written to path with a final newline when given."""
    text = _json_text(obj)
    if path is not None:
        write_text(path, text + "\n")
    return text
