"""JSON exchange formats for matrices, sample sets, and holonomy samples.

The single matrix schema is ``{"dim": 2n, "rows": [[...], ...]}`` with
row-major 64-bit floats.  Everything the CLI emits can be read back by the
subcommand that consumes that artifact type.  ``dump_json`` writes the bytes
of ``json.dumps(obj, sort_keys=True, indent=1, default=np.ndarray.tolist)``,
so a numpy array in a document is written as its ``tolist()``: a holonomy
sample's document holds the sample's own base point and matrix, not copies.
``write_json`` streams the same encoding into an open file (standard
output, or the file at ``dump_json``'s path) in chunks, so the whole text is
never held in memory.
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
    d, rows = obj["dim"], obj["rows"]
    # type(), not isinstance: a bool is an int to isinstance
    if not (type(d) is int and isinstance(rows, list) and all(
            isinstance(r, list) and all(type(x) in (int, float) for x in r) for r in rows)):
        raise MalformedInput("dim is not an integer, or rows are not arrays of numbers")
    try:
        mat = np.array(rows, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise MalformedInput(f"matrix rows are not a table of floats: {exc}") from exc
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
    if not isinstance(matrices, list):
        raise MalformedInput('"points" is not an array of matrices')
    try:
        points = tuple(structure_from_json(m) for m in matrices)
        if weights is None:
            return WeightedSampleSet.uniform(points)
        return WeightedSampleSet(points, weights)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"not a sample set: {exc}") from exc


def holonomy_sample_to_json(sample) -> dict:
    """The sample's document; its base point and matrix are the sample's own
    float arrays (no copy), which the writer encodes as their ``tolist()``."""
    mat = np.asarray(sample.matrix, dtype=float)
    return {"base_point": np.asarray(sample.base_point, dtype=float),
            "matrix": {"dim": int(mat.shape[0]), "rows": mat},
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
    """OutputNotWritable unless the file at path can be written:
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


FLUSH_PIECES = 2048  # encoded pieces held before they are written out
SHARED_KEYS = ("of", "parts")  # keys under which a loop description holds shared ones


def _encode(o, depth, out, memo, fh, shared=False):
    """Append the text of ``json.dumps(o, sort_keys=True, indent=1,
    default=np.ndarray.tolist)`` at nesting depth ``depth`` to the list
    ``out``, piece by piece, for dicts with string keys, lists, tuples, numpy
    arrays, strings, ints, floats, bools and None.  When ``fh`` is a file,
    ``out`` is written to it and emptied whenever a container ends with
    FLUSH_PIECES pieces or more held.

    An array is written as its ``tolist()``, and a list of finite floats is
    one join.  A shared dict, the value of a key in SHARED_KEYS or an item
    of a list there (a product loop's description holds its generators'),
    is encoded to a string once per depth and reused after that; ``memo``
    records only these, keyed on (id, depth), and each record holds the
    dict, so no other object can take its id.  Any other dict is streamed
    and leaves no record."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None or o is True or o is False:
        out.append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        if o != o or o in (math.inf, -math.inf):
            out.append("NaN" if o != o else "Infinity" if o > 0 else "-Infinity")
        else:
            out.append(float.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        ind = "\n" + " " * depth
        sep = "," + ind + " "
        if isinstance(o[0], float):
            try:
                text = sep.join(map(float.__repr__, o))
            except TypeError:  # an item that is not a float: the path below
                text = "n"
            if "n" not in text:  # no nan or inf
                out.append("[" + ind + " " + text + ind + "]")
                return
        out.append("[" + ind + " ")
        for i, v in enumerate(o):
            if i:
                out.append(sep)
            _encode(v, depth + 1, out, memo, fh, shared)
        out.append(ind + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        if shared:
            key = id(o), depth
            if key in memo:
                if memo[key][1] is None:  # met again: encoded to a string once
                    text = []
                    _encode_items(o, depth, text, memo, None)
                    memo[key] = (o, "".join(text))
                out.append(memo[key][1])
                return
            memo[key] = (o, None)  # met first here: streamed
        _encode_items(o, depth, out, memo, fh)
    elif isinstance(o, np.ndarray):
        _encode(o.tolist(), depth, out, memo, fh)
        return
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    if fh is not None and len(out) >= FLUSH_PIECES:
        fh.write("".join(out))
        out.clear()


def _encode_items(o, depth, out, memo, fh):
    """The text of the non-empty dict o at depth, keys sorted, as ``_encode``
    writes it."""
    ind = "\n" + " " * depth
    lead = "{" + ind + " "
    for k, v in sorted(o.items()):
        out.append(lead + encode_basestring_ascii(k) + ": ")
        _encode(v, depth + 1, out, memo, fh, k in SHARED_KEYS)
        lead = "," + ind + " "
    out.append(ind + "}")


def write_json(obj, fh) -> None:
    """Stream the text of ``dump_json(obj)`` and a final newline into the
    open text file fh, FLUSH_PIECES pieces at a time, so the whole text is
    never held."""
    out = []
    _encode(obj, 0, out, {}, fh)
    out.append("\n")
    fh.write("".join(out))


def dump_json(obj, path: str | None = None) -> str | None:
    """Deterministic serialization, the text of ``json.dumps(obj,
    sort_keys=True, indent=1, default=np.ndarray.tolist)`` byte for byte:
    a numpy array is written as its ``tolist()``.  Without a path, the text;
    with one, write_json into the file at path and None;
    OutputNotWritable when it cannot be written."""
    if path is None:
        out = []
        _encode(obj, 0, out, {}, None)
        return "".join(out)
    try:
        with open(path, "w") as fh:
            write_json(obj, fh)
    except OSError as exc:
        raise OutputNotWritable(f"cannot write {path}: {exc}") from exc
    return None
