"""Outside-in spans around kahlerprobe's public functions.

The program is not changed: ``Tracer.install`` replaces every binding of
each traced function in every kahlerprobe module with a recording wrapper,
and ``uninstall`` puts the originals back.  Patching only the defining
module would miss calls through names imported elsewhere (``prober``
imports ``compute_delta``, ``karcher_mean`` and ``karcher_mean_checked``;
``cli`` imports ``compute_delta``), so all modules are scanned.
``GlobalJField.ortho_j`` is a method and is patched on the class.

A span records its name, its parent (the innermost enclosing traced call),
start, end and a few attributes.  Self time is a span's duration minus the
durations of its child spans.  Spans stay in memory; ``layer_metrics``
turns the spans of one operation into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

MODULES = ("acs", "cli", "constants", "errors", "holonomy", "io", "karcher",
           "prober")


def _samples_attrs(bound):
    """Closure work from the sample words: every word of length L below the
    word length is multiplied by each of the 2k generators except its own
    inverse, and the products not already present are kept."""
    k = len(bound.arguments["loops"])
    word_length = bound.arguments.get("word_length", 1)

    def after(out):
        by_len = {}
        for s in out:
            by_len[len(s.word)] = by_len.get(len(s.word), 0) + 1
        frontier = [2 * k] + [by_len.get(L, 0) for L in range(2, word_length)]
        products = sum(frontier) * (2 * k - 1) if word_length > 1 else 0
        return {"out": len(out), "products": products,
                "kept": sum(n for L, n in by_len.items() if L > 1)}
    return after


def _ortho_j_attrs(bound):
    cache = bound.arguments["self"]._cache
    size = len(cache)
    return lambda out: {"hit": len(cache) == size}


def _convexity_attrs(bound):
    m = len(bound.arguments["s"].points)
    return lambda out: {"pairs": m * (m - 1) // 2}


def _mean_attrs(bound):
    return lambda out: {"iterations": out.iterations}


def _dump_attrs(bound):
    path = bound.arguments.get("path")
    return lambda out: {"bytes": (os.path.getsize(path) if path is not None
                                  else len(out.encode()))}


# (module, attribute, span name, attribute hook)
TARGETS = (
    ("holonomy", "christoffel", "holonomy.christoffel", None),
    ("holonomy", "transport_with_defect", "holonomy.transport", None),
    ("holonomy", "parallel_transport", "holonomy.parallel_transport", None),
    ("holonomy", "holonomy_samples", "holonomy.samples", _samples_attrs),
    ("holonomy", "loop_family", "holonomy.loop_family", None),
    ("acs", "log_map", "acs.log_map", None),
    ("acs", "distance", "acs.distance", None),
    ("acs", "exp_map", "acs.exp_map", None),
    ("acs", "conjugate", "acs.conjugate", None),
    ("karcher", "check_convexity", "karcher.check_convexity", _convexity_attrs),
    ("karcher", "karcher_mean", "karcher.karcher_mean", _mean_attrs),
    ("karcher", "karcher_mean_checked", "karcher.karcher_mean_checked", None),
    ("prober", "probe", "prober.probe", None),
    ("prober", "orbit", "prober.orbit", None),
    ("prober", "average_to_fixed", "prober.average_to_fixed", None),
    ("prober", "fixedness_check", "prober.fixedness_check", None),
    ("prober", "build_global_j", "prober.build_global_j", None),
    ("prober", "covariant_constancy_check", "prober.nabla_j", None),
    ("prober", "nijenhuis_check", "prober.nijenhuis", None),
    ("prober", "kahler_form_check", "prober.d_omega", None),
    ("prober", "GlobalJField.ortho_j", "prober.field.ortho_j", _ortho_j_attrs),
    ("constants", "compute_delta", "constants.compute_delta", None),
    ("constants", "estimate_epsilon", "constants.estimate_epsilon", None),
    ("constants", "estimate_injectivity", "constants.estimate_injectivity", None),
    ("io", "holonomy_sample_to_json", "io.to_json", None),
    ("io", "dump_json", "io.dump_json", _dump_attrs),
    ("cli", "main", "cli.main", None),
)

# Spans each workload must produce during its operations, as (span, parent):
# a parent of None only requires the span to fire.  A parent pins the call
# site, which proves that a name imported into another module was patched.
EXPECTED = {
    "probe": (("prober.probe", None), ("holonomy.loop_family", "prober.probe"),
              ("holonomy.samples", "prober.probe"),
              ("holonomy.transport", "holonomy.samples"),
              ("holonomy.christoffel", "holonomy.transport"),
              ("prober.orbit", "prober.probe"), ("acs.conjugate", "prober.orbit"),
              ("acs.distance", "prober.orbit"),
              ("constants.compute_delta", "prober.probe")),
    "fs": (("prober.average_to_fixed", "prober.probe"),
           ("karcher.karcher_mean_checked", "prober.average_to_fixed"),
           ("karcher.check_convexity", "karcher.karcher_mean_checked"),
           ("karcher.karcher_mean", "karcher.karcher_mean_checked"),
           ("acs.log_map", None),
           ("prober.fixedness_check", "prober.probe"),
           ("prober.build_global_j", "prober.probe"),
           ("prober.field.ortho_j", "prober.build_global_j"),
           ("holonomy.parallel_transport", "prober.field.ortho_j"),
           ("holonomy.transport", "holonomy.parallel_transport"),
           ("prober.nabla_j", "prober.probe"),
           ("holonomy.christoffel", "prober.nabla_j"),
           ("prober.nijenhuis", "prober.probe"),
           ("prober.d_omega", "prober.probe")),
    "fs_perturbed": (("karcher.karcher_mean", "prober.average_to_fixed"),
                     ("acs.exp_map", "karcher.karcher_mean")),
    "cli": (("cli.main", None), ("holonomy.loop_family", "cli.main"),
            ("holonomy.samples", "cli.main"),
            ("holonomy.transport", "holonomy.samples"),
            ("holonomy.christoffel", "holonomy.transport"),
            ("io.to_json", "cli.main"), ("io.dump_json", "cli.main")),
    "setup": (("constants.compute_delta", None),
              ("constants.estimate_epsilon", "constants.compute_delta"),
              ("constants.estimate_injectivity", "constants.compute_delta")),
}


def expected_spans(workload: str) -> tuple:
    groups = {"fs_witness": ("probe", "fs"),
              "fs_perturbed": ("probe", "fs", "fs_perturbed"),
              "sphere_obstruction": ("probe",),
              "sphere_transport_json": ("cli",)}[workload]
    return tuple(pair for g in groups for pair in EXPECTED[g])


class Tracer:
    """Records spans while installed.  ``spans`` holds one list per span:
    [name, parent index or -1, start, end, attrs or None]."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self.fired = set()     # (span, parent) pairs seen by ``take``
        self._patches = []     # (owner, attribute, original)
        self.bindings = {}     # span name -> ["module.attr", ...] patched

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = hook(sig.bind(*args, **kwargs)) if hook else None
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                rec[4] = after(out)
            return out
        return wrapper

    def install(self):
        mods = [getattr(self.package, m) for m in MODULES]
        for mod_name, attr, name, hook in TARGETS:
            owner = getattr(self.package, mod_name)
            if "." in attr:     # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, hook))
                self.bindings[name] = [f"{mod_name}.{attr}"]
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            self.bindings[name] = []
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        self.bindings[name].append(
                            f"{mod.__name__.rsplit('.', 1)[-1]}.{key}")

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def take(self) -> list:
        """The spans recorded so far; the recorder starts empty again."""
        spans = list(self.spans)
        self.spans.clear()
        self.fired |= fired_pairs(spans)
        return spans


def fired_pairs(spans: list) -> set:
    """The (span, parent span) name pairs present in ``spans``."""
    return {(s[0], spans[s[1]][0] if s[1] >= 0 else None) for s in spans}


def missing_spans(fired: set, expected) -> list:
    """The (span, parent) pairs of ``expected`` absent from ``fired``."""
    names = {n for n, _ in fired}
    return [[n, p] for n, p in expected
            if (n not in names if p is None else (n, p) not in fired)]


def _self_and_total(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[3] - s[2]
    total, self_ = {}, {}
    for i, s in enumerate(spans):
        d = s[3] - s[2]
        total[s[0]] = total.get(s[0], 0.0) + d
        self_[s[0]] = self_.get(s[0], 0.0) + d - child[i]
    return total, self_


def _has_ancestor(spans, i, name):
    i = spans[i][1]
    while i >= 0:
        if spans[i][0] == name:
            return True
        i = spans[i][1]
    return False


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one operation's spans (zero where a layer did
    not run)."""
    total, self_ = _self_and_total(spans)
    idx_by, attr_sum = {}, {}
    for i, s in enumerate(spans):
        idx_by.setdefault(s[0], []).append(i)
        for k, v in (s[4] or {}).items():
            key = f"{s[0]}.{k}"
            attr_sum[key] = attr_sum.get(key, 0) + v

    def calls(name):
        return len(idx_by.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    parents = {s[1] for s in spans if s[0] == "acs.log_map"}
    dist = idx_by.get("acs.distance", [])
    transports = idx_by.get("holonomy.transport", [])
    steps = sum(1 for s in spans if s[0] == "holonomy.christoffel"
                and s[1] >= 0 and spans[s[1]][0] == "holonomy.transport") / 4.0
    n_chr = calls("holonomy.christoffel")
    n_log = calls("acs.log_map")
    m = {
        "holonomy.christoffel.calls": n_chr,
        "holonomy.christoffel.self_s": self_.get("holonomy.christoffel", 0.0),
        "holonomy.christoffel.us_per_call": 1e6 * ratio(
            self_.get("holonomy.christoffel", 0.0), n_chr),
        "holonomy.transport.calls": len(transports),
        "holonomy.transport.self_s": self_.get("holonomy.transport", 0.0),
        "holonomy.transport.us_per_step": 1e6 * ratio(
            total.get("holonomy.transport", 0.0), steps),
        "holonomy.samples.self_s": self_.get("holonomy.samples", 0.0),
        "holonomy.samples.out": attr_sum.get("holonomy.samples.out", 0),
        "holonomy.closure.kept_ratio": ratio(
            attr_sum.get("holonomy.samples.kept", 0),
            attr_sum.get("holonomy.samples.products", 0)),
        "acs.log_map.calls": n_log,
        "acs.log_map.self_s": self_.get("acs.log_map", 0.0),
        "acs.log_map.us_per_call": 1e6 * ratio(self_.get("acs.log_map", 0.0),
                                               n_log),
        "acs.distance.calls": len(dist),
        "acs.distance.shortcut_ratio": ratio(
            sum(1 for i in dist if i not in parents), len(dist)),
        "acs.exp_map.calls": calls("acs.exp_map"),
        "acs.conjugate.calls": calls("acs.conjugate"),
        "karcher.check_convexity.total_s": total.get("karcher.check_convexity", 0.0),
        "karcher.check_convexity.pairs": attr_sum.get(
            "karcher.check_convexity.pairs", 0),
        "karcher.karcher_mean.total_s": total.get("karcher.karcher_mean", 0.0),
        "karcher.karcher_mean.iterations": attr_sum.get(
            "karcher.karcher_mean.iterations", 0),
        "prober.field.transports": sum(
            1 for i in transports if _has_ancestor(spans, i, "prober.field.ortho_j")),
        "prober.field.cache_hit_ratio": ratio(
            attr_sum.get("prober.field.ortho_j.hit", 0),
            calls("prober.field.ortho_j")),
        "io.to_json.total_s": total.get("io.to_json", 0.0),
        "io.dump_json.total_s": total.get("io.dump_json", 0.0),
        "io.output_bytes": attr_sum.get("io.dump_json.bytes", 0),
    }
    for stage in ("orbit", "average_to_fixed", "fixedness_check",
                  "build_global_j", "nabla_j", "nijenhuis", "d_omega"):
        m[f"prober.{stage}.total_s"] = total.get(f"prober.{stage}", 0.0)
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last.startswith("us_per_"):
        return "us"
    if last.endswith("_s"):
        return "s"
    if last.endswith(("_ratio", "_frac")):
        return "ratio"
    if last.endswith("bytes"):
        return "bytes"
    return "count"


def setup_metrics(spans: list) -> dict:
    total, _ = _self_and_total(spans)
    return {f"constants.{k}.total_s": total.get(f"constants.{k}", 0.0)
            for k in ("estimate_epsilon", "estimate_injectivity")}
