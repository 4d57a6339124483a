"""The benchmark's tracer hooks still fit the package.

``perfbench/tracer.py`` patches the package's functions by name and reads
some of their arguments.  It and ``perfbench/workloads.py`` are loaded here
from their source, without writing anything under ``perfbench/``, so that a
rename that would break ``perfbench/run.py --trace 1``, or a refactor that
stops calling a traced function where the tracer expects it, fails this
suite as well.
"""

import dataclasses
import importlib
import inspect
import pathlib
import re
import types
import typing

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    source = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(source)
    exec(compile(source.read_text(), str(source), "exec"), module.__dict__)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def _resolve(mod_name, attr):
    """The traced function and, for a method, its class."""
    owner = importlib.import_module(f"kahlerprobe.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        return cls.__dict__[meth], cls
    return getattr(owner, attr), None


def test_every_traced_module_and_function_exists():
    for mod_name in tracer.MODULES:
        importlib.import_module(f"kahlerprobe.{mod_name}")
    names = set()
    for mod_name, attr, name, _ in tracer.TARGETS:
        fn, _ = _resolve(mod_name, attr)
        assert callable(fn), f"{mod_name}.{attr}"
        names.add(name)
    expected = {span for group in tracer.EXPECTED.values() for pair in group
                for span in pair if span is not None}
    assert expected <= names


# bound.arguments["name"], bound.arguments.get("name" ...) and an attribute
# read off the argument: bound.arguments["name"].attr
_ARGUMENT = re.compile(r'bound\.arguments(?:\["(\w+)"\]|\.get\("(\w+)")(?:\.(\w+))?')


@pytest.mark.parametrize("target", [t for t in tracer.TARGETS if t[3] is not None],
                         ids=lambda t: t[2])
def test_hook_arguments_are_parameters_of_the_traced_function(target):
    mod_name, attr, _, hook = target
    fn, cls = _resolve(mod_name, attr)
    params = inspect.signature(fn).parameters
    hints = typing.get_type_hints(fn)
    source = inspect.getsource(hook)
    for indexed, got, field in _ARGUMENT.findall(source):
        arg = indexed or got
        assert arg in params, f"{hook.__name__} reads {arg!r}, not a parameter of {attr}"
        if field:
            owner = cls if arg == "self" else hints.get(arg)
            assert dataclasses.is_dataclass(owner)
            assert field in {f.name for f in dataclasses.fields(owner)}, \
                f"{hook.__name__} reads {arg}.{field}"
    returned = hints.get("return")
    if dataclasses.is_dataclass(returned):
        fields = {f.name for f in dataclasses.fields(returned)}
        for field in re.findall(r"\bout\.(\w+)", source):
            assert field in fields, f"{hook.__name__} reads out.{field}"


def test_hooks_read_the_documented_arguments():
    reads = {hook.__name__: {m[0] or m[1] for m in _ARGUMENT.findall(inspect.getsource(hook))}
             for _, _, _, hook in tracer.TARGETS if hook is not None}
    assert reads == {"_samples_attrs": {"loops", "word_length"},
                     "_convexity_attrs": {"s"}, "_mean_attrs": set(),
                     "_dump_attrs": {"path"}, "_ortho_j_attrs": {"self"}}


@pytest.mark.parametrize("name", ["fs_perturbed", "sphere_transport_json"])
def test_traced_operation_fires_every_expected_span(name, tmp_path, monkeypatch):
    """One set-up and one operation of a gated workload under the installed
    tracer, as ``perfbench/run.py --trace 1`` runs them: every expected
    (span, parent) pair fires, so every traced call is still made where the
    tracer looks for it."""
    monkeypatch.setenv("KAHLER_PROBE_CACHE", str(tmp_path / "delta_cache.json"))
    package = importlib.import_module("kahlerprobe")
    for mod_name in tracer.MODULES:
        importlib.import_module(f"kahlerprobe.{mod_name}")
    spans = tracer.Tracer(package)
    spans.install()
    try:
        state = workloads.setup(package, name, 0, str(tmp_path))
    finally:
        spans.uninstall()
    spans.take()
    assert tracer.missing_spans(spans.fired, tracer.EXPECTED["setup"]) == []
    spans.fired.clear()
    spans.install()
    try:
        workloads.operation(state)
    finally:
        spans.uninstall()
    spans.take()
    assert tracer.missing_spans(spans.fired, tracer.expected_spans(name)) == []
