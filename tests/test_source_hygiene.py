"""Source hygiene of the package, with the standard library only.

Read with ``ast``: every import is used, every module-level private
function or class is referenced in its module, every public one and every
public method is read by some package module, and no module reads another
package module's private name.  Read off the loaded
classes: every domain error declares its own stable ``code``; the CLI
prints these codes, so two errors must never share one.  Run in a fresh
interpreter: the package needs numpy alone.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

from kahlerprobe.errors import KahlerProbeError

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "kahlerprobe"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _private(name) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _loaded_names(tree) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    assert imported - _loaded_names(tree) == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    tree = _tree(path)
    private = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name)}
    assert private - _loaded_names(tree) == set()


# public names no package module reads: the paper's acceptance criteria in
# tests/test_acceptance.py are stated through them
ACCEPTANCE_ONLY = {"curve", "metric_inner", "project_tangent", "random_j"}


def test_every_public_definition_is_read_by_the_package():
    """Each public top-level function or class, and each public method, is
    loaded by name (an ``ast.Name`` or ``ast.Attribute``) in some package
    module, so no wrapper is kept for the tests alone."""
    loaded, public = set(), set()
    for path in MODULES:
        tree = _tree(path)
        loaded |= _loaded_names(tree)
        loaded |= {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.add((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                public |= {(path.stem, f"{node.name}.{m.name}", m.name) for m in node.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")}
    unread = {f"{module}.{qualname}" for module, qualname, name in public
              if name not in loaded | ACCEPTANCE_ONLY}
    assert unread == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_name(path):
    """Neither ``mod._name`` on a module bound by ``from . import mod`` nor
    ``from .mod import _name``."""
    tree = _tree(path)
    relative = [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level >= 1]
    modules = {a.asname or a.name for node in relative if node.module is None
               for a in node.names}
    reads = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules and _private(node.attr)]
    reads += [f"{node.module}.{a.name}" for node in relative if node.module is not None
              for a in node.names if _private(a.name)]
    assert reads == []


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_declares_its_own_code():
    for path in MODULES:
        importlib.import_module(f"kahlerprobe.{path.stem}")
    errors = sorted(set(_subclasses(KahlerProbeError)), key=lambda c: c.__name__)
    assert [c.__name__ for c in errors if "code" not in vars(c)] == []
    codes = [c.code for c in errors] + [KahlerProbeError.code]
    assert len(set(codes)) == len(codes)


def test_the_package_runs_without_scipy():
    """A fresh interpreter that imports the CLI, estimates delta for n = 2
    and makes one log map and one exp map has not imported scipy, which is
    in the ``test`` extra only."""
    code = (
        "import sys\n"
        "import kahlerprobe.cli\n"
        "from kahlerprobe import acs, constants\n"
        "constants.compute_delta(2, use_cache=False)\n"
        "J = acs.random_j(2, 0)\n"
        "K = acs.exp_map(J, acs.random_tangent(J, 1, 0.5), 1.0)\n"
        "acs.log_map(J, K)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
