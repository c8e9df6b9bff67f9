"""Every import in a library module is used, and importing the package stays light.

A name bound by ``import`` or ``from ... import`` in ``src/robsub/*.py``
(the package ``__init__``, whose imports are its exports, aside) must be
read somewhere in that module; names inside string annotations count.
``scipy.linalg`` is imported where it is used, not with the package.
Every sample is drawn by ``sampling.sample_stream`` and recorded in
``sampling.py`` alone, and
every span the benchmark traces names a function of the package.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "robsub"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """Name bound by each import in the module -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree):
    """Every name the module reads, including those inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _used(ast.parse(sub.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_unused_import_is_caught():
    tree = ast.parse("import math\nfrom typing import Optional\n"
                     "def f(x: 'Optional[int]'):\n    return x\n")
    assert set(_imported(tree)) - _used(tree) == {"math"}


def test_one_sampling_step():
    # no function of the package calls make_plan or draw, not even in
    # sampling.py, where they stay as the stream's reference; they are named
    # only there, and no other module writes a stage's {stage}_rows(_expected) record
    key = re.compile(r"\w+_rows(_expected)?")
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert not called & {"make_plan", "draw"}, path.name
        if path.name == "sampling.py":
            continue
        names = set(_imported(tree)) | _used(tree)
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"make_plan", "draw"}, path.name
        writes = [node.arg for node in ast.walk(tree)
                  if isinstance(node, ast.keyword) and node.arg and key.fullmatch(node.arg)]
        writes += [node.slice.value for node in ast.walk(tree)
                   if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                   and isinstance(node.slice, ast.Constant)
                   and key.fullmatch(str(node.slice.value))]
        assert not writes, (path.name, writes)


def test_perfbench_counters_resolve(monkeypatch):
    # the benchmark's tracer binds every span of spans.COUNTERS by name, so
    # each must name a function or method of the package
    import robsub

    path = SRC.parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    for name in spans.COUNTERS:
        owner = robsub
        for attr in name.split("."):
            owner = getattr(owner, attr, None)
        assert callable(owner), name


def test_import_leaves_scipy_linalg_unloaded():
    # the streamed QR and the small solve's eigen-step import scipy.linalg on
    # first use, which keeps its 0.13 s out of the package's import time
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    code = "import sys, robsub; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
