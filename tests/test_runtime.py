"""The runtime needs numpy and PyYAML only; scipy serves the test oracles.

The benchmark under bench/ imports and traces adtplan names; they must exist.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import adtplan

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_import_loads_no_scipy() -> None:
    src = os.path.dirname(os.path.dirname(os.path.abspath(adtplan.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, adtplan, adtplan.cli; assert 'scipy' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_bench_imports_resolve() -> None:
    tree = ast.parse((BENCH / "workloads.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "adtplan"]
    names = [alias.name for node in imports for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(adtplan, n)] == []


def test_bench_traced_functions_resolve() -> None:
    tree = ast.parse((BENCH / "spans.py").read_text())
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    )
    missing = [
        f"{layer}.{fname}"
        for layer, fnames in layers.items()
        for fname in fnames
        if not callable(getattr(importlib.import_module(f"adtplan.{layer}"), fname, None))
    ]
    assert missing == []
