"""The names the benchmark under spectrabench/ reaches into the package
for, checked here so that removing or renaming one in src/ fails a test
instead of the benchmark run: its tracing targets, the imports of
baseline.py, and every fs.<name> and fs.<module>.<name> of
workloads.py (found in the syntax tree; the file is not run)."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "spectrabench"


def _tracing_targets():
    spec = importlib.util.spec_from_file_location(
        "_spectrabench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _, _ in tracing.TARGETS]


def _baseline_imports():
    tree = ast.parse((BENCH / "baseline.py").read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("flockspectra")
            for alias in node.names]


def _workload_names():
    def dotted(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "fs":
            return ".".join(reversed(parts))
        return None

    tree = ast.parse((BENCH / "workloads.py").read_text())
    return sorted({name for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and (name := dotted(node))})


@pytest.mark.parametrize("module, attr", _tracing_targets())
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"flockspectra.{module}"),
                            attr))


@pytest.mark.parametrize("module, name", _baseline_imports())
def test_baseline_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("name", _workload_names())
def test_workload_name_resolves(name):
    obj = importlib.import_module("flockspectra")
    for attr in name.split("."):
        obj = getattr(obj, attr)
