"""The names the benchmark under spectrabench/ reaches into the package
for, checked here so that removing one from src/ fails a test instead
of the traced benchmark run."""

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


@pytest.mark.parametrize("module, attr", _tracing_targets())
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"flockspectra.{module}"),
                            attr))


@pytest.mark.parametrize("module, name", _baseline_imports())
def test_baseline_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
