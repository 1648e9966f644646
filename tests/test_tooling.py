"""The benchmark's hooks into the package: every name it traces or imports resolves.

perfbench wraps the functions listed in perfbench.tracer.TRACED (methods are
read from the class body) and its probes import steppers and solvers by name,
so renaming or folding one of them away must fail here, not in a later run of
the benchmark.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench.tracer")


def test_every_traced_name_resolves(tracer):
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"folflow.{layer}")
        for qualname in names:
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                assert attr in vars(getattr(module, cls_name)), f"{layer}.{qualname}"
            else:
                assert callable(getattr(module, qualname, None)), f"{layer}.{qualname}"


def test_every_folflow_import_of_the_benchmark_resolves():
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("folflow"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    found = hasattr(module, alias.name) or importlib.util.find_spec(
                        f"{node.module}.{alias.name}") is not None
                    assert found, f"{path.name}: from {node.module} import {alias.name}"
