"""The benchmark's hooks into the package: every name it traces or imports
resolves, and every config it runs parses; every demo and the README's
library quick start run, and the README's table of the keys each scenario
reads is the scenario declarations.

perfbench wraps the functions listed in perfbench.tracer.TRACED (methods are
read from the class body), its probes import steppers and solvers by name,
and its workloads send generated configs and the shipped ones through the
config parser, so renaming or folding one of them away, or rejecting a key
a workload config names, must fail here, not in a later run of the
benchmark.
"""
import ast
import contextlib
import importlib
import importlib.util
import io
import json
import math
import runpy
from pathlib import Path

import pytest

from folflow.config import parse_config_text
from folflow.scenarios import SCENARIOS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench.tracer")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    return importlib.import_module("perfbench.workloads")


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


def test_every_benchmark_config_parses(workloads):
    # golden is the shipped configs verbatim, or shortened when tiny
    for name in workloads.WORKLOADS:
        for tiny in (True, False):
            for item in workloads.build(name, 1, tiny):
                cfg = parse_config_text(item.text, base_dir=item.base_dir)
                assert cfg.scenario == item.scenario, (name, tiny, item.name)


def test_parabolic_probes_run(monkeypatch):
    # the probes call the steppers directly, so a change to the step
    # contract shows here rather than in a later benchmark run
    monkeypatch.syspath_prepend(str(ROOT))
    probes = importlib.import_module("perfbench.probes")
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                if m["name"].startswith("parabolic.") and m["name"].count(".") == 3]
    got = probes.parabolic(steps=2, repeats=1)
    assert declared and set(declared) <= set(got)
    assert all(math.isfinite(got[name][0]) for name in declared)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo):
    # the demos read the flows' results directly, so an API change that
    # leaves one behind shows here
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue()


def test_readme_quick_start_runs():
    # the quick start shows the library API, so an API change that leaves it
    # behind shows here
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "__main__"})
    assert out.getvalue()


def test_readme_key_table_is_the_declared_keys():
    # README's "scenario | also reads" table, row by row, against the
    # declarations the parser and the config echo use
    section = (ROOT / "README.md").read_text().split("| scenario | also reads |\n", 1)[1]
    table = {}
    for line in section.splitlines()[1:]:
        if not line.startswith("|"):
            break
        name, keys = (cell.strip() for cell in line.strip("|").split("|"))
        table[name.strip("`")] = tuple(key.strip().strip("`") for key in keys.split(","))
    assert table == {name: s.keys for name, s in SCENARIOS.items()}
