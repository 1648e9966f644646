"""The benchmark's hooks into the package: every name it traces or imports
resolves, every config it runs parses, and each step of a run is one call of
a traced step method; every demo and the README's library quick start run,
the README's table of the keys each scenario reads is the scenario
declarations, and the package's third-party imports are the dependencies
pyproject.toml declares.

perfbench wraps the functions listed in perfbench.tracer.TRACED (methods are
read from the class body), its probes import steppers and solvers by name,
and its workloads send generated configs and the shipped ones through the
config parser, so renaming or folding one of them away, or rejecting a key
a workload config names, must fail here, not in a later run of the
benchmark.
"""
import ast
import collections
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from folflow import parabolic, scenarios
from folflow.config import parse_config, parse_config_text, realize_field
from folflow.fiber import ScalarField, build_grid
from folflow.parabolic import BurgersStepper, HeatStepper
from folflow.scenarios import (SCENARIOS, SERIES_POINTS, cole_hopf_rows, run_normalized_flow,
                               run_surface_of_revolution, run_twisted_product)

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


def test_setup_probe_path_realizes_the_parsed_fields(workloads, tmp_path):
    # perfbench/setup_probe.py parses each config file, then realizes all
    # three field keys: a key the scenario reads is the field parsing built
    # and checked, and any other is built from its default spec
    paths = sorted((ROOT / "configs").glob("*.yaml"))
    for name in workloads.WORKLOADS:
        item = workloads.build(name, 1)[0]
        paths.append(tmp_path / f"{name}.yaml")
        paths[-1].write_text(item.text)
    for path in paths:
        cfg = parse_config(path)
        for which in ("initial", "potential", "t2_initial"):
            field = realize_field(cfg, which)
            if which in SCENARIOS[cfg.scenario].keys:
                assert field is cfg.fields[which], (path.name, which)
            else:
                assert which not in cfg.fields and field.grid == cfg.grid, (path.name, which)


def test_every_artifact_tree_run_parses(monkeypatch):
    # tests/artifact_trees.py writes one directory per run; a run whose
    # config no longer parses would leave a hole in every tree alike
    monkeypatch.syspath_prepend(str(ROOT))
    spec = importlib.util.spec_from_file_location("artifact_trees",
                                                  ROOT / "tests" / "artifact_trees.py")
    trees = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trees)
    runs = trees.runs()
    assert len({directory for directory, *_ in runs}) == len(runs)
    assert {directory.split("/")[0] for directory, *_ in runs} == {"configs", *(
        f"{name}_{seed}_{size}" for name in trees.workloads.WORKLOADS for seed in (1, 2)
        for size in ("full", "tiny"))}
    for directory, text, base_dir, seed in runs:
        cfg = trees.parse(text, base_dir, seed)
        assert seed is None or cfg.seed == seed, directory


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


@pytest.mark.parametrize("flow", ["surface_series", "surface_large", "surface_slow_fft", "torus",
                                  "torus_large", "twisted", "normalized", "cole_hopf"])
def test_each_step_of_a_run_is_one_stepper_step_call(monkeypatch, flow):
    # perfbench counts parabolic.heat_steps and burgers_steps by wrapping the
    # two step methods in their class bodies, as done here, so a march that
    # stepped past them would read 0 steps there; a surface below the size
    # cut and the twisted product step none, and evaluate one inverse
    # transform row per step (the surface's block hook sees every step) or
    # per record but the initial one
    calls, evaluated = collections.Counter(), []
    for cls in (HeatStepper, BurgersStepper):
        def counted(self, *args, _step=cls.__dict__["step"], _name=cls.__name__, **kwargs):
            calls[_name] += 1
            return _step(self, *args, **kwargs)
        monkeypatch.setattr(cls, "step", counted)
    for module, name in ((np.fft, "irfft"), (scipy.fft, "idst")):
        monkeypatch.setattr(module, name, lambda coef, *args, _inverse=getattr(module, name),
                            **kwargs: evaluated.append(len(coef)) or _inverse(coef, *args, **kwargs))
    # an interval of 33 nodes runs a sine series of FFT length 64, one of 32
    # (2 * 31) or of SERIES_POINTS nodes marches; a torus of 32 is a series,
    # one of SERIES_POINTS nodes marches; both cuts are FFT lengths (1280,
    # 3584) without a prime factor above 13, so only the size makes them march
    n = {"surface_series": 33, "surface_large": SERIES_POINTS["interval"],
         "torus_large": SERIES_POINTS["circle"]}.get(flow, 32)
    g = build_grid("interval" if flow.startswith("surface") else "circle", 2 * np.pi, n)
    # blocks of 7 states: three slices, a pair (u, H), or one profile or u
    size = {"twisted": 3 * n, "cole_hopf": 2 * n}.get(flow, n)
    monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", 7 * size)
    bump = ScalarField(g, 1.5 + 0.3 * np.sin(g.x))
    dt, t_end = 1e-3, 0.05
    if flow.startswith(("surface", "torus")):
        run_surface_of_revolution(bump, dt, t_end, record_every=3)
    elif flow == "twisted":
        run_twisted_product((bump, bump * 0.5, bump * 0.7), 2, dt, t_end, record_every=3)
    elif flow == "normalized":
        run_normalized_flow(bump, ScalarField(g, 0.2 * bump.values), bump, 2, dt, t_end,
                            record_every=3)
    else:
        cole_hopf_rows(bump, ScalarField(g, 0.2 * bump.values), 1.0, dt, t_end, 3)
    steps = round(t_end / dt)
    marched = flow in ("surface_large", "surface_slow_fft", "torus_large", "normalized",
                       "cole_hopf")
    expected = {"HeatStepper": steps if marched else 0,
                "BurgersStepper": steps if flow == "cole_hopf" else 0}
    assert {name: calls[name] for name in expected} == expected
    if flow == "twisted":
        assert evaluated == [7, 7, 3]  # records after steps 3, 6, ..., 48 and the last, 50
        assert sum(evaluated) == len(parabolic.record_steps(dt, t_end, 3)) - 1
    elif not marched:
        assert evaluated == [7] * 7 + [1]  # steps 1..49 in blocks of 7, then 50
    else:
        assert evaluated == []


def test_record_hooks_take_batches_across_blocks_on_golden(monkeypatch):
    # each record hook call has a fixed cost, so march hands on_record up to
    # 64 records gathered across blocks; a march that fell back to a call per
    # block (48, 31 and 30 calls on the three marched configs) fails here
    # without any timing
    calls, march = collections.Counter(), scenarios.march

    def counting_march(*args, on_record=None, **kwargs):
        if len(args) == 6:  # on_record given by position
            *args, on_record = args

        def counted(*hook_args):
            calls[name] += 1
            return on_record(*hook_args)

        return march(*args, on_record=counted, **kwargs)

    monkeypatch.setattr(scenarios, "march", counting_march)
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        name, cfg = path.stem, parse_config(path)
        SCENARIOS[cfg.scenario].run(cfg, cfg.grid, cfg.fields)
    assert calls == {"normalized_cosine": 4, "surface_bump": 1, "cole_hopf_forced": 2,
                     "twisted_relax": 1}


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


# a distribution whose import name is not its own name, lowercased
_IMPORT_NAMES = {"PyYAML": "yaml"}


def test_third_party_imports_are_the_declared_dependencies():
    # an import nobody declared fails an install elsewhere, and a declared
    # dependency nothing imports is installed for nothing
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in declared}
    expected = {_IMPORT_NAMES.get(name, name.lower()) for name in names}
    imported = set()
    for path in sorted((ROOT / "src" / "folflow").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names - {"folflow"} == expected


# a derandomized strategy's draws, in a fresh interpreter that first imports
# the modules named after the code
_DRAWS = """
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
from hypothesis import given, settings, strategies as st
drawn = []
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def draw(i):
    drawn.append(i)
draw()
print(json.dumps(drawn))
"""


def test_derandomized_draws_do_not_move_with_local_literals(tmp_path):
    # conftest pins hypothesis' local-literal hook; a local module of new
    # literals then leaves the draws as they were, and without the pin it
    # moves them, which shows the comparison can fail
    (tmp_path / "literals.py").write_text("A, B, C = 271828, 314159, 0.5772156649\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT / "tests"), str(tmp_path)))}

    def draws(*modules):
        proc = subprocess.run([sys.executable, "-c", _DRAWS, *modules], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        return json.loads(proc.stdout)

    assert draws("conftest") == draws("conftest", "literals")
    assert draws() != draws("literals")


def test_contract_fuzz_runs():
    # tests/fuzz_contract.py runs outside Tier-1; two draws a scenario keep
    # it in step with test_cli's strategies and contract
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "fuzz_contract.py"),
                           "--examples", "2", "--seed", "1"], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert list(report["scenarios"]) == list(SCENARIOS)
    for scenario in report["scenarios"].values():
        assert sum(scenario["exits"].values()) == 2 and scenario["breaches"] == []
