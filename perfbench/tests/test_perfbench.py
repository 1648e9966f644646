"""Smoke tests of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, probes, reference, run, workloads
from perfbench.workloads import Gate

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def probe_results(tmp_path_factory):
    # the probes do not depend on the workload, so one set serves every test
    return probes.run_all(tmp_path_factory.mktemp("probes"))


def _assert_metrics(metrics, declared):
    names = {m["name"]: m["unit"] for m in declared}
    assert set(metrics) == set(names)
    for name, (value, unit) in metrics.items():
        assert unit == names[name], name
        assert isinstance(value, (int, float)), name


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_metrics_at_tiny_size(name, tmp_path):
    items = workloads.build(name, seed=7, tiny=True)
    tally, metrics = run.end_to_end_run(items, 0.0, tmp_path)
    _assert_metrics(metrics, SPEC["end_to_end"])
    assert tally.failed == 0, tally.reasons
    assert tally.attempted == 3 * len(items)
    assert metrics["ok_frac"][0] == 1.0
    assert metrics["pass_s"][0] > 0.0 and metrics["setup_s"][0] > 0.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_metrics_at_tiny_size(name, tmp_path, monkeypatch, probe_results):
    import folflow.cli
    import folflow.parabolic

    originals = (folflow.cli.grad_log, folflow.parabolic.HeatStepper.step)
    monkeypatch.setattr(probes, "run_all", lambda work: dict(probe_results))
    monkeypatch.setattr(run, "WORK", tmp_path)
    items = workloads.build(name, seed=7, tiny=True)
    tally, metrics = run.traced_run(items, 0.0, tmp_path)
    _assert_metrics(metrics, SPEC["per_layer"])
    assert tally.failed == 0, tally.reasons
    assert (folflow.cli.grad_log, folflow.parabolic.HeatStepper.step) == originals
    assert metrics["cli.self_s"][0] > 0.0
    assert metrics["artifacts.files"][0] > 0
    if name == "spectral":
        assert metrics["schrodinger.spectrum_calls"][0] == len(items)
        assert metrics["parabolic.heat_steps"][0] == 0
    else:
        assert metrics["parabolic.heat_steps"][0] > 0


def test_planted_gate_miss_and_raise_count_as_failures(tmp_path):
    items = workloads.build("record_heavy", seed=7, tiny=True)
    twisted = next(i for i in items if i.scenario == "twisted")
    twisted.gates.append(Gate(("max_mass_drift",), "<=", -1.0))
    normalized = next(i for i in items if i.scenario == "normalized")
    cfg = json.loads(normalized.text)
    cfg["tolerances"] = {"gap_min": 1e6}  # parses, then raises GapTooSmall
    normalized.text = json.dumps(cfg)
    tally, metrics = run.end_to_end_run(items, 0.0, tmp_path)
    assert tally.attempted == 3 * len(items)
    assert tally.failed == 2 * 3
    assert metrics["ok_frac"][0] == pytest.approx(1.0 - 6 / 9)
    assert any("missed gate max_mass_drift <= -1.0" in r for r in tally.reasons)
    assert any("GapTooSmall" in r for r in tally.reasons)


@pytest.mark.parametrize("kind", reference.KINDS)
def test_rescale_reads_wall_time_at_the_nominal_block_time(kind):
    nominal = reference.NOMINAL_S[kind]
    assert reference.rescale(2.0, [nominal] * 3, kind) == pytest.approx(2.0)
    # blocks twice as slow as nominal: the machine ran at half speed
    assert reference.rescale(2.0, [1.5 * nominal, 2.5 * nominal], kind) == pytest.approx(1.0)
    assert reference.block(kind) > 0.0


def test_rerun_that_differs_is_a_failure():
    tally = harness.Tally()
    tally.add(harness.Outcome(1.0, {"a": "x", "b": "y"}, {}))
    tally.add(harness.Outcome(1.0, {"a": "x", "b": "z"}, {}))
    assert (tally.attempted, tally.failed) == (4, 1)
    assert "byte-identical" in tally.reasons[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "golden", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
