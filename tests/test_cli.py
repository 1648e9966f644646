"""Command-line interface: exit codes, artifacts, determinism, sweep."""
import ast
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from folflow import cli, config, parabolic, scenarios
from folflow.artifacts import SharedColumn, snapshot_name, write_fields, write_trajectory
from folflow.cli import execute_config, main
from folflow.config import parse_config, parse_config_text
from folflow.errors import FolflowError, NonFiniteValue, ValidationError
from folflow.families import FAMILY_PARAMS, build_field
from folflow.fiber import build_grid
from folflow.scenarios import (COMMON_KEYS, MAX_RANDOM, SCENARIOS, _series_pays,
                               run_normalized_flow)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FAST_RUN = textwrap.dedent("""\
    scenario: cole_hopf_check
    grid: {topology: circle, length: 6.283185307179586, n_points: 64}
    time: {dt: 0.001, t_end: 0.05, record_every: 10}
    n_rank: 1
    initial: {family: cosine_perturbed, base: 2.0, amplitude: 1.0, mode: 1}
    potential: {family: cosine_perturbed, base: 0.2, amplitude: 0.2, mode: 1}
""")

DEGENERATE_RUN = textwrap.dedent("""\
    scenario: surface
    grid: {topology: interval, length: 1.0, n_points: 101}
    time: {dt: 0.0001, t_end: 0.01}
    initial: {family: linear, a: 1.0, b: 1.2}
""")


# normalized under a potential of 400: u grows like exp(400 t) and its
# Rayleigh quotient overflows near t = 0.87
OVERFLOW_RUN = textwrap.dedent("""\
    scenario: normalized
    grid: {topology: circle, length: 6.283185307179586, n_points: 64}
    time: {dt: 0.001, t_end: 2.0}
    potential: {family: constant, value: 400.0}
""")

# one short run per scenario, for checking the catalog against the artifacts
SHORT_RUNS = {
    "surface": DEGENERATE_RUN.replace("linear, a: 1.0, b: 1.2",
                                      "linear_sine_bump, left: 0.5, right: 0.8, "
                                      "amplitude: 0.1, mode: 1"),
    "twisted": FAST_RUN.replace("cole_hopf_check", "twisted").split("potential:")[0],
    "normalized": FAST_RUN.replace("cole_hopf_check", "normalized"),
    "cole_hopf_check": FAST_RUN,
    "spectral_report": textwrap.dedent("""\
        scenario: spectral_report
        grid: {topology: circle, length: 6.283185307179586, n_points: 32}
        time: {dt: 0.001, t_end: 0.0}
        modes: 4
        n_random: 2
    """),
}


# inputs the run cannot take, each refused by the parser with one error that
# starts as given; their sizes fail before anything is allocated: 1e14
# records (1e15 steps), 2**53 nodes
UNRUNNABLE = {
    "schedule": ("scenario: normalized\n"
                 "grid: {topology: circle, length: 6.283185307179586, n_points: 16}\n"
                 "time: {dt: 1.0e-12, t_end: 1000.0, record_every: 10}\n",
                 "time: the records of t_end = 1000.0 in steps of dt = 1e-12 do not fit in memory"),
    "steps_past_2_to_the_53": ("scenario: normalized\n"
                               "grid: {topology: circle, length: 6.283185307179586, n_points: 16}\n"
                               "time: {dt: 1.0e-300, t_end: 1.0e+300}\n",
                               "time.t_end = 1e+300 is more than 2**53 steps of dt = 1e-300"),
    # h*h underflows to 0, with and without a dt of its own
    **{f"spacing_{scenario}{'_dt' if dt else ''}": (
        f"scenario: {scenario}\ngrid: {{topology: circle, length: 1.0e-200, n_points: 16}}\n"
        f"time: {{{dt}t_end: {0.0 if scenario == 'spectral_report' else 1.0}}}\n",
        "grid: spacing 6.25e-202 squares to 0, out of the float range")
       for scenario in SCENARIOS for dt in ("", "dt: 0.1, ")},
    "spacing_overflows": ("scenario: surface\n"
                          "grid: {topology: circle, length: 1.0e+200, n_points: 16}\n"
                          "time: {t_end: 1.0}\n",
                          "grid: spacing 6.25e+198 squares to inf, out of the float range"),
    # h*h is 5e-324, so the default dt, a quarter of it, is 0
    "default_dt_underflows": ("scenario: surface\n"
                              "grid: {topology: circle, length: 3.55e-161, n_points: 16}\n"
                              "time: {t_end: 1.0}\n",
                              "time.dt must be positive and finite, got 0.0"),
    "nodes_surface": ("scenario: surface\n"
                      f"grid: {{topology: interval, length: 1.0, n_points: {2**53}}}\n"
                      "time: {dt: 0.1, t_end: 1.0}\n",
                      "initial: Unable to allocate"),
    "nodes_spectral_report": ("scenario: spectral_report\n"
                              f"grid: {{topology: circle, length: 1.0, n_points: {2**53}}}\n"
                              "time: {t_end: 0.0}\n",
                              "potential: Unable to allocate"),
    # h*h is subnormal, so the eigensolvers' 1/h^2 overflows
    **{f"operator_range_{scenario}": (
        f"scenario: {scenario}\ngrid: {{topology: circle, length: 1.0e-155, n_points: 16}}\n"
        f"time: {{dt: 1.0e-3, t_end: {t_end}}}\n",
        "grid: spacing 6.25e-157 squares to 3.90625e-313, whose reciprocal is out of the "
        "float range")
       for scenario, t_end in (("spectral_report", 0.0), ("normalized", 1.0))},
    # a refined initial that is not positive, though the run's own is
    "refined_initial": ("scenario: cole_hopf_check\n"
                        "grid: {topology: circle, length: 1.0, n_points: 9}\n"
                        "time: {dt: 1.0e-3, t_end: 1.0e-2}\n"
                        "initial: {family: cosine_perturbed, base: 1.0, amplitude: 1.05, "
                        "mode: 1}\n",
                        "cole_hopf_check: initial must be strictly positive on the refined grid "
                        "of 18 nodes"),
    # a line that stays finite on the run's nodes but not on the refined ones,
    # which reach further along the circle
    "refined_build": ("scenario: cole_hopf_check\n"
                      "grid: {topology: circle, length: 1.5, n_points: 16}\n"
                      "time: {dt: 1.0e-3, t_end: 1.0e-2}\n"
                      "initial: {family: linear, a: 1.0, b: 1.25e+308}\n",
                      "cole_hopf_check: on the refined grid of 32 nodes: field values must be "
                      "finite"),
    # the Lanczos shift -max(f) - 1 rounds to -max(f), or its 1 is lost next
    # to 2/h^2: A - sigma*I is not strictly diagonally dominant as computed
    **{f"shift_margin_{case}": (
        f"scenario: {scenario}\ngrid: {{topology: {topology}, length: {length}, "
        f"n_points: {n}}}\ntime: {{dt: 1.0e-3, t_end: {t_end}}}\n{potential}",
        "potential: rounding swallows the Lanczos shift's margin")
       for case, scenario, topology, length, n, t_end, potential in (
           ("spectral_report", "spectral_report", "interval", 0.25, 13, 0.0,
            "modes: 4\npotential: {family: cosine_perturbed, base: 1.0e+308, amplitude: 3.27, "
            "mode: 2}\n"),
           ("normalized", "normalized", "circle", 6.283185307179586, 16, 1.0,
            "potential: {family: cosine_perturbed, base: 1.0e+308, amplitude: 3.27, mode: 2}\n"),
           ("flat", "spectral_report", "circle", 1.0e-7, 16, 0.0, ""))},
    # a slice base_value * initial past the float range, though both are in
    # it, and a base value that is itself past it
    "slice_overflows": ("scenario: twisted\n"
                        "grid: {topology: circle, length: 6.283185307179586, n_points: 16}\n"
                        "time: {dt: 1.0e-3, t_end: 1.0e-2}\n"
                        "base_values: [1.0e+308, 0.5]\n"
                        "initial: {family: constant, value: 10.0}\n",
                        "twisted: base_values * initial: field values must be finite"),
    "base_value_infinite": ("scenario: twisted\n"
                            "grid: {topology: circle, length: 6.283185307179586, n_points: 16}\n"
                            "time: {dt: 1.0e-3, t_end: 1.0e-2}\n"
                            "base_values: [.inf]\n",
                            "base_values[0] must be positive and finite, got inf"),
    # the heat reaction n_rank * potential past the float range, though both are in it
    "reaction_overflows": ("scenario: cole_hopf_check\n"
                           "grid: {topology: circle, length: 1.0, n_points: 10}\n"
                           "time: {dt: 1.0e-4, t_end: 9.0e-4, record_every: 8}\n"
                           "initial: {family: cosine_perturbed, base: 1.0e+308, "
                           "amplitude: -1.7178224343769095, mode: 1}\n"
                           "potential: {family: constant, value: 1.0e+308}\n"
                           "n_rank: 3\n",
                           "cole_hopf_check: n_rank * potential: field values must be finite"),
    # a scenario that is not a string, and NUL bytes in the two path keys
    "scenario_unhashable": ("scenario: [normalized]\n"
                            "grid: {topology: circle, length: 6.283185307179586, n_points: 16}\n"
                            "time: {dt: 0.1, t_end: 1.0}\n",
                            f"scenario must be one of {list(SCENARIOS)}, got ['normalized']"),
    "output_dir_nul": ("scenario: normalized\n"
                       "grid: {topology: circle, length: 6.283185307179586, n_points: 16}\n"
                       "time: {dt: 0.1, t_end: 1.0}\n"
                       'output_dir: "out\\0x"\n',
                       "output_dir must be a nonempty string with no NUL byte, got 'out\\x00x'"),
    "csv_path_nul": ("scenario: surface\n"
                     "grid: {topology: interval, length: 1.0, n_points: 16}\n"
                     "time: {dt: 0.1, t_end: 1.0}\n"
                     'initial: {family: from_csv, path: "f\\0.csv"}\n',
                     "initial.path: embedded null byte"),
    # three records within 1e-6 of 0 would write one fields_0.000000.csv
    "snapshot_files_clash": ("scenario: twisted\n"
                             "grid: {topology: circle, length: 6.283185307179586, n_points: 16}\n"
                             "initial: {family: cosine_perturbed, base: 1.0, amplitude: 0.3, "
                             "mode: 1}\n"
                             "time: {dt: 1.0e-7, t_end: 1.0e-6, record_every: 1, "
                             "snapshots: [0.0, 1.0e-7, 2.0e-7, 1.0e-6]}\n",
                             "time.snapshots: the records at t = 0.0, 1e-07, 2e-07 would all be "
                             "written to fields_0.000000.csv"),
}


def run_cli(*args):
    # a run that hangs (say, n_random: 10**400 random potentials) fails here
    return subprocess.run([sys.executable, "-m", "folflow.cli", *args],
                          capture_output=True, text=True, timeout=120)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def summary_sans_meta(path: Path) -> dict:
    """summary.json as strict JSON (no NaN or Infinity), without its meta block."""
    payload = json.loads((path / "summary.json").read_text(), parse_constant=_reject_constant)
    payload.pop("meta", None)
    return payload


class TestRunCommand:
    def test_successful_run_writes_artifacts(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "summary.json").exists()
        fields = list(out.glob("fields_*.csv"))
        assert fields, "snapshot files missing"
        payload = summary_sans_meta(out)
        assert payload["status"] == "ok"
        assert payload["results"]["max_sup_diff"] <= 1e-3

    def test_cole_hopf_writes_every_requested_snapshot(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(FAST_RUN.replace("record_every: 10}",
                                        "record_every: 10, snapshots: [0.0, 0.05]}"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        written = sorted(p.name for p in out.glob("fields_*.csv"))
        assert written == [snapshot_name(0.0), snapshot_name(0.05)]
        header = (out / snapshot_name(0.0)).read_text().splitlines()[0]
        assert header.split(",") == ["x", "H_direct", "H_transformed", "u"]

    def test_config_error_exits_2_with_json(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(FAST_RUN + "typo_key: 1\n")
        proc = run_cli("run", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("scenario, value", [("twisted", ".nan"), ("surface", ".inf")])
    def test_non_finite_snapshot_time_exits_2(self, tmp_path, scenario, value):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(SHORT_RUNS[scenario].replace("time: {", f"time: {{snapshots: [{value}], "))
        out = tmp_path / "out"
        proc = run_cli("run", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        err = json.loads(proc.stderr)["error"]
        assert err["type"] == "ValidationError"
        assert "time.snapshots[0] must be finite" in err["message"]
        assert not list(out.glob("*"))

    def test_numerical_failure_exits_3_and_flushes_summary(self, tmp_path):
        cfg = tmp_path / "degenerate.yaml"
        cfg.write_text(DEGENERATE_RUN)
        out = tmp_path / "out"
        proc = run_cli("run", str(cfg), "--out", str(out))
        assert proc.returncode == 3
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "ProfileDegenerate"
        payload = summary_sans_meta(out)
        assert payload["status"] == "failed"
        assert payload["error"]["type"] == "ProfileDegenerate"

    def test_non_finite_values_exit_3_with_failure_time(self, tmp_path, capsys):
        cfg = tmp_path / "overflow.yaml"
        cfg.write_text(OVERFLOW_RUN)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 3
        # the overflow is reported once, as the JSON object, not also warned about
        assert [str(w.message) for w in caught] == []
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "NonFiniteValue"
        assert "failure at t = " in err["error"]["message"]
        payload = summary_sans_meta(out)
        assert payload["status"] == "failed"
        assert payload["error"] == err["error"]

    def test_surface_record_every_not_dividing_steps(self, tmp_path):
        # 20 steps recorded every 3: records at 0, 3, ..., 18 and the final 20
        cfg = tmp_path / "run.yaml"
        cfg.write_text(SHORT_RUNS["surface"].replace(
            "n_points: 101", "n_points: 33").replace(
            "{dt: 0.0001, t_end: 0.01}", "{dt: 0.001, t_end: 0.02, record_every: 3}").replace(
            "amplitude: 0.1", "amplitude: 0.05"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        times = [float(line.split(",")[0])
                 for line in (out / "trajectory.csv").read_text().splitlines()[1:]]
        assert times[-2:] == pytest.approx([0.018, 0.02])
        # the crosscheck runs over the seven records 3 steps apart
        check = summary_sans_meta(out)["results"]["evolution_crosscheck"]
        assert 0.0 < check["k_residual"] < 0.1 and 0.0 < check["K_residual"] < 0.1

    @pytest.mark.parametrize("potential, initial, error", [
        # |u|^2 underflows to 0, so the Rayleigh quotient has no denominator
        ("{family: cosine_perturbed, base: 0.3, amplitude: 0.1, mode: 1}",
         "{family: constant, value: 1.0e-300}", "NonFiniteValue"),
    ], ids=["vanishing_norm"])
    def test_degenerate_normalized_runs_exit_3(self, tmp_path, capsys, potential, initial,
                                               error):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(textwrap.dedent(f"""\
            scenario: normalized
            grid: {{topology: circle, length: 6.283185307179586, n_points: 8}}
            time: {{dt: 0.01, t_end: 0.05, record_every: 1}}
            initial: {initial}
            potential: {potential}
        """))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == error
        assert summary_sans_meta(out)["error"] == err["error"]

    @pytest.mark.parametrize("key", ["boundary", "twisted", "time", "n_rank", "initial",
                                     "potential"])
    def test_values_contradicting_the_run_exit_2(self, tmp_path, capsys, key):
        x = build_grid("circle", 2 * np.pi, 64).x.tolist()
        (tmp_path / "field.csv").write_text(
            "x,value\n" + "".join(f"{xi!r},{2.0 + math.cos(xi)!r}\n" for xi in x))
        cfg = tmp_path / "run.yaml"
        cfg.write_text({
            # a surface profile keeps its own end radii, 0.5 and 0.8 here
            "boundary": SHORT_RUNS["surface"]
            + "boundary: {kind: dirichlet, left: 0.1, right: 0.2}\n",
            # a positive but subnormal profile: every slice 0.4 * profile is 0
            "twisted": SHORT_RUNS["twisted"].replace("base: 2.0, amplitude: 1.0",
                                                     "base: 5.0e-324, amplitude: 0.0"),
            # spectral_report does no time stepping
            "time": SHORT_RUNS["spectral_report"].replace("t_end: 0.0",
                                                          "t_end: 3.0, snapshots: [1.0]"),
            # only the fiber-rank scenarios read n_rank
            "n_rank": SHORT_RUNS["surface"] + "n_rank: 7\n",
            # cole_hopf_check evaluates both fields again on a refined grid,
            # where a CSV sampled on the run's 64 nodes has no values
            "initial": FAST_RUN.replace("initial: {family: cosine_perturbed, base: 2.0, "
                                        "amplitude: 1.0, mode: 1}",
                                        "initial: {family: from_csv, path: field.csv}"),
            "potential": FAST_RUN.replace("potential: {family: cosine_perturbed, base: 0.2, "
                                          "amplitude: 0.2, mode: 1}",
                                          "potential: {family: from_csv, path: field.csv}"),
        }[key])
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert err["error"]["message"].startswith(f"{key}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", list(UNRUNNABLE))
    def test_inputs_the_run_cannot_take_exit_2_with_json(self, tmp_path, capsys, case):
        text, message = UNRUNNABLE[case]
        cfg, out = tmp_path / "run.yaml", tmp_path / "out"
        cfg.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert [str(w.message) for w in caught] == []
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationError"
        assert err["message"].startswith(message) and "; " not in err["message"]
        assert not out.exists()

    def test_a_given_boundary_is_echoed_as_the_ends_that_ran(self, tmp_path):
        # 4e-10 off the profile's end, within what a stepper takes: the run
        # holds the profile's own end, and the echo says so
        cfg, out = tmp_path / "run.yaml", tmp_path / "out"
        cfg.write_text(textwrap.dedent("""\
            scenario: surface
            grid: {topology: interval, length: 1.0, n_points: 41}
            time: {dt: 1.0e-4, t_end: 1.0e-2, record_every: 10}
            boundary: {kind: dirichlet, left: 0.5000000004, right: 0.8}
            initial: {family: linear_sine_bump, left: 0.5, right: 0.8, amplitude: 0.05, mode: 1}
        """))
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        echo = summary_sans_meta(out)["config"]
        assert echo["boundary"] == {"kind": "dirichlet", "left": 0.5, "right": 0.8}
        written = sorted(out.glob("fields_*.csv"))
        assert len(written) == 2
        for path in written:
            rho = _csv_columns(path)["rho"]
            assert (rho[0], rho[-1]) == (echo["boundary"]["left"], echo["boundary"]["right"])
        assert parse_config_text(json.dumps(echo)) == parse_config(cfg)

    @pytest.mark.parametrize("defect, line, words", [
        ("short_row", 4, "expected the 2 columns x,value, got 1"),
        ("non_number", 4, "'1.5707963267948966,two' is not a pair of numbers"),
        ("nan_x", 4, "sample point x = nan is not finite"),
        # a trailing blank line is a row without columns, not a ninth sample
        ("blank_line", 10, "expected the 2 columns x,value, got 0"),
        # the csv module's own limit
        ("huge_field", 4, "field larger than field limit (131072)"),
    ], ids=["short_row", "non_number", "nan_x", "blank_line", "huge_field"])
    def test_malformed_csv_row_exits_2_naming_its_line(self, tmp_path, capsys, defect, line,
                                                       words):
        x = build_grid("circle", 2 * np.pi, 8).x.tolist()
        rows = [f"{xi!r},{2.0 + math.cos(xi)!r}\n" for xi in x]
        rows[2] = {"short_row": f"{x[2]!r}\n", "non_number": f"{x[2]!r},two\n",
                   "nan_x": f"nan,{2.0 + math.cos(x[2])!r}\n",
                   "huge_field": f"{x[2]!r},{'1' * 200_000}\n"}.get(defect, rows[2])
        path = tmp_path / "field.csv"
        path.write_text("x,value\n" + "".join(rows) + ("\n" if defect == "blank_line" else ""))
        cfg = tmp_path / "run.yaml"
        cfg.write_text(SHORT_RUNS["twisted"].replace(
            "n_points: 64", "n_points: 8").replace(
            "initial: {family: cosine_perturbed, base: 2.0, amplitude: 1.0, mode: 1}",
            "initial: {family: from_csv, path: field.csv}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert err["error"]["message"] == f"initial: {path}, line {line}: {words}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("FOLFLOW_THREADS", "1")
        cfg = tmp_path / "run.yaml"
        cfg.write_text(FAST_RUN)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        where = str(cfg) if command == "run" else str(tmp_path)
        assert main([command, where, "--out", str(taken), "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert str(taken) in err["error"]["message"]
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("value", [4.859, 10.0])
    def test_cole_hopf_exact_match_writes_strict_json(self, tmp_path, value):
        # a constant u0 stays constant, so H and its transform are both 0 up
        # to roundoff: one or both sup differences are exactly 0 and no
        # refinement order can be observed
        cfg = tmp_path / "run.yaml"
        cfg.write_text(textwrap.dedent(f"""\
            scenario: cole_hopf_check
            grid: {{topology: circle, length: 1.0, n_points: 8}}
            time: {{dt: 0.1, t_end: 0.7}}
            potential: {{family: constant, value: {value}}}
            initial: {{family: constant, value: 2.0}}
        """))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        results = summary_sans_meta(out)["results"]
        assert results["max_sup_diff"] == 0.0
        assert results["observed_order"] is None

    def test_a_threshold_past_the_float_range_writes_strict_json(self, tmp_path):
        # u0 falls to about 1e-13 across the fiber, so the |T|^2 that would
        # neutralize n*lambda0 grows like exp(-growth_exponent) past the float range
        cfg = tmp_path / "run.yaml"
        cfg.write_text(textwrap.dedent("""\
            scenario: normalized
            grid: {topology: circle, length: 10.0, n_points: 8}
            time: {dt: 0.1, t_end: 0.6}
            initial: {family: gaussian_bump, center: 1.25, width: 1.25, height: 1.0}
            potential: {family: linear, a: 1.25, b: 1.09375}
            n_rank: 2
        """))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        positivity = summary_sans_meta(out)["results"]["positivity"]
        assert positivity["converged"] and positivity["threshold_ratio"] is None

    def test_step_matrix_not_positive_definite_exits_3(self, tmp_path, capsys):
        # c*V = 0.05 * 30 = 1.5: the Crank-Nicolson matrix is indefinite, and the
        # run stops before its first step instead of marching a sign-flipped u
        cfg = tmp_path / "run.yaml"
        cfg.write_text(textwrap.dedent("""\
            scenario: cole_hopf_check
            grid: {topology: circle, length: 1.0, n_points: 8}
            time: {dt: 0.1, t_end: 0.7}
            potential: {family: constant, value: 30.0}
            initial: {family: constant, value: 2.0}
        """))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "SolverSingular"
        assert err["message"].startswith(
            "implicit step matrix is not positive definite: dt is too large for the potential")
        assert summary_sans_meta(out)["error"] == err

    def test_missing_config_file_exits_2(self, tmp_path):
        proc = run_cli("run", str(tmp_path / "nope.yaml"))
        assert proc.returncode == 2

    def test_seed_override_changes_randomized_summary(self, tmp_path):
        cfg = tmp_path / "spec.yaml"
        cfg.write_text(textwrap.dedent("""\
            scenario: spectral_report
            grid: {topology: circle, length: 6.283185307179586, n_points: 64}
            time: {dt: 0.001, t_end: 0.0}
            modes: 4
            n_random: 5
            seed: 1
            potential: {family: constant, value: 0.0}
        """))
        outs = []
        for seed, out in (("1", "a"), ("2", "b")):
            path = tmp_path / out
            assert main(["run", str(cfg), "--out", str(path), "--seed", seed,
                         "--quiet"]) == 0
            outs.append(summary_sans_meta(path))
        assert outs[0]["results"]["min_bound_margin"] != outs[1]["results"]["min_bound_margin"]
        assert outs[0]["config"]["seed"] == 1
        assert outs[1]["config"]["seed"] == 2

    @pytest.mark.parametrize("how", ["config", "override"])
    def test_negative_seed_exits_2_with_json(self, tmp_path, how):
        text = (CONFIGS / "spectral_cosine.yaml").read_text()
        cfg, out = tmp_path / "spec.yaml", tmp_path / "out"
        cfg.write_text(text.replace("seed: 3", "seed: -1") if how == "config" else text)
        proc = run_cli("run", str(cfg), "--out", str(out),
                       *(["--seed", "-1"] if how == "override" else []))
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == {
            "type": "ValidationError", "message": "seed must be at least 0, got -1"}
        assert not out.exists()

    @pytest.mark.parametrize("line, key", [(20, "n_rank"), (7, "n_points")])
    def test_repeated_key_exits_2_with_json(self, tmp_path, line, key):
        text = (CONFIGS / "twisted_relax.yaml").read_text()
        cfg, out = tmp_path / "twisted.yaml", tmp_path / "out"
        cfg.write_text(text + "n_rank: 7\n" if key == "n_rank" else
                       text.replace("  n_points: 256", "  n_points: 256\n  n_points: 8"))
        proc = run_cli("run", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == {
            "type": "ParseError", "message": f"duplicate key '{key}' (line {line})"}
        assert not out.exists()

    @pytest.mark.parametrize("scenario, old, key", [
        ("twisted", "n_points: 64", "grid.n_points"),
        ("twisted", "record_every: 10", "time.record_every"),
        ("twisted", "n_rank: 1", "n_rank"),
        ("spectral_report", "modes: 4", "modes"),
        ("spectral_report", "n_random: 2", "n_random"),
    ])
    def test_integer_past_2_to_the_53_exits_2_with_json(self, tmp_path, scenario, old, key):
        # past 2**53 a float of the integer is inexact; 10**400 has no float
        # at all, and parsing, stepping or recording would raise OverflowError
        cfg, out = tmp_path / "run.yaml", tmp_path / "out"
        cfg.write_text(SHORT_RUNS[scenario].replace(old, f"{old.split(':')[0]}: {10**400}"))
        proc = run_cli("run", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        err = json.loads(proc.stderr)["error"]
        assert err["type"] == "ValidationError"
        # an integer past 30 digits is shown by its digit count
        assert err["message"].startswith(f"{key} must be at most 2**53, got a 401-digit integer")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("n_random", 10**400, "n_random must be at most 2**53, got a 401-digit integer"),
        ("modes", 10**400, "modes must be at most 2**53, got a 401-digit integer"),
        ("modes", -10**40, "modes must be at least 1, got a negative 41-digit integer"),
        ("n_random", -10**40, "n_random must be at least 0, got a negative 41-digit integer"),
        ("modes", "many", "modes must be an integer, got 'many'"),
    ])
    def test_a_refused_integer_key_is_reported_once_and_briefly(self, tmp_path, key, value,
                                                                 message):
        # the parser refuses it, and spectral_report's checks of modes and
        # n_random do not see it again
        old = {"modes": "modes: 4", "n_random": "n_random: 2"}[key]
        cfg, out = tmp_path / "run.yaml", tmp_path / "out"
        cfg.write_text(SHORT_RUNS["spectral_report"].replace(old, f"{key}: {value}"))
        proc = run_cli("run", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert json.loads(proc.stderr) == {"error": {"type": "ValidationError",
                                                     "message": message}}
        assert len(proc.stderr) < 200
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("dt: 0.0001", f"dt: {10**400}",
         "time.dt must be within the float range, got a 401-digit integer"),
        ("b: 1.2", f"b: {-10**400}",
         "initial.b must be within the float range, got a negative 401-digit integer"),
    ])
    def test_a_number_past_the_float_range_exits_2_with_json(self, tmp_path, old, new,
                                                              message):
        # float() of such an integer raises OverflowError, which escaped as a traceback
        cfg, out = tmp_path / "run.yaml", tmp_path / "out"
        cfg.write_text(DEGENERATE_RUN.replace(old, new))
        proc = run_cli("run", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert json.loads(proc.stderr) == {"error": {"type": "ValidationError",
                                                     "message": message}}

    @pytest.mark.parametrize("scenario, topology", [("surface", "circle"),
                                                    ("surface", "interval"),
                                                    ("twisted", "circle")],
                             ids=["circle", "interval", "twisted"])
    def test_step_matrix_past_the_float_range_exits_3_with_json(self, tmp_path, scenario,
                                                                topology):
        # dt * nu / h^2 overflows: the stepper refuses its matrix, typed, and
        # the twisted product, evaluated in closed form, refuses it alike
        cfg, out = tmp_path / "run.yaml", tmp_path / "out"
        cfg.write_text(f"scenario: {scenario}\ngrid: {{topology: {topology}, length: 1.0e-160, "
                       "n_points: 16}\ntime: {dt: 1.0e+300, t_end: 1.0e+300}\n")
        proc = run_cli("run", str(cfg), "--out", str(out))
        assert proc.returncode == 3
        err = json.loads(proc.stderr)["error"]
        assert err["type"] == "SolverSingular"
        assert err["message"].startswith("implicit step matrix is out of floating-point range")
        assert summary_sans_meta(out)["status"] == "failed"

    def test_n_random_past_its_cap_exits_2_with_json(self, tmp_path):
        # each random potential costs an eigensolve; the cap bounds the run
        text = SHORT_RUNS["spectral_report"].replace("n_random: 2", f"n_random: {MAX_RANDOM}")
        assert parse_config_text(text).n_random == MAX_RANDOM
        cfg, out = tmp_path / "run.yaml", tmp_path / "out"
        cfg.write_text(text.replace(f"n_random: {MAX_RANDOM}", f"n_random: {MAX_RANDOM + 1}"))
        proc = run_cli("run", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == {
            "type": "ValidationError",
            "message": f"spectral_report: n_random must be at most {MAX_RANDOM}, "
                       f"got {MAX_RANDOM + 1}"}
        assert not out.exists()

    def test_any_seed_runs(self, tmp_path):
        # numpy seeds from any nonnegative integer, so seed takes no upper bound
        cfg, out = tmp_path / "run.yaml", tmp_path / "out"
        cfg.write_text(SHORT_RUNS["spectral_report"] + f"seed: {10**400}\n")
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert summary_sans_meta(out)["config"]["seed"] == 10**400

    def test_integer_too_long_to_read_exits_2_with_json(self, tmp_path):
        cfg, out = tmp_path / "run.yaml", tmp_path / "out"
        # int() reads at most 4300 digits
        cfg.write_text(SHORT_RUNS["spectral_report"] + "seed: 1" + "0" * 5000 + "\n")
        proc = run_cli("run", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        err = json.loads(proc.stderr)["error"]
        assert err["type"] == "ParseError"
        assert err["message"].startswith("invalid YAML: Exceeds the limit")
        assert not out.exists()

    def test_emit_plots_writes_script_not_image(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(FAST_RUN + "emit_plots: true\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        script = (out / "plot.gp").read_text()
        assert "trajectory.csv" in script and "sup_diff" in script


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(FAST_RUN)
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
            data = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
            blobs.append(data)
        assert blobs[0] == blobs[1]

    def test_summary_identical_up_to_wall_clock(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(FAST_RUN)
        payloads = []
        for name in ("first", "second"):
            out = tmp_path / name
            main(["run", str(cfg), "--out", str(out), "--quiet"])
            payloads.append(summary_sans_meta(out))
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path, config):
        written, summaries = [], []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-m", "folflow.cli", "run", str(config),
                                   "--out", str(out), "--quiet"],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            written.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
            summaries.append(summary_sans_meta(out))
        # a fields file at each snapshot time of the config, all on records, and no other
        snapshots = parse_config(config).time.snapshots
        assert set(written[0]) == {"trajectory.csv", *map(snapshot_name, snapshots)}
        assert written[0] == written[1]
        # min_bound_margin and lambda0_lanczos are in spectral_report's summary alone
        if summaries[0]["config"]["scenario"] == "spectral_report":
            assert summaries[0]["results"]["min_bound_margin"] >= 0.0
        assert summaries[0]["status"] == "ok" and summaries[0] == summaries[1]

    def test_field_columns_written_as_the_repr_of_their_values(self, tmp_path):
        x = np.array([-0.0, 5e-324, 1e16, 0.1 + 0.2, 1.0])
        fields = {"f": x[::-1] * 3.0, "n": np.arange(5)}
        write_fields(tmp_path / "f.csv", x, fields)
        rows = [",".join(repr(col[i].item()) for col in (x, *fields.values())) for i in range(5)]
        assert (tmp_path / "f.csv").read_text() == "\n".join(["x,f,n", *rows]) + "\n"

    def test_trajectory_rows_written_as_the_repr_of_their_values(self, tmp_path):
        series = {"a": np.array([-0.0, 5e-324, 1.0]), "t": np.array([0.0, 0.1 + 0.2, 1e16])}
        write_trajectory(tmp_path / "t.csv", ("t", "a"), series)
        assert (tmp_path / "t.csv").read_text() == (
            "t,a\n0.0,-0.0\n0.30000000000000004,5e-324\n1e+16,1.0\n")

    SIX_SNAPSHOTS = SHORT_RUNS["normalized"].replace(
        "record_every: 10}", "record_every: 10, snapshots: [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]}")

    def test_shared_columns_written_as_the_repr_of_their_values_past_a_chunk(self, tmp_path):
        # 513 rows: a second chunk of one row; x and the int column are
        # formatted by the first file and reused by the second
        x = np.linspace(-1.0, 1.0, 513)
        fields = {"f": np.sin(x) * 1e16, "n": np.arange(513), "z": -0.0 * x}
        rows = [",".join(repr(col[i].item()) for col in (x, *fields.values())) for i in range(513)]
        shared = {"x": SharedColumn(x), "n": SharedColumn(fields["n"])}
        for name in ("first", "second"):
            write_fields(tmp_path / name, shared["x"], {**fields, "n": shared["n"]})
            assert (tmp_path / name).read_text() == "\n".join(["x,f,n,z", *rows]) + "\n"

    def test_a_column_differing_only_in_the_sign_of_a_zero_is_not_shared(self, tmp_path,
                                                                           monkeypatch):
        # betaD is 0.0 in the first snapshot and -0.0 in the others: equal
        # values, but each file writes the repr of its own bits
        scenario = SCENARIOS["normalized"]

        def run(*args):
            traj, summary = scenario.run(*args)
            for i, row in enumerate(traj.snapshot_rows):
                traj.fields[row]["betaD"] = np.full(len(args[1].x), -0.0 if i else 0.0)
            return traj, summary

        monkeypatch.setitem(SCENARIOS, "normalized", dataclasses.replace(scenario, run=run))
        execute_config(parse_config_text(self.SIX_SNAPSHOTS), tmp_path, quiet=True)
        written = [_csv_columns(path)["betaD"] for path in sorted(tmp_path.glob("fields_*.csv"))]
        assert len(written) == 6
        assert [np.signbit(col).tolist() for col in written] == [[False] * 64] + [[True] * 64] * 5

    def test_execute_config_writes_each_snapshot_with_one_write_fields_call(self, tmp_path,
                                                                            monkeypatch):
        # the tracer times artifacts.write_fields as bound in cli; x and the
        # held-fixed betaD reach every call formatted once, the state not
        calls = []

        def counted(path, x, fields):
            calls.append((x, fields))
            return write_fields(path, x, fields)

        monkeypatch.setattr(cli, "write_fields", counted)
        execute_config(parse_config_text(self.SIX_SNAPSHOTS), tmp_path, quiet=True)
        assert len(calls) == len(list(tmp_path.glob("fields_*.csv"))) == 6
        for x, fields in calls:
            assert isinstance(x, SharedColumn) and x is calls[0][0]
            shared = {name: col for name, col in fields.items() if isinstance(col, SharedColumn)}
            assert shared == {"betaD": calls[0][1]["betaD"]}


class TestParseOnce:
    """A run uses the grid and fields its config was parsed and checked with."""

    @pytest.mark.parametrize("scenario", sorted(SHORT_RUNS))
    def test_execute_config_builds_no_input(self, monkeypatch, tmp_path, scenario):
        # every module's binding of the two builders is counted; only
        # cole_hopf_check's refinement run builds, on its own finer grid
        cfg = parse_config_text(SHORT_RUNS[scenario])
        calls = {"build_field": 0, "build_grid": 0}
        for name, module in list(sys.modules.items()):
            for builder in calls:
                original = getattr(module, builder, None) if name.startswith("folflow") else None
                if callable(original):
                    def counted(*args, _builder=builder, _original=original, **kwargs):
                        calls[_builder] += 1
                        return _original(*args, **kwargs)
                    monkeypatch.setattr(module, builder, counted)
        execute_config(cfg, tmp_path, quiet=True)
        refined = scenario == "cole_hopf_check"
        assert calls == {"build_field": 2 if refined else 0, "build_grid": 1 if refined else 0}

    @pytest.mark.parametrize("value", [-1.0, 3.0])
    def test_csv_rewritten_after_parsing_leaves_the_run_unchanged(self, tmp_path, value):
        x = build_grid("circle", 2 * np.pi, 64).x.tolist()
        csv_path = tmp_path / "field.csv"
        csv_path.write_text(
            "x,value\n" + "".join(f"{xi!r},{2.0 + math.cos(xi)!r}\n" for xi in x))
        cfg_path = tmp_path / "run.yaml"
        cfg_path.write_text(SHORT_RUNS["twisted"].replace(
            "initial: {family: cosine_perturbed, base: 2.0, amplitude: 1.0, mode: 1}",
            "initial: {family: from_csv, path: field.csv}"))
        written = []
        for name in ("kept", "rewritten"):
            cfg = parse_config(cfg_path)
            if name == "rewritten":
                # a profile the parser would reject (-1) or another valid one (3)
                csv_path.write_text("x,value\n" + "".join(f"{xi!r},{value!r}\n" for xi in x))
            out = tmp_path / name
            execute_config(cfg, out, quiet=True)
            written.append({**{p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))},
                            "summary": summary_sans_meta(out)})
        assert written[0] == written[1]


def _run_artifacts(cfg, out: Path) -> dict:
    """What a run writes: the CSV files' bytes and the summary's results."""
    execute_config(cfg, out, quiet=True)
    written = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    return {**written, "results": summary_sans_meta(out)["results"]}


# SHORT_RUNS' surface, 101 interval nodes, runs as a sine series; one of 200
# nodes, whose FFT length 2 * 199 has a prime factor above 13, marches
BLOCK_RUNS = {**SHORT_RUNS,
              "surface_marched": SHORT_RUNS["surface"].replace("n_points: 101", "n_points: 200")}


def _block_budgets(cfg) -> dict:
    """march's value budgets that give a run its default blocks, blocks of one
    state, and blocks of 7 states of its largest: cole_hopf_check's refined
    pair, (u, H) on 2 * n_points nodes, whose coarse pair then takes 14."""
    n = cfg.grid.n_points
    largest = {"twisted": len(cfg.base_values) * n, "cole_hopf_check": 4 * n}.get(cfg.scenario, n)
    return {"default": parabolic._BLOCK_DOUBLES, 1: 1, 7: 7 * largest}


class TestBlockEdges:
    """march evaluates steps in blocks; the block length must not show in any artifact."""

    @pytest.mark.parametrize("scenario", sorted(BLOCK_RUNS))
    def test_block_length_leaves_artifacts_unchanged(self, tmp_path, monkeypatch, scenario):
        raw = yaml.safe_load(BLOCK_RUNS[scenario])
        cfg = parse_config_text(BLOCK_RUNS[scenario])
        if scenario.startswith("surface"):
            assert _series_pays(cfg.grid) == (scenario == "surface")
        runs = {}
        # 50 or 100 steps (spectral_report: none); 3 and 9 divide neither
        # the step counts nor the block lengths 7 and 14, and the default
        # block holds every step
        for rows, budget in _block_budgets(cfg).items():
            monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", budget)
            for every in (3, 9):
                raw["time"]["record_every"] = every
                out = tmp_path / f"{rows}_{every}"
                runs[rows, every] = _run_artifacts(parse_config_text(json.dumps(raw)), out)
        for (rows, every), artifacts in runs.items():
            assert artifacts == runs["default", every], (rows, every)

    @pytest.mark.parametrize("scenario, every", [
        ("surface", 1), ("twisted", 1), ("normalized", 1), ("cole_hopf_check", 1),
        ("surface", 7),
    ])
    def test_records_inside_blocks_leave_artifacts_unchanged(self, tmp_path, monkeypatch,
                                                            scenario, every):
        # every step recorded, so blocks of 7 rows and the default block,
        # which holds the run, hold many records; 7 does not divide the
        # surface's 100 steps, whose last record is off-grid
        raw = yaml.safe_load(SHORT_RUNS[scenario])
        t_end = raw["time"]["t_end"]
        raw["time"].update(record_every=every, snapshots=[0.0, t_end / 3, 0.5 * t_end, t_end])
        cfg = parse_config_text(json.dumps(raw))
        runs = []
        for rows, budget in _block_budgets(cfg).items():
            monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", budget)
            runs.append(_run_artifacts(parse_config_text(json.dumps(raw)), tmp_path / str(rows)))
        assert len([name for name in runs[0] if name.startswith("fields_")]) == 4
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("rows", [1, 7, "default"])
    @pytest.mark.parametrize("text, error", [
        (OVERFLOW_RUN, "NonFiniteValue: recorded value(s) ['rayleigh'] not finite "
                       "(failure at t = 0.87)"),
        (DEGENERATE_RUN, "ProfileDegenerate: profile slope |rho_x| = 1.2 exceeds 1; "
                         "the surface is no longer a graph over arclength (failure at t = 0)"),
        # every step recorded: the overflowed record sits inside a block
        (OVERFLOW_RUN.replace("t_end: 2.0}", "t_end: 2.0, record_every: 1}"),
         "NonFiniteValue: recorded value(s) ['rayleigh'] not finite (failure at t = 0.863)"),
    ], ids=["overflow", "degenerate", "overflow_every_step"])
    def test_failure_and_its_time_do_not_depend_on_blocks(self, tmp_path, monkeypatch,
                                                          rows, text, error):
        cfg = parse_config_text(text)
        monkeypatch.setattr(parabolic, "_BLOCK_DOUBLES", _block_budgets(cfg)[rows])
        with pytest.raises(FolflowError) as exc:
            execute_config(cfg, tmp_path / "out", quiet=True)
        assert f"{type(exc.value).__name__}: {exc.value}" == error

    def test_a_driver_called_directly_fails_without_a_warning(self):
        # march's own errstate covers its hooks, so the overflowing Rayleigh
        # quotient warns neither through execute_config nor without it
        cfg = parse_config_text(OVERFLOW_RUN)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteValue) as exc:
                run_normalized_flow(cfg.fields["initial"], cfg.fields["potential"],
                                    cfg.fields["t2_initial"], cfg.n_rank, cfg.time.dt,
                                    cfg.time.t_end, cfg.time.record_every,
                                    snapshots=cfg.time.snapshots)
        assert [str(w.message) for w in caught] == []
        assert str(exc.value) == "recorded value(s) ['rayleigh'] not finite (failure at t = 0.87)"

    def test_a_run_forms_its_record_schedule_once(self, tmp_path, monkeypatch):
        # once to parse, once in the run's Trajectory, whose steps march and
        # the surface's record hook read
        calls, record_steps = [], parabolic.record_steps

        def counted(*args):
            calls.append(args)
            return record_steps(*args)

        for module in (parabolic, scenarios, config):
            monkeypatch.setattr(module, "record_steps", counted)
        execute_config(parse_config(CONFIGS / "surface_bump.yaml"), tmp_path / "out", quiet=True)
        assert calls == [(1e-4, 3.0, 1000)] * 2


class TestRecordMemory:
    """A run keeps the field arrays of the records it writes, not of every record."""

    @staticmethod
    def _peak(tmp_path, steps: int) -> int:
        raw = yaml.safe_load(SHORT_RUNS["twisted"])
        raw["grid"]["n_points"] = 128
        raw["base_values"] = [0.3, 0.45, 0.6]
        raw["time"] = {"dt": 1e-3, "t_end": steps * 1e-3, "record_every": 1}
        cfg = parse_config_text(json.dumps(raw))
        tracemalloc.start()
        try:
            execute_config(cfg, tmp_path / str(steps), quiet=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_the_records(self, tmp_path):
        self._peak(tmp_path, 10)
        # a record's six fields take 6 KB: 200 more of them would add 1.2 MB
        # to the peak, the rows 60 KB
        assert self._peak(tmp_path, 400) <= 1.1 * self._peak(tmp_path, 200)

    def test_kept_records_are_the_files_written(self, tmp_path, monkeypatch):
        # records after steps 0, 3, 6, 9 and the off-grid 10: snapshots
        # between two records, on a tie, twice on one record and on the last
        dt = 2.0 ** -10
        raw = yaml.safe_load(SHORT_RUNS["twisted"])
        raw["time"] = {"dt": dt, "t_end": 10 * dt, "record_every": 3,
                       "snapshots": [dt, 4.5 * dt, 5.5 * dt, 6.5 * dt, 9.75 * dt]}
        scenario, runs = SCENARIOS["twisted"], []
        monkeypatch.setitem(SCENARIOS, "twisted", dataclasses.replace(
            scenario, run=lambda *args: runs.append(scenario.run(*args)) or runs[-1]))
        execute_config(parse_config_text(json.dumps(raw)), tmp_path, quiet=True)
        traj = runs[0][0]
        kept = [t for t, fields in zip(traj.series["t"].tolist(), traj.fields)
                if fields is not None]
        assert kept == [0.0, 3 * dt, 6 * dt, 10 * dt]
        written = sorted(path.name for path in tmp_path.glob("fields_*.csv"))
        assert written == [snapshot_name(t) for t in kept]


def catalog_lists(text: str, pattern: str = r"trajectory\((.*)\)") -> dict:
    """Scenario name -> the list `pattern` captures, by default the
    trajectory columns, as `folflow list` prints it."""
    lists, name = {}, None
    for line in text.splitlines()[1:]:
        if line and not line.startswith(" "):
            name = line
        found = re.search(pattern, line)
        if found:
            lists[name] = found.group(1).split(", ")
    return lists


def field_columns(declared: list, cfg) -> list:
    """The fields_<t>.csv columns after x that a fields(...) declaration
    names: `<name>_i` repeats per base slice, and `e0, e1, ...` runs to one
    column per mode."""
    if declared[-1] == "...":
        head = declared[:declared.index("e0")]
        return [*head, *(f"e{j}" for j in range(cfg.modes))]
    if all(name.endswith("_i") for name in declared):
        return [f"{name[:-2]}_{i}" for i in range(len(cfg.base_values)) for name in declared]
    return declared


class TestListCommand:
    def test_catalog_names_every_scenario(self, capsys):
        assert main(["list"]) == 0
        text = capsys.readouterr().out
        for name in ("surface", "twisted", "normalized", "cole_hopf_check",
                     "spectral_report"):
            assert f"\n{name}\n" in text or text.startswith(f"{name}\n")
        # each entry documents its evolution law and artifact columns
        assert "d(rho)/dt = rho_xx" in text
        assert "d(u)/dt = n*(u_yy + betaD*u)" in text
        assert "trajectory(" in text

    def test_catalog_lists_exactly_the_parsed_scenarios(self, capsys):
        main(["list"])
        listed = list(catalog_lists(capsys.readouterr().out))
        with pytest.raises(ValidationError) as exc:
            parse_config_text(FAST_RUN.replace("cole_hopf_check", "no_such_scenario"))
        accepted = re.search(r"scenario must be one of (\[.*?\])", str(exc.value))
        assert listed == ast.literal_eval(accepted.group(1))

    def test_catalog_columns_match_trajectory_header(self, tmp_path, capsys):
        main(["list"])
        catalog = capsys.readouterr().out
        listed = catalog_lists(catalog)
        declared = catalog_lists(catalog, r"fields\((.*)\)")
        assert set(listed) == set(SHORT_RUNS) == set(declared)
        for name, text in SHORT_RUNS.items():
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(text)
            out = tmp_path / name
            assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0, name
            header = (out / "trajectory.csv").read_text().splitlines()[0]
            assert header.split(",") == listed[name], name
            columns = ["x", *field_columns(declared[name], parse_config_text(text))]
            snapshots = sorted(out.glob("fields_*.csv"))
            assert snapshots, name
            for path in snapshots:
                assert path.read_text().splitlines()[0].split(",") == columns, path.name

    def test_each_run_records_exactly_its_declared_columns(self, tmp_path, monkeypatch):
        # trajectory.csv's header is the declaration, so a column a record
        # hook adds without declaring it would be left out of the file
        for name, text in SHORT_RUNS.items():
            scenario, runs = SCENARIOS[name], []
            monkeypatch.setitem(SCENARIOS, name, dataclasses.replace(
                scenario, run=lambda *args, run=scenario.run: runs.append(run(*args)) or runs[-1]))
            execute_config(parse_config_text(text), tmp_path / name, quiet=True)
            assert list(runs[0][0].series) == list(scenario.columns), name

    def test_catalog_keys_are_the_keys_each_scenario_accepts(self, capsys):
        main(["list"])
        listed = catalog_lists(capsys.readouterr().out, r"keys:\s+(.*)")
        assert set(listed) == set(SHORT_RUNS)
        every = set().union(*listed.values())
        for name, text in SHORT_RUNS.items():
            assert set(yaml.safe_load(text)) <= set(listed[name]), name
            parse_config_text(text)
            for key in sorted(every - set(listed[name])):
                with pytest.raises(ValidationError, match=f"^{key}: {name} does not read"):
                    parse_config_text(text + f"{key}: 1\n")

    def test_catalog_is_stable_across_calls(self, capsys):
        main(["list"])
        first = capsys.readouterr().out
        main(["list"])
        assert capsys.readouterr().out == first


class TestSweepCommand:
    def test_sweep_runs_every_config_in_directory(self, tmp_path):
        for name in ("a", "b"):
            (tmp_path / f"{name}.yaml").write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["sweep", str(tmp_path), "--out", str(out), "--quiet"]) == 0
        assert (out / "a" / "summary.json").exists()
        assert (out / "b" / "summary.json").exists()

    def test_sweep_empty_directory_exits_2(self, tmp_path):
        proc = run_cli("sweep", str(tmp_path))
        assert proc.returncode == 2

    # small values only: a test must not start many worker processes
    @pytest.mark.parametrize("threads", ["two", "0", "-1", "2.5", "1e0"])
    def test_sweep_rejects_threads_that_are_not_a_positive_integer(self, tmp_path, capsys,
                                                                   monkeypatch, threads):
        monkeypatch.setenv("FOLFLOW_THREADS", threads)
        (tmp_path / "a.yaml").write_text(FAST_RUN)
        out = tmp_path / "out"
        assert main(["sweep", str(tmp_path), "--out", str(out), "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "ValidationError", "message":
                                f"FOLFLOW_THREADS must be a positive integer, got {threads!r}"}
        assert not out.exists()

    def test_sweep_rejects_a_negative_seed(self, tmp_path):
        (tmp_path / "a.yaml").write_text(FAST_RUN)
        out = tmp_path / "out"
        proc = run_cli("sweep", str(tmp_path), "--out", str(out), "--seed", "-1")
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == {
            "type": "ValidationError", "message": "seed must be at least 0, got -1"}
        assert not out.exists()

    def test_sweep_refuses_the_inputs_the_run_cannot_take(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FOLFLOW_THREADS", "1")
        for case, (text, _) in UNRUNNABLE.items():
            (tmp_path / f"{case}.yaml").write_text(text)
        out = tmp_path / "out"
        proc = run_cli("sweep", str(tmp_path), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == ""
        reported = dict(line.split(": failed (exit 2): ", 1) for line in proc.stdout.splitlines())
        assert reported.keys() == {f"{case}.yaml" for case in UNRUNNABLE}
        for case, (_, message) in UNRUNNABLE.items():
            assert reported[f"{case}.yaml"].startswith(message)
            assert "; " not in reported[f"{case}.yaml"]
        assert list(out.iterdir()) == []

    def test_sweep_reports_worst_exit_code(self, tmp_path):
        (tmp_path / "good.yaml").write_text(FAST_RUN)
        (tmp_path / "bad.yaml").write_text(DEGENERATE_RUN)
        proc = run_cli("sweep", str(tmp_path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        assert "good.yaml: ok" in proc.stdout
        assert "bad.yaml: failed (exit 3)" in proc.stdout

    def test_shipped_configs_parse(self):
        from folflow.config import parse_config

        found = sorted(CONFIGS.glob("*.yaml"))
        assert len(found) == 5
        scenarios = {parse_config(p).scenario for p in found}
        assert scenarios == {"surface", "twisted", "normalized", "cole_hopf_check",
                             "spectral_report"}


# ---------------------------------------------------------------------------
# the CLI contract over drawn configs

# a tame config draws moderate positive field parameters, so it mostly gets
# past validation and runs; a hostile one probes signs, zeros, underflow and
# overflow
_TAME = st.floats(0.05, 2.0)
_HOSTILE = st.one_of(
    st.floats(-5.0, 5.0, allow_nan=False),
    st.sampled_from([0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, 1e308, 400.0]),
)


def _params(draw, numbers, family: str) -> dict:
    params = {name: draw(numbers) for name in FAMILY_PARAMS[family]}
    if "mode" in params:
        params["mode"] = draw(st.integers(0, 4))
    return params


def _family(draw, numbers, key: str, grid, csvs: dict, tame: bool, files: bool) -> dict:
    """A drawn field family.  If files, one field in four is from_csv: another drawn
    family sampled on the drawn grid into csvs[<key>.csv] = (text, malformed),
    which goes beside the config; a sample that fails to evaluate is written
    as NaN.  Unless tame, four files in five carry one malformed row: a short
    row, a blank line (trailing ones too), a non-number or a NaN sample point."""
    family = draw(st.sampled_from([name for name in FAMILY_PARAMS if name != "from_csv"]))
    if not files or draw(st.integers(0, 3)) != 0:
        return {"family": family, **_params(draw, numbers, family)}
    try:
        values = build_field(grid, family, _params(draw, numbers, family)).values
    except ValueError:
        values = np.full(grid.n_points, np.nan)
    lines = [f"{x!r},{v!r}" for x, v in zip(grid.x.tolist(), values.tolist())]
    defect = None if tame else draw(st.sampled_from([None, "short_row", "blank_line",
                                                     "non_number", "nan_x"]))
    if defect == "blank_line":
        lines.insert(draw(st.integers(0, grid.n_points)), "")
    elif defect is not None:
        at = draw(st.integers(0, grid.n_points - 1))
        x, v = lines[at].split(",")
        lines[at] = {"short_row": x, "non_number": f"{x},one", "nan_x": f"nan,{v}"}[defect]
    csvs[f"{key}.csv"] = ("x,value\n" + "".join(line + "\n" for line in lines),
                          defect is not None)
    return {"family": "from_csv", "path": f"{key}.csv"}


_VALUES = {
    "n_rank": st.integers(1, 3),
    "base_values": st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=3),
    "modes": st.integers(1, 12),
    "n_random": st.integers(0, 2),
    "seed": st.integers(-2**31, 2**31 - 1),
    "tolerances": st.fixed_dictionaries({}, optional={
        "gap_min": st.sampled_from([1e-6, 0.1, 1.0, 100.0]),
        "converged_dev": st.sampled_from([1e-5, 1.0]),
    }),
}


def _value(draw, key: str, numbers, grid, csvs: dict, tame: bool = False, files: bool = True):
    """A drawn value for one of the keys a scenario declares; a tame seed is
    nonnegative, and tame modes are as many as a circle has."""
    if key in ("initial", "potential", "t2_initial"):
        return _family(draw, numbers, key, grid, csvs, tame, files)
    if key == "boundary":
        return draw(st.sampled_from([
            {"kind": "periodic"},
            {"kind": "dirichlet", "left": draw(numbers), "right": draw(numbers)},
        ]))
    if key == "seed" and tame:
        return draw(st.integers(0, 2**31 - 1))
    if key == "modes" and tame:  # at most the n_points of a circle, unlike the default 12
        return draw(st.integers(1, 8))
    return draw(_VALUES[key])


@st.composite
def run_configs(draw, scenario: str) -> tuple[dict, str | None, dict]:
    """A config of the scenario over the keys it reads: small grids, at most 20
    steps.  Two draws in three are tame, so that most of them run: the circle
    unless the scenario is the surface (whose fibers are then the long ones),
    every key with tame numbers, no malformed file, a nonnegative seed, modes
    that fit and a boundary only on a circle.  The others may take the
    topology the scenario refuses, hostile numbers, malformed files and
    defaults, and one in four of them also names a key that only other
    scenarios read, which is returned beside the config; so are the from_csv
    fields' CSV files by name, each as (text, malformed)."""
    keys = SCENARIOS[scenario].keys
    tame = draw(st.integers(0, 2)) != 0
    # four of the five scenarios need a circle
    topology = draw(st.sampled_from(["circle", "circle", "interval"]))
    if tame and scenario != "surface":
        topology = "circle"
    dt = draw(st.sampled_from([1e-4, 1e-3, 1e-2, 0.1]))
    steps = 0 if scenario == "spectral_report" else draw(st.integers(0, 20))
    numbers = _TAME if tame else draw(st.sampled_from([_TAME, _HOSTILE]))
    lengths = [2 * math.pi, 1.0, 0.25, 10.0]
    if tame and scenario == "surface":
        # tame numbers make most surface profiles steeper than 1 on short fibers
        lengths = [2 * math.pi, 10.0]
    raw = {
        "scenario": scenario,
        "grid": {"topology": topology, "length": draw(st.sampled_from(lengths)),
                 "n_points": draw(st.integers(8, 33))},
        "time": {"dt": dt, "t_end": steps * dt, "record_every": draw(st.integers(1, 25))},
    }
    grid = build_grid(**raw["grid"])
    csvs = {}
    if draw(st.booleans()):
        raw["time"]["snapshots"] = [0.0, steps * dt]
    if draw(st.booleans()):
        raw["emit_plots"] = draw(st.booleans())
    for key in keys:
        if key == "boundary" and tame:
            if topology == "circle" and draw(st.booleans()):
                raw[key] = {"kind": "periodic"}
        elif key == "initial" or tame or draw(st.booleans()):
            # cole_hopf_check refuses from_csv fields
            raw[key] = _value(draw, key, numbers, grid, csvs, tame,
                              files=not (tame and scenario == "cole_hopf_check"))
    unread = None
    if not tame and draw(st.integers(0, 3)) == 0:
        others = {key for s in SCENARIOS.values() for key in s.keys} - set(keys)
        unread = draw(st.sampled_from(sorted(others)))
        raw[unread] = _value(draw, unread, numbers, grid, csvs)
    return raw, unread, csvs


def contract_breaches(raw: dict, unread: str | None, csvs: dict) -> tuple[int, dict, list[str]]:
    """Run a config of run_configs, with its files, through `folflow run` in a
    temporary directory: the exit code, the error printed on stderr ({} if
    none) and one line for each way the run broke the CLI contract."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.yaml", Path(tmp) / "out"
        cfg.write_text(yaml.safe_dump(raw))
        for name, (text, _) in csvs.items():
            (Path(tmp) / name).write_text(text)
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(["run", str(cfg), "--out", str(out), "--quiet"])
        breaches = [f"warning: {w.message}" for w in caught]
        if code not in (0, 2, 3):
            return code, {}, [*breaches, f"exit {code}"]
        error = json.loads(stderr.getvalue())["error"] if code else {}
        malformed = [name[:-len(".csv")] for name, (_, bad) in csvs.items() if bad]
        negative_seed = raw.get("seed", 0) < 0 and "seed" in SCENARIOS[raw["scenario"]].keys
        if code == 2:
            message = error["message"]
            if out.exists():
                breaches.append("exit 2 wrote the output directory")
            if unread is not None and not message.startswith(f"{unread}: "):
                breaches.append(f"ignored key: {unread} is not the first error named")
            if negative_seed and f"seed must be at least 0, got {raw['seed']}" not in message:
                breaches.append(f"ignored key: the negative seed {raw['seed']} is not named")
            # a malformed row of a file the run reads is named by its line
            for key in sorted(set(malformed) - {unread}):
                if not re.search(rf"(^|; ){key}: \S*{key}\.csv, line \d+: ", message):
                    breaches.append(f"ignored key: the malformed row of {key}.csv is not named")
            return code, error, breaches
        if unread is not None:
            breaches.append(f"ignored key: {unread} ran")
        if negative_seed:
            breaches.append(f"ignored key: the negative seed {raw['seed']} ran")
        breaches += [f"ignored key: {key}.csv ran with a malformed row" for key in malformed]
        try:
            summary = summary_sans_meta(out)
        except ValueError as err:
            return code, error, [*breaches, f"summary.json is not strict JSON: {err}"]
        if code == 3:
            if summary["status"] != "failed":
                breaches.append(f"exit 3 with status {summary['status']!r}")
            return code, error, breaches
        if stderr.getvalue():
            breaches.append(f"exit 0 with stderr {stderr.getvalue()!r}")
        # the echo holds exactly the keys the scenario reads, and it parses
        # back to the configuration that ran
        echo = summary["config"]
        if set(echo) != {*COMMON_KEYS, *SCENARIOS[raw["scenario"]].keys}:
            breaches.append(f"the echo holds the keys {sorted(echo)}")
        elif parse_config_text(json.dumps(echo)) != parse_config(cfg):
            breaches.append(f"the echo {echo} differs from what ran")
        return code, error, breaches


class TestContractProperty:
    # the same number of draws, 50, for each scenario; tests/fuzz_contract.py
    # draws many more outside Tier-1
    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(data=st.data())
    def test_exit_code_summary_and_stderr(self, scenario, data):
        raw, unread, csvs = data.draw(run_configs(scenario))
        assert contract_breaches(raw, unread, csvs)[2] == []


@st.composite
def spectral_configs(draw) -> dict:
    """A valid spectral_report config: a flat or cosine potential, even and
    odd modes, on a circle or an interval of 8 to 256 points, and up to three
    random potentials for the bound."""
    topology = draw(st.sampled_from(["circle", "interval"]))
    n = draw(st.integers(8, 256))
    size = n if topology == "circle" else n - 2
    if draw(st.booleans()):
        potential = {"family": "constant", "value": draw(st.floats(-5.0, 5.0))}
    else:
        potential = {"family": "cosine_perturbed", "base": draw(st.floats(-1.0, 1.0)),
                     "amplitude": draw(st.floats(-2.0, 2.0)), "mode": draw(st.integers(1, 6))}
    return {
        "scenario": "spectral_report",
        "grid": {"topology": topology, "length": draw(st.sampled_from([1.0, 2 * math.pi, 7.5])),
                 "n_points": n},
        "time": {"dt": 0.001, "t_end": 0.0},
        "modes": draw(st.integers(1, min(size, 24))),
        "n_random": draw(st.integers(0, 3)),
        "seed": draw(st.integers(0, 2**31 - 1)),
        "potential": potential,
    }


class TestSpectralProperty:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(raw=spectral_configs())
    def test_valid_configs_run_and_the_routes_agree(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            execute_config(parse_config_text(json.dumps(raw)), Path(tmp), quiet=True)
            summary = summary_sans_meta(Path(tmp))
        assert summary["status"] == "ok"
        assert summary["results"]["route_agreement"] <= 1e-8
        margin = summary["results"]["min_bound_margin"]
        assert margin is None if raw["n_random"] == 0 else margin >= 0.0


@st.composite
def twisted_configs(draw) -> dict:
    """A valid twisted config: a positive profile on a circle of 8 to 128
    points, 1 to 50 steps of a dt with n_rank * dt / h**2 <= 0.9, where the
    Crank-Nicolson step keeps every slice positive, and snapshot times that
    include 0."""
    n = draw(st.integers(8, 128))
    length = draw(st.sampled_from([1.0, 2 * math.pi, 7.5]))
    n_rank = draw(st.integers(1, 3))
    dt = draw(st.sampled_from([0.1, 0.25, 0.5, 0.9])) * (length / n) ** 2 / n_rank
    steps = draw(st.integers(1, 50))
    initial = draw(positive_profiles(length))
    return {
        "scenario": "twisted",
        "grid": {"topology": "circle", "length": length, "n_points": n},
        "time": {"dt": dt, "t_end": steps * dt, "record_every": draw(st.integers(1, 25)),
                 "snapshots": sorted({0.0, draw(st.integers(0, steps)) * dt, steps * dt})},
        "n_rank": n_rank,
        "initial": initial,
        "base_values": draw(st.lists(st.floats(0.1, 4.0), min_size=1, max_size=4)),
    }


@st.composite
def positive_profiles(draw, length: float) -> dict:
    """A positive field family: |amplitude| < base, or below both ends, and a
    bump at least length/8 wide, whose smallest value exp(-32) * height is
    still normal."""
    family = draw(st.sampled_from(["constant", "cosine_perturbed", "gaussian_bump",
                                   "linear_sine_bump"]))
    share = st.floats(-0.9, 0.9)
    if family == "constant":
        params = {"value": draw(st.floats(0.1, 10.0))}
    elif family == "cosine_perturbed":
        base = draw(st.floats(0.5, 4.0))
        params = {"base": base, "amplitude": draw(share) * base, "mode": draw(st.integers(0, 4))}
    elif family == "gaussian_bump":
        params = {"center": draw(st.floats(0.0, length)),
                  "width": draw(st.floats(length / 8, length)),
                  "height": draw(st.floats(0.1, 5.0))}
    else:
        left, right = draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0))
        params = {"left": left, "right": right, "amplitude": draw(share) * min(left, right),
                  "mode": draw(st.integers(0, 4))}
    return {"family": family, **params}


def _csv_columns(path: Path) -> dict[str, np.ndarray]:
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), np.array([row.split(",") for row in rows], dtype=float).T))


class TestTwistedProperty:
    """Valid twisted runs exit 0, and scaling base_values by a power of two c
    scales each slice f_<i> by c bit for bit; H = -(log f)_y moves only by the
    roundoff of log(c*f) against log c + log f."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(raw=twisted_configs(), c=st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    def test_valid_configs_run_and_scale_with_the_slices(self, raw, c):
        runs = []
        with tempfile.TemporaryDirectory() as tmp:
            for name, scale in (("base", 1.0), ("scaled", c)):
                cfg, out = Path(tmp) / f"{name}.yaml", Path(tmp) / name
                cfg.write_text(json.dumps({**raw, "base_values": [scale * b for b in
                                                                   raw["base_values"]]}))
                assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
                runs.append({p.name: _csv_columns(p) for p in sorted(out.glob("*.csv"))})
        base, scaled = runs
        assert base.keys() == scaled.keys()
        eps, h = np.finfo(float).eps, raw["grid"]["length"] / raw["grid"]["n_points"]
        # H differences logs of size up to log_size over 2h; the slices stay
        # within the range of their initial values
        log_size = sum(np.max(np.abs(np.log(np.array([run["fields_0.000000.csv"][key]
                                                       for key in run["fields_0.000000.csv"]
                                                       if key.startswith("f_")]))))
                       for run in runs)
        for name, columns in base.items():
            for key, values in columns.items():
                if key.startswith("f_") or key in ("sup_dist_to_mean", "mass_drift"):
                    assert np.array_equal(scaled[name][key], c * values), (name, key)
                elif key.startswith("H_") or key == "sup_H":
                    bound = 4 * eps * (log_size / h + np.max(np.abs(values)))
                    assert np.max(np.abs(scaled[name][key] - values)) <= bound, (name, key)
                else:
                    assert np.array_equal(scaled[name][key], values), (name, key)
        # each slice keeps its fiber mass to roundoff
        masses = h * np.sum([base["fields_0.000000.csv"][key]
                             for key in base["fields_0.000000.csv"] if key.startswith("f_")],
                            axis=-1)
        steps = round(raw["time"]["t_end"] / raw["time"]["dt"])
        assert np.max(base["trajectory.csv"]["mass_drift"]) <= 4 * eps * (steps + 1) * max(masses)


# the parameters each family's values are linear in, so that scaling them by
# a power of two scales the values by it bit for bit
_LINEAR_PARAMS = {"value", "base", "amplitude", "height", "left", "right"}


@st.composite
def normalized_configs(draw) -> dict:
    """A valid normalized config: positive u0 and |T|^2 on a circle of 8 to 128
    points, a betaD of 0 or 1e-201 to 2 (base 0 or 1e-200 to 1, |amplitude| <
    base) and 1 to 50 steps of a dt with n_rank * dt / h**2 <= 0.9, where the
    Crank-Nicolson step keeps u positive and its matrix stays positive definite
    (dt/2 * n_rank * max betaD <= 0.9 * h**2 < 1)."""
    n = draw(st.integers(8, 128))
    length = draw(st.sampled_from([1.0, 2 * math.pi, 7.5]))
    n_rank = draw(st.integers(1, 3))
    dt = draw(st.sampled_from([0.1, 0.25, 0.5, 0.9])) * (length / n) ** 2 / n_rank
    steps = draw(st.integers(1, 50))
    # betaD is 0 or normal: a power of two scales betaD * u exactly only while
    # that product is a normal float, and u here is at least about 1e-16
    base = draw(st.just(0.0) | st.floats(1e-200, 1.0))
    return {
        "scenario": "normalized",
        "grid": {"topology": "circle", "length": length, "n_points": n},
        "time": {"dt": dt, "t_end": steps * dt, "record_every": draw(st.integers(1, 25)),
                 "snapshots": [0.0, steps * dt]},
        "n_rank": n_rank,
        "initial": draw(positive_profiles(length)),
        "potential": {"family": "cosine_perturbed", "base": base,
                      "amplitude": draw(st.floats(-0.9, 0.9)) * base,
                      "mode": draw(st.integers(0, 4))},
        "t2_initial": draw(positive_profiles(length)),
    }


class TestNormalizedProperty:
    """Valid normalized runs exit 0, and scaling initial by a power of two c
    scales u by c bit for bit: sup_dev_scmix, rayleigh, |T|^2 and every other
    value not taken through a logarithm of u is bit-identical, while
    H = -n (log u)_y, and with it h_dev and conservation_drift, moves only by
    the roundoff of log(c*u) against log c + log u."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(raw=normalized_configs(), c=st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    def test_valid_configs_run_and_scale_with_the_initial_field(self, raw, c):
        runs = []
        with tempfile.TemporaryDirectory() as tmp:
            for name, scale in (("base", 1.0), ("scaled", c)):
                cfg, out = Path(tmp) / f"{name}.yaml", Path(tmp) / name
                initial = {key: scale * value if key in _LINEAR_PARAMS else value
                           for key, value in raw["initial"].items()}
                cfg.write_text(json.dumps({**raw, "initial": initial}))
                assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
                runs.append({p.name: _csv_columns(p) for p in sorted(out.glob("*.csv"))})
        base, scaled = runs
        assert base.keys() == scaled.keys()
        rows, first = base["trajectory.csv"], base["fields_0.000000.csv"]
        n, h = raw["n_rank"], raw["grid"]["length"] / raw["grid"]["n_points"]
        # sizes of the logarithms: u lies between its least initial value
        # (betaD >= 0) and its largest grown by exp(n * max betaD * t), and
        # log |T|^2 moves by at most 4 * t * max|Sc_mix - |T|^2 - Phi|
        t_end, beta = raw["time"]["t_end"], 2.0 * raw["potential"]["base"]
        log_u = max(np.max(np.abs(np.log(run["fields_0.000000.csv"]["u"]))) for run in runs)
        log_u += n * beta * t_end
        log_t2 = np.max(np.abs(np.log(first["T2"]))) + 4 * t_end * np.max(rows["sup_dev_scmix"])
        eps = np.finfo(float).eps
        bound_h = 4 * eps * n * log_u / h
        bounds = {"h_dev": bound_h, "conservation_drift": 4 * bound_h + 8 * eps * n * (
            2 * log_u + log_t2) / h}
        for name, columns in base.items():
            for key, values in columns.items():
                if key in ("u", "min_u"):
                    assert np.array_equal(scaled[name][key], c * values), (name, key)
                elif key == "H":
                    assert np.max(np.abs(scaled[name][key] - values)) <= bound_h, name
                elif key in bounds:
                    assert np.max(np.abs(scaled[name][key] - values)) <= bounds[key], key
                else:
                    assert np.array_equal(scaled[name][key], values), (name, key)


def _scaled_run(tmp: str, raw: dict, key: str, c: float) -> tuple[int, Path]:
    """Run raw with the linear parameters of its field family `key` times c,
    into tmp/<c>: the exit code and the output directory."""
    cfg, out = Path(tmp) / f"{c}.yaml", Path(tmp) / f"out_{c}"
    family = {name: c * value if name in _LINEAR_PARAMS else value
              for name, value in raw[key].items()}
    cfg.write_text(json.dumps({**raw, key: family}))
    return main(["run", str(cfg), "--out", str(out), "--quiet"]), out


@st.composite
def surface_configs(draw) -> dict:
    """A valid surface config: a positive profile on a circle or an interval
    of 8 to 128 points (an interval holds the profile's own ends), and 1 to 50
    steps of a dt with dt / h**2 <= 0.9."""
    topology = draw(st.sampled_from(["circle", "interval"]))
    n = draw(st.integers(8, 128))
    length = draw(st.sampled_from([1.0, 2 * math.pi, 7.5]))
    h = length / (n if topology == "circle" else n - 1)
    dt = draw(st.sampled_from([0.1, 0.25, 0.5, 0.9])) * h ** 2
    steps = draw(st.integers(1, 50))
    return {
        "scenario": "surface",
        "grid": {"topology": topology, "length": length, "n_points": n},
        "time": {"dt": dt, "t_end": steps * dt, "record_every": draw(st.integers(1, 25)),
                 "snapshots": sorted({0.0, draw(st.integers(0, steps)) * dt, steps * dt})},
        "initial": draw(positive_profiles(length)),
    }


class TestSurfaceProperty:
    """Valid surface runs exit 0, or 3 where the profile guard rejects a
    slope above 1; and scaling the initial profile by a power of two c <= 1,
    which scales an interval's held ends with it and keeps every slope the
    guard passed below 1, scales rho by c bit for bit.  k = -rho_x/rho,
    K = -rho_xx/rho, the conformal factor and every row column but min_rho
    (which scales by c) and arc_residual are then bit-identical.
    arc_residual measures the roundoff of rho_x^2 + (1 - rho_x^2) - 1 at the
    slope, which c changes, so it is bounded by that roundoff in both runs."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(raw=surface_configs(), c=st.sampled_from([0.25, 0.5]))
    def test_valid_configs_run_and_scale_with_the_profile(self, raw, c):
        with tempfile.TemporaryDirectory() as tmp:
            code, out = _scaled_run(tmp, raw, "initial", 1.0)
            summary = summary_sans_meta(out)
            if code == 3:
                # the guard names the slope it rejected
                assert summary["status"] == "failed"
                assert summary["error"]["type"] == "ProfileDegenerate"
                slope = re.match(r"profile slope \|rho_x\| = (\S+) exceeds 1",
                                 summary["error"]["message"])
                assert slope and float(slope[1]) > 1.0
                return
            assert code == 0 and summary["status"] == "ok"
            base = {p.name: _csv_columns(p) for p in sorted(out.glob("*.csv"))}
            code, out = _scaled_run(tmp, raw, "initial", c)
            assert code == 0
            scaled = {p.name: _csv_columns(p) for p in sorted(out.glob("*.csv"))}
            results = summary_sans_meta(out)["results"]
        assert base.keys() == scaled.keys()
        eps = np.finfo(float).eps
        for name, columns in base.items():
            for key, values in columns.items():
                if key in ("rho", "min_rho"):
                    assert np.array_equal(scaled[name][key], c * values), (name, key)
                elif key == "arc_residual":
                    assert max(np.max(values), np.max(scaled[name][key])) <= 4 * eps
                elif key != "h":  # the arclength of sqrt(1 - rho_x^2) has no scale
                    assert np.array_equal(scaled[name][key], values), (name, key)
        assert results.keys() == summary["results"].keys()
        for key, value in summary["results"].items():
            if key in ("min_rho_final", "limit_profile_dev"):
                assert results[key] == c * value, key
            elif key != "max_arc_residual":
                assert results[key] == value, key


@st.composite
def cole_hopf_configs(draw) -> dict:
    """A valid cole_hopf_check config: a smooth positive u0 (a constant, or a
    cosine of mode at most n/8 whose |amplitude| is at most half its base) on
    a circle of 8 to 128 points, a forcing of at most 2 in size and 1 to 50
    steps of a dt with nu * dt / h**2 <= 0.9, nu = n_rank.  The heat step's
    matrix stays positive definite (dt/2 * nu * max forcing <= 0.9 * h**2 < 1),
    and the explicit advection of H = -nu (log u)_y within its CFL limit
    (dt * max|H| / h <= 0.9 * h * 2 pi mode / length < 1)."""
    n = draw(st.integers(8, 128))
    length = draw(st.sampled_from([1.0, 2 * math.pi, 7.5]))
    n_rank = draw(st.integers(1, 3))
    dt = draw(st.sampled_from([0.1, 0.25, 0.5, 0.9])) * (length / n) ** 2 / n_rank
    steps = draw(st.integers(1, 50))
    base = draw(st.floats(0.1, 10.0))
    initial = ({"family": "constant", "value": base} if draw(st.booleans()) else
               {"family": "cosine_perturbed", "base": base,
                "amplitude": draw(st.floats(-0.5, 0.5)) * base,
                "mode": draw(st.integers(0, min(4, n // 8)))})
    return {
        "scenario": "cole_hopf_check",
        "grid": {"topology": "circle", "length": length, "n_points": n},
        "time": {"dt": dt, "t_end": steps * dt, "record_every": draw(st.integers(1, 25)),
                 "snapshots": [0.0, steps * dt]},
        "n_rank": n_rank,
        "initial": initial,
        "potential": {"family": "cosine_perturbed", "base": draw(st.floats(-1.0, 1.0)),
                      "amplitude": draw(st.floats(-1.0, 1.0)), "mode": draw(st.integers(0, 4))},
    }


class TestColeHopfProperty:
    """Valid cole_hopf_check runs exit 0, and scaling u0 by a power of two c
    scales the heat solution u by c bit for bit, while H = -nu (log u0)_y,
    the Burgers solution H_direct stepped from it, the transform
    H_transformed and their distance sup_diff move only by roundoff: of
    log(c*u) against log c + log u, over 2h, and of each step's arithmetic
    on an H that differs in its last bits."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(raw=cole_hopf_configs(), c=st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    def test_valid_configs_run_and_scale_with_the_initial_field(self, raw, c):
        runs = []
        with tempfile.TemporaryDirectory() as tmp:
            for scale in (1.0, c):
                code, out = _scaled_run(tmp, raw, "initial", scale)
                assert code == 0
                runs.append(({p.name: _csv_columns(p) for p in sorted(out.glob("*.csv"))},
                             summary_sans_meta(out)["results"]))
        (base, results), (scaled, scaled_results) = runs
        assert base.keys() == scaled.keys()
        eps, nu = np.finfo(float).eps, raw["n_rank"]
        h = raw["grid"]["length"] / raw["grid"]["n_points"]
        steps = round(raw["time"]["t_end"] / raw["time"]["dt"])
        first = [run[0]["fields_0.000000.csv"] for run in runs]
        log_size = max(np.max(np.abs(np.log(fields["u"]))) for fields in first)
        h_size = max(np.max(np.abs(fields["H_direct"])) for fields in first)
        bound = 4 * eps * (nu * log_size / h + steps * h_size)
        for name, columns in base.items():
            for key, values in columns.items():
                if key == "u":
                    assert np.array_equal(scaled[name][key], c * values), (name, key)
                elif key != "t":
                    assert np.max(np.abs(scaled[name][key] - values)) <= bound, (name, key)
        for key in ("max_sup_diff", "max_sup_diff_refined"):
            # the refined run steps twice as many steps on half the spacing
            assert abs(scaled_results[key] - results[key]) <= 4 * bound, key
        assert scaled_results["nu"] == results["nu"]
