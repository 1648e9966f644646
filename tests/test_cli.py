"""Command-line interface: exit codes, artifacts, determinism, sweep."""
import ast
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from folflow.cli import main
from folflow.config import parse_config_text
from folflow.errors import ValidationError

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


# normalized with explicit Euler under a potential of 400: u grows like
# exp(400 t) and its Rayleigh quotient overflows near t = 1
OVERFLOW_RUN = textwrap.dedent("""\
    scenario: normalized
    grid: {topology: circle, length: 6.283185307179586, n_points: 64}
    time: {dt: 0.001, t_end: 2.0}
    scheme: explicit_euler
    potential: {family: constant, value: 400.0}
""")

# one short run per scenario, for checking the catalog against the artifacts
SHORT_RUNS = {
    "surface": DEGENERATE_RUN.replace("linear, a: 1.0, b: 1.2",
                                      "linear_sine_bump, left: 0.5, right: 0.8, "
                                      "amplitude: 0.1, mode: 1"),
    "twisted": FAST_RUN.replace("cole_hopf_check", "twisted"),
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


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "folflow.cli", *args],
                          capture_output=True, text=True)


def summary_sans_meta(path: Path) -> dict:
    payload = json.loads((path / "summary.json").read_text())
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

    def test_config_error_exits_2_with_json(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(FAST_RUN + "typo_key: 1\n")
        proc = run_cli("run", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "ParseError"

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
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "NonFiniteValue"
        assert "failure at t = " in err["error"]["message"]
        payload = summary_sans_meta(out)
        assert payload["status"] == "failed"
        assert payload["error"] == err["error"]

    @pytest.mark.parametrize("key", ["scheme", "boundary"])
    def test_values_contradicting_the_run_exit_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.yaml"
        cfg.write_text({
            # cole_hopf_check always steps by Crank-Nicolson
            "scheme": FAST_RUN + "scheme: explicit_euler\n",
            # a surface profile keeps its own end radii, 0.5 and 0.8 here
            "boundary": SHORT_RUNS["surface"]
            + "boundary: {kind: dirichlet, left: 0.1, right: 0.2}\n",
        }[key])
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert err["error"]["message"].startswith(f"{key}: ")
        assert not (tmp_path / "out").exists()

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


def catalog_columns(text: str) -> dict:
    """Scenario name -> trajectory columns, as `folflow list` prints them."""
    columns, name = {}, None
    for line in text.splitlines()[1:]:
        if line and not line.startswith(" "):
            name = line
        found = re.search(r"trajectory\((.*)\)", line)
        if found:
            columns[name] = found.group(1).split(", ")
    return columns


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
        listed = list(catalog_columns(capsys.readouterr().out))
        with pytest.raises(ValidationError) as exc:
            parse_config_text(FAST_RUN.replace("cole_hopf_check", "no_such_scenario"))
        accepted = re.search(r"scenario must be one of (\[.*?\])", str(exc.value))
        assert listed == ast.literal_eval(accepted.group(1))

    def test_catalog_columns_match_trajectory_header(self, tmp_path, capsys):
        main(["list"])
        listed = catalog_columns(capsys.readouterr().out)
        assert set(listed) == set(SHORT_RUNS)
        for name, text in SHORT_RUNS.items():
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(text)
            out = tmp_path / name
            assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0, name
            header = (out / "trajectory.csv").read_text().splitlines()[0]
            assert header.split(",") == listed[name], name

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
