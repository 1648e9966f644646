"""Run-configuration parsing: fail-closed validation and round-trip fidelity."""
import dataclasses
import json
import re
import textwrap

import numpy as np
import pytest

from folflow.errors import ParseError, ValidationError
from folflow.config import (
    config_to_dict,
    parse_config,
    parse_config_text,
    realize_field,
    realize_grid,
)
from folflow.families import build_field, family_rules
from folflow.fiber import MIN_POINTS, ScalarField, build_grid
from folflow.parabolic import Dirichlet, HeatStepper, StepperConfig
from folflow.schrodinger import spectrum


GOOD = textwrap.dedent("""\
    scenario: normalized
    grid:
      topology: circle
      length: 6.283185307179586
      n_points: 128
    time:
      dt: 0.001
      t_end: 1.0
      record_every: 20
    n_rank: 2
    initial:
      family: constant
      value: 1.0
    potential:
      family: cosine_perturbed
      base: 0.2
      amplitude: 0.2
      mode: 1
    t2_initial:
      family: constant
      value: 16.0
""")


class TestParsing:
    def test_minimal_valid_config(self):
        cfg = parse_config_text(GOOD)
        assert cfg.scenario == "normalized"
        assert cfg.grid.n_points == 128
        assert cfg.time.dt == 0.001
        assert cfg.boundary.kind == "periodic"
        assert cfg.potential.family == "cosine_perturbed"
        # unset sections fall back to documented defaults
        assert cfg.seed == 0
        assert cfg.emit_plots is False
        assert cfg.tolerances.eps_t == 1e-8

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ParseError, match="unknown"):
            parse_config_text(GOOD + "betaD_spelling: 1\n")

    def test_unknown_nested_key_rejected(self):
        bad = GOOD.replace("  record_every: 20", "  record_every: 20\n  cadence: 5")
        with pytest.raises(ParseError, match="cadence"):
            parse_config_text(bad)

    @pytest.mark.parametrize("where", ["configuration", "grid"])
    def test_unknown_keys_of_mixed_types_rejected(self, where):
        # YAML keys need not be strings, nor of one type: they are listed by repr
        text = (GOOD + "1: a\nfoo: b\n" if where == "configuration" else
                GOOD.replace("  n_points: 128", "  n_points: 128\n  1: a\n  foo: b"))
        with pytest.raises(ParseError) as exc:
            parse_config_text(text)
        assert str(exc.value) == f"unknown key(s) ['foo', 1] in {where}"

    def test_repeated_top_level_key_rejected_with_its_line(self):
        # a second n_rank would otherwise silently replace the first
        with pytest.raises(ParseError, match=r"^duplicate key 'n_rank' \(line 22\)$"):
            parse_config_text(GOOD + "n_rank: 7\n")

    def test_repeated_nested_key_rejected_with_its_line(self):
        bad = GOOD.replace("  n_points: 128", "  n_points: 128\n  n_points: 8")
        with pytest.raises(ParseError, match=r"^duplicate key 'n_points' \(line 6\)$"):
            parse_config_text(bad)
        flow = "grid: {topology: circle, length: 6.283185307179586, n_points: 64, n_points: 8}"
        with pytest.raises(ParseError, match=r"^duplicate key 'n_points' \(line 2\)$"):
            parse_config_text(f"scenario: twisted\n{flow}\ntime: {{dt: 0.001, t_end: 0.01}}\n")

    def test_merge_key_values_yield_to_the_mappings_own(self):
        # a << merge is not a repeated key, so the YAML override rule stands
        text = GOOD.replace("t2_initial:\n  family: constant",
                            "t2_initial:\n  <<: {family: constant, value: 2.0}")
        assert parse_config_text(text).t2_initial.params == {"value": 16.0}

    def test_negative_seed_rejected(self):
        text = "scenario: spectral_report\ngrid: {topology: circle, length: 1.0, n_points: 16}\n"
        with pytest.raises(ValidationError, match=r"seed must be at least 0, got -1"):
            parse_config_text(text + "time: {dt: 0.001, t_end: 0.0}\nmodes: 2\nseed: -1\n")

    def test_invalid_yaml_reports_location(self):
        with pytest.raises(ParseError, match="invalid YAML"):
            parse_config_text("scenario: [unclosed\n")

    def test_non_mapping_document_rejected(self):
        with pytest.raises(ParseError):
            parse_config_text("- a\n- b\n")

    def test_missing_sections_rejected(self):
        with pytest.raises(ParseError, match="grid"):
            parse_config_text("scenario: normalized\ntime: {dt: 0.001, t_end: 1.0}\n")
        with pytest.raises(ParseError, match="time"):
            parse_config_text(
                "scenario: normalized\ngrid: {topology: circle, length: 6.28, n_points: 64}\n"
            )

    def test_errors_are_collected_not_first_only(self):
        bad = GOOD.replace("topology: circle", "topology: sphere")
        bad = bad.replace("dt: 0.001", "dt: -1.0")
        with pytest.raises(ValidationError) as exc:
            parse_config_text(bad)
        msg = str(exc.value)
        assert "topology" in msg and "dt" in msg

    def test_grid_and_modes_floors_are_the_solvers_own(self):
        # the parser refuses n_points below fiber.MIN_POINTS and modes by
        # schrodinger.spectrum_rules, the rule spectrum raises unprefixed
        with pytest.raises(ValidationError) as exc:
            parse_config_text(GOOD.replace("n_points: 128", f"n_points: {MIN_POINTS - 1}"))
        assert str(exc.value) == f"grid.n_points must be at least 8, got {MIN_POINTS - 1}"
        with pytest.raises(ValidationError) as exc:
            parse_config_text("scenario: spectral_report\ntime: {t_end: 0.0}\nmodes: 9\n"
                              "grid: {topology: interval, length: 1.0, n_points: 10}\n")
        assert str(exc.value) == "spectral_report: modes must be between 1 and 8, got 9"
        with pytest.raises(ValueError, match="^modes must be between 1 and 8, got 9$"):
            spectrum(ScalarField(build_grid("interval", 1.0, 10), np.zeros(10)), 9)

    def test_bad_tolerances_reported_in_file_order(self):
        # in the order written, not in an order that varies with string hashing
        bad = GOOD + "tolerances: {converged_dev: -1.0, gap_min: 0.0, eps_t: .nan}\n"
        with pytest.raises(ValidationError) as exc:
            parse_config_text(bad)
        assert str(exc.value) == "; ".join(f"tolerances.{key} must be positive and finite, got {v}"
                                           for key, v in (("converged_dev", -1.0),
                                                          ("gap_min", 0.0), ("eps_t", "nan")))

    def test_horizon_must_be_whole_steps(self):
        bad = GOOD.replace("t_end: 1.0", "t_end: 1.0005")
        with pytest.raises(ValidationError, match="whole number"):
            parse_config_text(bad)

    def test_scenario_field_constraints_checked(self):
        bad = GOOD.replace("value: 1.0", "value: -1.0", 1)
        with pytest.raises(ValidationError, match="positive"):
            parse_config_text(bad)
        bad2 = GOOD.replace("base: 0.2", "base: -0.5")
        with pytest.raises(ValidationError, match="nonnegative"):
            parse_config_text(bad2)

    def test_field_family_parameters_fail_closed(self):
        bad = GOOD.replace("value: 16.0", "value: 16.0\n      widht: 1.0")
        with pytest.raises(ParseError, match="widht"):
            parse_config_text(bad)
        missing = GOOD.replace("  value: 16.0\n", "")
        with pytest.raises(ValidationError, match="missing"):
            parse_config_text(missing)

    def test_twisted_requires_circle(self):
        bad = GOOD.replace("scenario: normalized", "scenario: twisted")
        bad = bad.replace("topology: circle", "topology: interval")
        bad = bad[:bad.index("potential:")]
        with pytest.raises(ValidationError, match="circle"):
            parse_config_text(bad)

    def test_keys_the_scenario_does_not_read_are_collected_errors(self):
        # twisted reads neither potential nor t2_initial; naming them does
        # not stop the grid and field checks that follow
        bad = GOOD.replace("scenario: normalized", "scenario: twisted")
        bad = bad.replace("topology: circle", "topology: interval")
        with pytest.raises(ValidationError) as exc:
            parse_config_text(bad)
        msg = str(exc.value)
        assert msg.startswith("potential: twisted does not read this key")
        assert "t2_initial: twisted does not read this key" in msg
        assert "twisted: needs circle topology" in msg

    def test_scheme_is_not_a_key(self):
        with pytest.raises(ParseError, match="scheme"):
            parse_config_text(GOOD + "scheme: crank_nicolson\n")

    def test_boundary_defaults_from_initial_on_interval(self):
        text = textwrap.dedent("""\
            scenario: surface
            grid: {topology: interval, length: 1.0, n_points: 101}
            time: {dt: 0.0001, t_end: 0.01}
            initial: {family: linear_sine_bump, left: 0.5, right: 0.8,
                      amplitude: 0.1, mode: 1}
        """)
        cfg = parse_config_text(text)
        assert cfg.boundary.kind == "dirichlet"
        assert cfg.boundary.left == pytest.approx(0.5)
        assert cfg.boundary.right == pytest.approx(0.8)

    @pytest.mark.parametrize("share", [None, 0.0, 0.5, 2.0])
    def test_given_ends_are_checked_as_a_stepper_checks_a_state(self, share):
        # a left end off the profile's by share * 1e-9 * (1 + max|rho|), or
        # none given: the parser accepts it exactly when HeatStepper takes the
        # profile as its state, and the config holds the profile's own ends
        params = {"left": 0.5, "right": 0.8, "amplitude": 0.1, "mode": 1}
        grid = build_grid("interval", 1.0, 101)
        rho = build_field(grid, "linear_sine_bump", params).values.tolist()
        text = textwrap.dedent("""\
            scenario: surface
            grid: {topology: interval, length: 1.0, n_points: 101}
            time: {dt: 0.0001, t_end: 0.01}
            initial: {family: linear_sine_bump, left: 0.5, right: 0.8, amplitude: 0.1, mode: 1}
        """)
        if share is not None:
            left = rho[0] + share * 1e-9 * (1.0 + max(map(abs, rho)))
            text += f"boundary: {{kind: dirichlet, left: {left!r}, right: {rho[-1]!r}}}\n"
            stepper = HeatStepper(grid, None, StepperConfig(1e-4, boundary=Dirichlet(left, rho[-1])))
            try:
                stepper.start(np.array(rho))
            except ValueError:
                with pytest.raises(ValidationError, match="^boundary: surface holds the initial "):
                    parse_config_text(text)
                assert share > 1.0
                return
            assert share <= 1.0
        cfg = parse_config_text(text)
        assert (cfg.boundary.kind, cfg.boundary.left, cfg.boundary.right) == (
            "dirichlet", rho[0], rho[-1])
        assert config_to_dict(cfg)["boundary"] == {"kind": "dirichlet", "left": rho[0],
                                                   "right": rho[-1]}

    def test_periodic_boundary_on_interval_rejected(self):
        text = textwrap.dedent("""\
            scenario: surface
            grid: {topology: interval, length: 1.0, n_points: 101}
            time: {dt: 0.0001, t_end: 0.01}
            boundary: {kind: periodic}
            initial: {family: constant, value: 1.0}
        """)
        with pytest.raises(ValidationError, match="circle"):
            parse_config_text(text)


class TestRoundTrip:
    def test_floats_without_a_decimal_point_are_numbers(self):
        # YAML 1.2 floats: Python's repr writes small values as 1e-05, so the
        # JSON config echo holds floats in that form
        cfg = parse_config_text(GOOD.replace("dt: 0.001", "dt: 1e-04")
                                .replace("t_end: 1.0", "t_end: 1.0e-2"))
        assert (cfg.time.dt, cfg.time.t_end) == (1e-4, 1e-2)
        assert json.dumps(config_to_dict(cfg)["tolerances"]["eps_t"]) == "1e-08"

    @pytest.mark.parametrize("old, new, message", [
        ("dt: 0.001", "dt: '1e-04'", "time.dt must be a number, got '1e-04'"),
        ("n_points: 128", "n_points: many", "grid.n_points must be an integer, got 'many'"),
    ])
    def test_non_number_reported_once(self, old, new, message):
        with pytest.raises(ValidationError) as exc:
            parse_config_text(GOOD.replace(old, new))
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    def test_non_finite_snapshot_time_rejected(self, value):
        bad = GOOD.replace("record_every: 20", f"record_every: 20\n  snapshots: [0.5, {value}]")
        with pytest.raises(ValidationError) as exc:
            parse_config_text(bad)
        assert str(exc.value).startswith("time.snapshots[1] must be finite, got ")

    def test_parse_serialize_parse_is_identity(self):
        cfg = parse_config_text(GOOD)
        again = parse_config_text(json.dumps(config_to_dict(cfg)))
        assert again == cfg

    def test_round_trip_with_all_sections(self):
        # every top-level key, each under a scenario that reads it
        circle = "grid: {topology: circle, length: 6.283185307179586, n_points: 64}\n"
        steps = "time: {dt: 0.001, t_end: 0.5, record_every: 100, snapshots: [0.0, 0.25, 0.5]}\n"
        texts = [
            textwrap.dedent("""\
                scenario: surface
                grid: {topology: interval, length: 1.0, n_points: 201}
                time: {dt: 0.0001, t_end: 0.5, record_every: 100, snapshots: [0.0, 0.25, 0.5]}
                boundary: {kind: dirichlet, left: 0.5, right: 0.8}
                initial: {family: linear_sine_bump, left: 0.5, right: 0.8,
                          amplitude: 0.1, mode: 1}
            """),
            "scenario: twisted\n" + circle + steps + "base_values: [0.4, 0.45, 0.5]\nn_rank: 3\n",
            GOOD + "tolerances: {gap_min: 1.0e-6, eps_t: 1.0e-8, converged_dev: 1.0e-5}\n",
            "scenario: spectral_report\n" + circle + textwrap.dedent("""\
                time: {dt: 0.001, t_end: 0.0}
                potential: {family: constant, value: 0.5}
                modes: 12
                n_random: 25
                seed: 11
            """),
        ]
        for text in texts:
            cfg = parse_config_text(text + "output_dir: out/run\nemit_plots: true\n")
            again = parse_config_text(json.dumps(config_to_dict(cfg)))
            assert again == cfg


class TestRealization:
    def test_realize_grid_and_fields(self):
        cfg = parse_config_text(GOOD)
        grid = realize_grid(cfg)
        assert grid is cfg.grid and grid.n_points == 128 and grid.periodic
        pot = realize_field(cfg, "potential")
        assert pot is cfg.fields["potential"]
        np.testing.assert_allclose(pot.values, 0.2 * (1.0 + np.cos(grid.x)), atol=1e-12)

    def test_config_carries_the_fields_its_scenario_reads(self):
        cfg = parse_config_text(GOOD)
        assert sorted(cfg.fields) == ["initial", "potential", "t2_initial"]
        assert all(f.grid == cfg.grid for f in cfg.fields.values())
        # a seed override keeps them, and equality goes by the specs alone
        again = dataclasses.replace(cfg, seed=5)
        assert again.fields is cfg.fields and again.grid is cfg.grid
        assert dataclasses.replace(again, seed=0, fields={}) == cfg
        spectral = parse_config_text(GOOD.replace("scenario: normalized",
                                                  "scenario: spectral_report").replace(
            "t_end: 1.0", "t_end: 0.0").replace("n_rank: 2\n", "").replace(
            "t2_initial:\n  family: constant\n  value: 16.0\n", "").replace(
            "initial:\n  family: constant\n  value: 1.0\n", ""))
        assert list(spectral.fields) == ["potential"]

    def test_parse_config_reads_files(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(GOOD)
        cfg = parse_config(path)
        assert cfg.scenario == "normalized"

    def test_a_file_that_is_not_text_is_a_parse_error(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_bytes(b"scenario: normalized\n\xff\xfe: 1\n")
        with pytest.raises(ParseError, match=f"^cannot read {re.escape(str(path))}: "):
            parse_config(path)

    def test_csv_field_paths_resolve_relative_to_config(self, tmp_path):
        grid = build_grid("circle", 2 * np.pi, 16)
        rows = "\n".join(f"{float(x)!r},{float(2.0 + np.cos(x))!r}" for x in grid.x)
        (tmp_path / "field.csv").write_text("x,value\n" + rows + "\n")
        text = GOOD.replace(
            "initial:\n  family: constant\n  value: 1.0",
            "initial:\n  family: from_csv\n  path: field.csv",
        ).replace("n_points: 128", "n_points: 16")
        path = tmp_path / "run.yaml"
        path.write_text(text)
        cfg = parse_config(path)
        vals = realize_field(cfg, "initial").values
        np.testing.assert_allclose(vals, 2.0 + np.cos(grid.x), atol=1e-12)

    def test_csv_path_in_a_symlink_loop_is_refused_naming_its_key(self, tmp_path):
        # resolving the path, or else opening it, fails: either way the
        # parser refuses it as a value of the initial key, not a traceback
        (tmp_path / "a").symlink_to(tmp_path / "b")
        (tmp_path / "b").symlink_to(tmp_path / "a")
        path = tmp_path / "run.yaml"
        path.write_text(GOOD.replace("initial:\n  family: constant\n  value: 1.0",
                                     "initial:\n  family: from_csv\n  path: a"))
        with pytest.raises(ValidationError, match=r"^initial(\.path)?: "):
            parse_config(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_csv_non_finite_value_names_its_file_and_line(self, tmp_path, cell):
        grid = build_grid("circle", 2 * np.pi, 8)
        rows = [f"{float(x)!r},{float(2.0 + np.cos(x))!r}" for x in grid.x]
        rows[2] = f"{float(grid.x[2])!r},{cell}"
        path = tmp_path / "field.csv"
        path.write_text("x,value\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError) as exc:
            build_field(grid, "from_csv", {"path": str(path)})
        assert str(exc.value) == f"{path}, line 4: value = {float(cell)} is not finite"


class TestFieldFamilies:
    def test_each_family_evaluates(self):
        g = build_grid("circle", 2 * np.pi, 32)
        assert np.all(build_field(g, "constant", {"value": 2.0}).values == 2.0)
        lin = build_field(g, "linear", {"a": 1.0, "b": 0.5})
        np.testing.assert_allclose(lin.values, 1.0 + 0.5 * g.x)
        cos = build_field(g, "cosine_perturbed", {"base": 1.0, "amplitude": 0.3, "mode": 2})
        np.testing.assert_allclose(cos.values, 1.0 + 0.3 * np.cos(2 * g.x), atol=1e-12)
        bump = build_field(g, "gaussian_bump", {"center": np.pi, "width": 0.5, "height": 2.0})
        assert np.argmax(bump.values) == 16

    def test_linear_sine_bump_interpolates_endpoints(self):
        g = build_grid("interval", 1.0, 101)
        f = build_field(g, "linear_sine_bump",
                        {"left": 0.5, "right": 0.8, "amplitude": 0.1, "mode": 1})
        assert f.values[0] == pytest.approx(0.5)
        assert f.values[-1] == pytest.approx(0.8)

    @pytest.mark.parametrize("family", ["parabola", ["constant"], "constant"])
    def test_build_field_raises_the_family_rule_the_parser_prefixes(self, family):
        # an unknown family, one that is not a string, and a missing parameter
        g = build_grid("circle", 2 * np.pi, 32)
        (message,) = family_rules(family, {})
        with pytest.raises(ValueError) as exc:
            build_field(g, family, {})
        assert str(exc.value) == message
        with pytest.raises(ValidationError) as exc:
            parse_config_text(GOOD.replace("initial:\n  family: constant\n  value: 1.0\n",
                                           f"initial: {{family: {family}}}\n"))
        assert str(exc.value) == f"initial: {message}"

    def test_build_field_names_parameters_of_any_key_type(self):
        # the parser refuses such keys as unknown keys; build_field, called
        # directly, names them with the missing ones
        g = build_grid("circle", 2 * np.pi, 32)
        with pytest.raises(ValueError) as exc:
            build_field(g, "linear", {"a": 1.0, 2: "x", "c": 3.0})
        assert str(exc.value) == ("family 'linear' is missing parameter(s) ['b']; "
                                  "family 'linear' takes no parameter(s) ['c', 2]")

    def test_unknown_family_and_params_rejected(self):
        g = build_grid("circle", 2 * np.pi, 32)
        with pytest.raises(ValueError):
            build_field(g, "parabola", {})
        with pytest.raises(ValueError):
            build_field(g, "constant", {"value": 1.0, "extra": 2.0})
        with pytest.raises(ValueError):
            build_field(g, "gaussian_bump", {"center": 0.0, "width": -1.0, "height": 1.0})
