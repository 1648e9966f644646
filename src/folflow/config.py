"""Run configurations: a small YAML schema parsed fail-closed into dataclasses.

Unknown keys anywhere raise ParseError, and a section's keys are the fields
of the dataclass it fills; value constraints are checked all at once and
reported together in a single ValidationError.  The scenario names,
the top-level keys each scenario reads and its own constraints come from the
declarations in scenarios.SCENARIOS: a key that only other scenarios read is
one of the collected errors, and the config echo holds only the keys read.
A parsed RunConfig carries the grid and fields the run uses, built and checked once.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field, fields as spec_fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import yaml

from .artifacts import snapshot_name
from .errors import ParseError, ValidationError
from .families import FAMILY_PARAMS, build_field, family_rules
from .fiber import MIN_POINTS, FiberGrid, ScalarField, build_grid
from .parabolic import Dirichlet, record_steps
from .scenarios import (COMMON_KEYS, CONVERGED_DEV, EPS_T, GAP_MIN, RECORD_EVERY, SCENARIOS,
                        nearest_records)

# the field keys and the field each takes when the config leaves it out
_FIELD_DEFAULTS = {"initial": {"family": "constant", "value": 1.0},
                   "potential": {"family": "constant", "value": 0.0},
                   "t2_initial": {"family": "constant", "value": 1.0}}


@dataclass
class TimeSpec:
    dt: float
    t_end: float
    record_every: int
    snapshots: tuple


@dataclass
class BoundarySpec:
    kind: str
    left: float | None = None
    right: float | None = None


@dataclass
class FieldSpec:
    family: str
    params: dict


@dataclass
class ToleranceSpec:
    gap_min: float = GAP_MIN
    eps_t: float = EPS_T
    converged_dev: float = CONVERGED_DEV


@dataclass
class RunConfig:
    scenario: str
    grid: FiberGrid
    time: TimeSpec
    boundary: BoundarySpec
    initial: FieldSpec
    potential: FieldSpec
    t2_initial: FieldSpec
    n_rank: int
    base_values: tuple
    modes: int
    n_random: int
    seed: int
    output_dir: str
    emit_plots: bool
    tolerances: ToleranceSpec
    # the ScalarFields the scenario reads by key, built on grid from the specs
    # above and checked; equality and the echo go by the specs
    fields: dict = field(compare=False, repr=False)


_TOP_KEYS = {*COMMON_KEYS, *(key for s in SCENARIOS.values() for key in s.keys)}


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads YAML 1.2 floats, such as the 1e-05 of a JSON config
    echo, and rejects a key repeated in one mapping, which would hide the first."""

    def construct_mapping(self, node, deep=False):
        seen = set()  # of the scalar keys; a << merge's keys yield to the mapping's own
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise ParseError(f"duplicate key {key!r} (line {key_node.start_mark.line + 1})")
                seen.add(key)
        return super().construct_mapping(node, deep)


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+0123456789."),
)

# the value ranges _as_number checks, by the words of their error message
_RANGES = {"positive and finite": lambda v: v > 0.0 and np.isfinite(v),
           "nonnegative and finite": lambda v: v >= 0.0 and np.isfinite(v),
           "finite": np.isfinite}


def _require_mapping(obj, where: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(mapping: dict, allowed, where: str):
    unknown = sorted(set(mapping) - set(allowed), key=repr)  # YAML keys of any type
    if unknown:
        raise ParseError(f"unknown key(s) {unknown} in {where}")


def _section(raw: dict, name: str, spec, default=None) -> dict:
    """raw's section name, whose keys are fields of the dataclass spec; default
    when raw leaves it out, or with no default a ParseError."""
    if name not in raw and default is None:
        raise ParseError(f"configuration needs a '{name}' section")
    section = _require_mapping(raw.get(name, default), name)
    _reject_unknown(section, {f.name for f in spec_fields(spec)}, name)
    return section


def _field_spec(mapping, where: str, base_dir=None) -> FieldSpec:
    mapping = _require_mapping(mapping, where)
    if "family" not in mapping:
        raise ParseError(f"{where} needs a 'family' key")
    family = mapping["family"]
    params = {k: v for k, v in mapping.items() if k != "family"}
    broken = family_rules(family, params)
    if broken:
        if isinstance(family, str):  # a known family's other keys are unknown keys
            _reject_unknown(params, FAMILY_PARAMS.get(family, params), where)
        raise ValidationError(f"{where}: {broken[0]}")
    if family == "from_csv" and base_dir is not None:
        try:  # a NUL byte or a symlink loop is a path that names no file
            params = {"path": str((Path(base_dir) / str(params["path"])).resolve())}
        except (ValueError, OSError, RuntimeError) as err:
            raise ValidationError(f"{where}.path: {err}") from None
    return FieldSpec(family=family, params=params)


def _show_int(value: int) -> str:
    """An integer for a message: its digits, or past 30 of them their count."""
    digits = str(abs(value))  # YAML and int() parse at most 4,300 digits, as str prints
    return (str(value) if len(digits) <= 30 else
            f"a {'negative ' if value < 0 else ''}{len(digits)}-digit integer")


def _as_number(value, where: str, errs: list, need: str | None = None) -> float:
    """value as a float, or nan; one error if it is not a number or outside _RANGES[need]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errs.append(f"{where} must be a number, got {value!r}")
        return float("nan")
    if isinstance(value, int) and abs(value) > sys.float_info.max:  # no float holds it
        errs.append(f"{where} must be within the float range, got {_show_int(value)}")
        return float("nan")
    if need is not None and not _RANGES[need](float(value)):
        errs.append(f"{where} must be {need}, got {float(value)}")
    return float(value)


def _as_int(value, where: str, errs: list, least: int | None = None,
            bounded: bool = True) -> int | None:
    """value as an int, or None with one error if it is not an integer, is
    below least or, if bounded, is above 2**53, past which a float of it is
    inexact; a refused value is checked no further."""
    if isinstance(value, bool) or not isinstance(value, int):
        errs.append(f"{where} must be an integer, got {value!r}")
        return None
    if least is not None and value < least:
        errs.append(f"{where} must be at least {least}, got {_show_int(value)}")
        return None
    if bounded and value > 2 ** 53:
        errs.append(f"{where} must be at most 2**53, got {_show_int(value)}")
        return None
    return value


def parse_config(path) -> RunConfig:
    """Read and validate one YAML run configuration.

    Raises ParseError for malformed text or unknown keys, ValidationError
    (listing every violated constraint) for bad values.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    return parse_config_text(text, base_dir=path.parent)


def parse_config_text(text: str, base_dir=None) -> RunConfig:
    try:
        raw = yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError) as err:
        # ValueError: an integer of more digits than int() converts
        mark = getattr(err, "problem_mark", None)
        loc = f" (line {mark.line + 1})" if mark is not None else ""
        raise ParseError(f"invalid YAML{loc}: {err}") from err
    raw = _require_mapping(raw, "configuration")
    _reject_unknown(raw, _TOP_KEYS, "configuration")
    errs: list[str] = []
    scenario = raw.get("scenario")
    declared = SCENARIOS.get(scenario) if isinstance(scenario, str) else None
    if declared is None:
        errs.append(f"scenario must be one of {list(SCENARIOS)}, got {scenario!r}")
    # keys the scenario does not read are reported, not parsed: the run
    # takes their defaults, and the other checks still run
    reads = tuple(raw) if declared is None else COMMON_KEYS + declared.keys
    unread = [f"{key}: {scenario} does not read this key" for key in raw if key not in reads]
    raw = {key: value for key, value in raw.items() if key in reads}

    grid_map = _section(raw, "grid", FiberGrid)
    topology = grid_map.get("topology")
    if topology not in ("circle", "interval"):
        errs.append(f"grid.topology must be 'circle' or 'interval', got {topology!r}")
        topology = "circle"
    length = _as_number(grid_map.get("length", float("nan")), "grid.length", errs,
                        "positive and finite")
    n_points = _as_int(grid_map.get("n_points", 0), "grid.n_points", errs, MIN_POINTS)
    grid = build_grid(topology, length, n_points) if not errs else None
    # the stencils divide by h*h, and the default dt is a quarter of h**2
    if grid is not None and not 0.0 < grid.spacing * grid.spacing < np.inf:
        errs.append(f"grid: spacing {grid.spacing:g} squares to {grid.spacing * grid.spacing:g}, "
                    "out of the float range")
        grid = None

    time_map = _section(raw, "time", TimeSpec)
    t_end = _as_number(time_map.get("t_end", float("nan")), "time.t_end", errs,
                       "nonnegative and finite")
    dt = min(1e-3, 0.25 * grid.spacing ** 2) if grid is not None else 1e-3
    # a default that underflows to 0 is refused as a given 0 is
    dt = _as_number(time_map.get("dt", dt), "time.dt", errs, "positive and finite")
    record_every = _as_int(time_map.get("record_every", RECORD_EVERY), "time.record_every",
                           errs, 1)
    steps = None
    if (_RANGES["positive and finite"](dt) and _RANGES["nonnegative and finite"](t_end)
            and record_every is not None):
        try:  # the schedule the run records on
            steps = record_steps(dt, t_end, record_every)
        except ValueError as err:
            errs.append(f"time.{err}")
        except MemoryError as err:
            errs.append(f"time: the records of t_end = {t_end} in steps of dt = {dt} "
                        f"do not fit in memory ({err})")
    snaps_raw = time_map.get("snapshots", [0.0, t_end])
    if not isinstance(snaps_raw, list):
        errs.append("time.snapshots must be a list of times")
        snaps_raw = [0.0, t_end]
    snapshots = []
    for i, s in enumerate(snaps_raw):
        sv = _as_number(s, f"time.snapshots[{i}]", errs, "finite")
        if np.isfinite(sv):
            if not (0.0 <= sv <= t_end + 1e-12):
                errs.append(f"time.snapshots[{i}] = {sv} outside [0, t_end]")
            snapshots.append(sv)
    time_spec = TimeSpec(dt=dt, t_end=t_end, record_every=record_every,
                         snapshots=tuple(sorted(set(snapshots))))
    if steps is not None:
        errs += _snapshot_clashes(steps * dt, time_spec.snapshots)

    n_rank = _as_int(raw.get("n_rank", 1), "n_rank", errs, 1)
    modes = _as_int(raw.get("modes", 12), "modes", errs, 1)
    n_random = _as_int(raw.get("n_random", 25), "n_random", errs, 0)
    # numpy seeds from any nonnegative integer
    seed = _as_int(raw.get("seed", 0), "seed", errs, 0, bounded=False)
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir or "\0" in output_dir:
        errs.append(f"output_dir must be a nonempty string with no NUL byte, got {output_dir!r}")
    emit_plots = raw.get("emit_plots", False)
    if not isinstance(emit_plots, bool):
        errs.append(f"emit_plots must be true or false, got {emit_plots!r}")

    tol = ToleranceSpec()
    for key, value in _section(raw, "tolerances", ToleranceSpec, {}).items():
        setattr(tol, key, _as_number(value, f"tolerances.{key}", errs, "positive and finite"))

    specs = {which: _field_spec(raw.get(which, default), which, base_dir)
             for which, default in _FIELD_DEFAULTS.items()}
    # each field the scenario reads is built once, on the grid built above
    fields, field_errs = {}, []
    if grid is not None and declared is not None:
        for which, spec in specs.items():
            if which in declared.keys:
                # an integer parameter no float holds is named, as any key is
                unfit = []
                for key, value in spec.params.items():
                    if isinstance(value, int) and not isinstance(value, bool):
                        _as_number(value, f"{which}.{key}", unfit)
                if unfit:
                    field_errs += unfit
                    continue
                try:
                    fields[which] = build_field(grid, spec.family, spec.params)
                except (ValueError, OSError, MemoryError) as err:
                    field_errs.append(f"{which}: {err}")

    base_values_raw = raw.get("base_values", [0.4, 0.45, 0.5])
    if not isinstance(base_values_raw, list) or not base_values_raw:
        errs.append("base_values must be a nonempty list of positive numbers")
        base_values = (1.0,)
    else:
        base_values = tuple(_as_number(v, f"base_values[{i}]", errs, "positive and finite")
                            for i, v in enumerate(base_values_raw))

    boundary = _boundary_spec(raw, topology, fields.get("initial"), errs)

    cfg = RunConfig(
        scenario=scenario,
        grid=grid,
        time=time_spec,
        boundary=boundary,
        **specs,
        n_rank=n_rank,
        base_values=base_values,
        modes=modes,
        n_random=n_random,
        seed=seed,
        output_dir=output_dir,
        emit_plots=emit_plots,
        tolerances=tol,
        fields=fields,
    )
    errs += field_errs
    if grid is not None and declared is not None and not field_errs:
        with np.errstate(over="ignore", invalid="ignore"):  # a rule on huge values is no warning
            errs += declared.check(cfg, grid, fields)
    errs = unread + errs
    if errs:
        raise ValidationError("; ".join(errs))
    return cfg


def _snapshot_clashes(times: np.ndarray, wanted: tuple) -> list[str]:
    """An error for each snapshot file that records of two times, picked as
    the run picks them, would both write."""
    files: dict[str, list[float]] = {}
    for i in nearest_records(times, wanted):
        files.setdefault(snapshot_name(times[i]), []).append(times[i].item())
    return [f"time.snapshots: the records at t = {', '.join(map(repr, ts))} would all be "
            f"written to {name}" for name, ts in files.items() if len(ts) > 1]


def _boundary_spec(raw, topology: str, initial: ScalarField | None, errs) -> BoundarySpec:
    """The boundary that runs: periodic on a circle, else the initial field's
    ends, which a given boundary's kind and ends are checked against."""
    ends = (0.0, 0.0) if initial is None else (float(initial.values[0]), float(initial.values[-1]))
    if "boundary" in raw:
        bmap = _section(raw, "boundary", BoundarySpec)
        kind = bmap.get("kind")
        if kind not in ("periodic", "dirichlet"):
            errs.append(f"boundary.kind must be 'periodic' or 'dirichlet', got {kind!r}")
        elif kind == "periodic":
            if topology != "circle":
                errs.append("periodic boundary needs circle topology")
            if "left" in bmap or "right" in bmap:
                errs.append("periodic boundary takes no left/right values")
        else:
            if topology != "interval":
                errs.append("dirichlet boundary needs interval topology")
            left = _as_number(bmap.get("left", float("nan")), "boundary.left", errs, "finite")
            right = _as_number(bmap.get("right", float("nan")), "boundary.right", errs, "finite")
            if (initial is not None and np.isfinite((left, right)).all()
                    and Dirichlet(left, right).misses(initial.values)):
                errs.append(f"boundary: surface holds the initial profile's ends {ends} fixed, "
                            f"got left = {left}, right = {right}")
    if topology == "circle":
        return BoundarySpec(kind="periodic")
    return BoundarySpec(kind="dirichlet", left=ends[0], right=ends[1])


def check_seed(seed) -> int:
    """seed, checked as parsing checks a config's seed: an integer of at least 0."""
    errs: list[str] = []
    _as_int(seed, "seed", errs, 0, bounded=False)
    if errs:
        raise ValidationError(errs[0])
    return seed


# the benchmark's set-up probe and tracer bind these two names
def realize_grid(cfg: RunConfig) -> FiberGrid:
    return cfg.grid


def realize_field(cfg: RunConfig, which: str) -> ScalarField:
    """The parsed field for a key the scenario reads; any other built from its spec."""
    if which in cfg.fields:
        return cfg.fields[which]
    spec = getattr(cfg, which)
    return build_field(cfg.grid, spec.family, spec.params)


def _echo(value):
    """A config value as the echo writes it: specs as mappings, tuples as lists."""
    if isinstance(value, FieldSpec):
        return {"family": value.family, **value.params}
    if is_dataclass(value):
        # a periodic boundary's left and right are None and not echoed
        return {key: _echo(v) for key, v in vars(value).items() if v is not None}
    if isinstance(value, Enum):
        return value.value
    return list(value) if isinstance(value, tuple) else value


def config_to_dict(cfg: RunConfig) -> dict:
    """The config echo: the common keys and the keys cfg's scenario reads."""
    return {key: _echo(getattr(cfg, key)) for key in COMMON_KEYS + SCENARIOS[cfg.scenario].keys}
