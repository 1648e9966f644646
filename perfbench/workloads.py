"""The benchmark's workloads: the configs each one sends through execute_config,
and the gates every run's summary.json must pass.

Generated configs are written as JSON text, which is valid YAML, so the
program receives them exactly as a user's file.  Every field parameter is
drawn from the workload seed, inside ranges where each gate holds.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
TWO_PI = 2.0 * math.pi

WORKLOADS = ("golden", "fine_grid", "record_heavy", "spectral")
# The reference block each workload's passes are rescaled by (reference.py):
# spectral spends its time in eigensolvers, the others in stepping and writing.
REFERENCE = {"golden": "mixed", "fine_grid": "mixed", "record_heavy": "mixed",
             "spectral": "eigen"}


@dataclass(frozen=True)
class Gate:
    """One check on summary.json: results[key...] <op> bound."""

    key: tuple
    op: str
    bound: object

    def holds(self, results: dict) -> bool:
        value = results
        for part in self.key:
            if not isinstance(value, dict) or part not in value:
                return False
            value = value[part]
        if self.op == "<=":
            return isinstance(value, (int, float)) and value <= self.bound
        if self.op == ">=":
            return isinstance(value, (int, float)) and value >= self.bound
        return value == self.bound

    def __str__(self):
        return f"{'.'.join(self.key)} {self.op} {self.bound}"


def _g(key: str, op: str, bound) -> Gate:
    return Gate(tuple(key.split(".")), op, bound)


# Acceptance-criteria tolerances at the shipped horizons.
GOLDEN_GATES = {
    "cole_hopf_check": [_g("max_sup_diff", "<=", 1e-3), _g("observed_order", ">=", 1.8)],
    "normalized": [
        _g("final_sup_dev_scmix", "<=", 1e-5),
        _g("positivity.converged", "==", True),
        _g("positivity.positive_everywhere", "==", True),
    ],
    "spectral_report": [_g("route_agreement", "<=", 1e-8), _g("min_bound_margin", ">=", 0.0)],
    "surface": [
        _g("limit_profile_dev", "<=", 1e-4),
        _g("max_arc_residual", "<=", 1e-8),
        _g("max_conformal_dev", "<=", 1e-4),
    ],
    "twisted": [_g("final_sup_dist_to_mean", "<=", 1e-6), _g("max_mass_drift", "<=", 1e-10)],
}

# Invariants that hold at any horizon, for the generated configs.
INVARIANT_GATES = {
    "cole_hopf_check": [_g("observed_order", ">=", 1.8)],
    "normalized": [_g("max_conservation_drift", "<=", 1e-6)],
    "spectral_report": [_g("route_agreement", "<=", 1e-8)],
    "surface": [_g("max_arc_residual", "<=", 1e-8)],
    "twisted": [_g("max_mass_drift", "<=", 1e-10)],
}


@dataclass
class Item:
    """One config of a workload: its YAML text and the gates its run must pass."""

    name: str
    scenario: str
    text: str
    base_dir: Path
    seed_override: int | None
    gates: list = field(default_factory=list)


def build(name: str, seed: int, tiny: bool = False) -> list[Item]:
    """The configs of workload `name` for `seed`; `tiny` shrinks grids and horizons."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "golden":
        return _golden(seed, tiny)
    if name == "fine_grid":
        return _fine_grid(rng, tiny)
    if name == "record_heavy":
        return _record_heavy(rng, tiny)
    return _spectral(rng, tiny)


def _golden(seed: int, tiny: bool) -> list[Item]:
    items = []
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        text = path.read_text()
        scenario = _scenario_of(text)
        gates = GOLDEN_GATES
        if tiny:
            text, gates = _shorten(text), INVARIANT_GATES
        items.append(Item(path.stem, scenario, text, path.parent, seed, list(gates[scenario])))
    return items


def _scenario_of(text: str) -> str:
    for line in text.splitlines():
        if line.startswith("scenario:"):
            return line.split(":", 1)[1].strip()
    raise ValueError("config names no scenario")


def _shorten(text: str) -> str:
    # Smoke-test form of a shipped config: twenty steps, ends recorded.
    import yaml

    raw = yaml.safe_load(text)
    time = raw["time"]
    if time.get("t_end", 0.0) > 0.0:
        dt = time["dt"]
        time["t_end"] = 20 * dt
        time["record_every"] = 5
        time["snapshots"] = [0.0, 20 * dt]
    return json.dumps(raw)


def _item(name: str, cfg: dict) -> Item:
    return Item(name, cfg["scenario"], json.dumps(cfg, indent=1), ROOT, None,
                list(INVARIANT_GATES[cfg["scenario"]]))


def _time(dt: float, steps: int, record_every: int, n_snapshots: int) -> dict:
    t_end = steps * dt
    snaps = [round(t_end * k / (n_snapshots - 1) / dt) * dt for k in range(n_snapshots)]
    return {"dt": dt, "t_end": t_end, "record_every": record_every, "snapshots": snaps}


def _cosine(rng, base: tuple, amplitude: tuple, modes: int) -> dict:
    return {
        "family": "cosine_perturbed",
        "base": float(rng.uniform(*base)),
        "amplitude": float(rng.uniform(*amplitude)),
        "mode": int(rng.integers(1, modes + 1)),
    }


def _surface_bump(rng) -> dict:
    left, right = float(rng.uniform(0.4, 0.6)), float(rng.uniform(0.6, 0.9))
    # |slope| <= |right - left| + pi * amplitude stays below 1
    return {"family": "linear_sine_bump", "left": left, "right": right,
            "amplitude": float(rng.uniform(0.03, 0.1)), "mode": 1}


def _normalized_fields(rng) -> dict:
    # A constant start and a one-wave potential keep the time-discretization
    # part of the conservation drift near 2e-7; a rough start or a second
    # potential mode pushes it toward the 1e-6 gate.
    return {
        "n_rank": int(rng.integers(1, 3)),
        "initial": {"family": "constant", "value": float(rng.uniform(0.5, 2.0))},
        "potential": _cosine(rng, (0.2, 0.4), (0.05, 0.2), 1),
        "t2_initial": {"family": "constant", "value": float(rng.uniform(4.0, 16.0))},
    }


def _twisted_fields(rng, slices: int) -> dict:
    return {
        "n_rank": int(rng.integers(1, 4)),
        "base_values": [float(v) for v in rng.uniform(0.3, 0.6, slices)],
        "initial": _cosine(rng, (0.8, 1.2), (0.1, 0.4), 3),
    }


def _fine_grid(rng, tiny: bool) -> list[Item]:
    n = 256 if tiny else 4096
    scale = 1 if tiny else 10
    bump = _surface_bump(rng)
    return [
        _item("normalized_circle", {
            "scenario": "normalized",
            "grid": {"topology": "circle", "length": TWO_PI, "n_points": n},
            # the conservation drift grows with steps * n_rank / spacing
            "time": _time(1e-3, scale * 40, scale * 20, 2),
            **_normalized_fields(rng),
        }),
        _item("twisted_16", {
            "scenario": "twisted",
            "grid": {"topology": "circle", "length": TWO_PI, "n_points": n},
            "time": _time(1e-3, scale * 20, scale * 10, 2),
            **_twisted_fields(rng, 16),
        }),
        _item("surface_interval", {
            "scenario": "surface",
            "grid": {"topology": "interval", "length": 1.0, "n_points": n + 1},
            "time": _time(1e-4, scale * 200, scale * 100, 2),
            "boundary": {"kind": "dirichlet", "left": bump["left"], "right": bump["right"]},
            "initial": bump,
        }),
        _item("cole_hopf", {
            "scenario": "cole_hopf_check",
            "grid": {"topology": "circle", "length": TWO_PI, "n_points": n // 2},
            "time": _time(1e-3, scale * 50, scale * 25, 2),
            "n_rank": int(rng.integers(1, 3)),
            "initial": _cosine(rng, (1.5, 2.5), (0.3, 1.0), 2),
            "potential": _cosine(rng, (0.1, 0.3), (0.1, 0.3), 2),
        }),
    ]


def _record_heavy(rng, tiny: bool) -> list[Item]:
    steps = 20 if tiny else 600
    bump = _surface_bump(rng)
    return [
        _item("normalized_every_step", {
            "scenario": "normalized",
            "grid": {"topology": "circle", "length": TWO_PI, "n_points": 256},
            "time": _time(1e-3, steps, 1, 11),
            **_normalized_fields(rng),
        }),
        _item("surface_every_step", {
            "scenario": "surface",
            "grid": {"topology": "interval", "length": 1.0, "n_points": 201},
            "time": _time(1e-4, steps, 1, 11),
            "boundary": {"kind": "dirichlet", "left": bump["left"], "right": bump["right"]},
            "initial": bump,
        }),
        _item("twisted_every_step", {
            "scenario": "twisted",
            "grid": {"topology": "circle", "length": TWO_PI, "n_points": 256},
            "time": _time(1e-3, steps, 1, 11),
            **_twisted_fields(rng, 3),
        }),
    ]


def _spectral(rng, tiny: bool) -> list[Item]:
    # Dense eigh on the circle takes about 1.6x longer when the potential's
    # mode is odd than when it is even, so every run holds one of each.
    n = 128 if tiny else 1024
    items = []
    for name, topology, length, modes in (("circle_odd", "circle", TWO_PI, (1, 3)),
                                          ("circle_even", "circle", TWO_PI, (2, 4)),
                                          ("interval", "interval", 1.0, (1, 2, 3, 4))):
        potential = _cosine(rng, (-0.5, 0.5), (0.1, 1.0), 1)
        potential["mode"] = int(rng.choice(modes))
        items.append(_item(f"spectral_{name}", {
            "scenario": "spectral_report",
            "grid": {"topology": topology, "length": length, "n_points": n},
            "time": {"dt": 1e-3, "t_end": 0.0},
            "modes": 12,
            "n_random": 5 if tiny else 25,
            "seed": int(rng.integers(0, 2**31 - 1)),
            "potential": potential,
        }))
    return items
