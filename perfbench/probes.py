"""Isolated layer probes: one folflow call timed alone at fixed sizes.

Each probe reports the median over repeats.  Inputs are fixed smooth
fields, so the probes do not depend on the workload seed.
"""
from __future__ import annotations

import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from folflow.artifacts import write_fields
from folflow.fiber import ScalarField, VectorAlongFiber, build_grid
from folflow.parabolic import (
    PERIODIC,
    BurgersStepper,
    Dirichlet,
    HeatStepper,
    Scheme,
    StepperConfig,
)
from folflow.schrodinger import ground_state, spectrum

SIZES = (256, 1024, 4096)
SPECTRUM_SIZES = (256, 1024)  # dense eigh takes about 20 s at n = 4096
TOPOLOGIES = {"circle": 2.0 * np.pi, "interval": 1.0}


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _grid(topology: str, n: int):
    return build_grid(topology, TOPOLOGIES[topology], n)


def _profile(grid) -> np.ndarray:
    return 1.0 + 0.3 * np.sin(2.0 * np.pi * grid.x / grid.length)


def _config(grid, dt: float) -> StepperConfig:
    vals = _profile(grid)
    boundary = PERIODIC if grid.periodic else Dirichlet(float(vals[0]), float(vals[-1]))
    return StepperConfig(dt, 1.0, Scheme.CRANK_NICOLSON, boundary)


def _stepping(stepper, state, steps: int):
    def run():
        current = state
        for _ in range(steps):
            current = stepper.step(current)
    return run


def parabolic(steps: int = 100, repeats: int = 5) -> dict:
    out = {}
    for topology in TOPOLOGIES:
        for n in SIZES:
            grid = _grid(topology, n)
            cfg = _config(grid, 1e-4)
            u = ScalarField(grid, _profile(grid))
            potential = ScalarField(grid, 0.2 * np.cos(2.0 * np.pi * grid.x / grid.length))
            key = f"{topology}.n{n}"
            heat = HeatStepper(grid, potential, cfg)
            burgers = BurgersStepper(grid, potential, cfg)
            h = VectorAlongFiber(grid, 0.1 * np.sin(2.0 * np.pi * grid.x / grid.length))
            out[f"parabolic.heat_step_us.{key}"] = (
                1e6 * _median_time(_stepping(heat, u, steps), repeats) / steps, "us")
            out[f"parabolic.burgers_step_us.{key}"] = (
                1e6 * _median_time(_stepping(burgers, h, steps), repeats) / steps, "us")
            out[f"parabolic.stepper_init_ms.{key}"] = (
                1e3 * _median_time(lambda: HeatStepper(grid, potential, cfg), repeats), "ms")
    return out


def schrodinger(repeats: int = 3) -> dict:
    out = {}
    for n in SIZES:
        grid = _grid("circle", n)
        f = ScalarField(grid, 0.2 + 0.2 * np.cos(grid.x))
        out[f"schrodinger.ground_state_ms.circle.n{n}"] = (
            1e3 * _median_time(lambda: ground_state(f), repeats), "ms")
        if n in SPECTRUM_SIZES:
            out[f"schrodinger.spectrum12_ms.circle.n{n}"] = (
                1e3 * _median_time(lambda: spectrum(f, 12), repeats), "ms")
    return out


def artifacts(work_dir: Path, repeats: int = 5) -> dict:
    grid = _grid("circle", 4096)
    fields = {f"f{i}": _profile(grid) + 0.01 * i for i in range(5)}
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        path = Path(tmp) / "fields.csv"
        ms = 1e3 * _median_time(lambda: write_fields(path, grid.x, fields), repeats)
    return {"artifacts.write_fields_ms.n4096": (ms, "ms")}


def run_all(work_dir: Path) -> dict:
    return {**parabolic(), **schrodinger(), **artifacts(work_dir)}
