"""Spans around the calls into each folflow module, recorded from outside it.

Each traced function is replaced, for the duration of `installed()`, by a
wrapper that records a span (name, start, end, parent span, config id) into
flat arrays kept in memory.  Only the public functions listed in TRACED are
wrapped, so private helpers stay inside their caller's span.  Fiber
operators are wrapped only as bound in scenarios, cli and colehopf: their
calls from the curvature monitors and the eigensolvers count as time of
those layers.
"""
from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

TRACED = {
    "config": ("parse_config", "parse_config_text", "realize_grid", "config_to_dict"),
    "families": ("build_field",),
    "fiber": ("derivative", "divergence", "laplacian", "integrate", "grad_log",
              "fourier_derivative"),
    "parabolic": ("HeatStepper.__init__", "HeatStepper.step",
                  "BurgersStepper.__init__", "BurgersStepper.step"),
    "schrodinger": ("ground_state", "spectrum"),
    "curvature": ("beta_D", "sc_mix_minus_T2", "riccati_residual", "conserved_quantity",
                  "surface_extrinsic_data"),
    "scenarios": ("run_surface_of_revolution", "run_twisted_product", "run_normalized_flow",
                  "linear_interpolant", "surface_evolution_crosscheck", "normalized_scmix",
                  "positivity_verdict", "fit_decay_rate"),
    "colehopf": ("velocity_from_potential_fn", "potential_from_velocity",
                 "roundtrip_residual"),
    "artifacts": ("write_trajectory", "write_fields", "write_summary", "write_plot_script"),
    "cli": ("execute_config",),
}
FIBER_CALLERS = ("scenarios", "cli", "colehopf")


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.configs: list[str] = []
        self.name_ids = array("i")
        self.config_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._config = -1

    def set_config(self, config_id: str):
        if config_id not in self.configs:
            self.configs.append(config_id)
        self._config = self.configs.index(config_id)

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_ids, config_ids, parents = self.name_ids, self.config_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            config_ids.append(self._config)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function; restore the originals on exit."""
        modules = {layer: importlib.import_module(f"folflow.{layer}") for layer in TRACED}
        patches = []
        try:
            for layer, names in TRACED.items():
                for qualname in names:
                    patches += self._patch(layer, qualname, modules)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _patch(self, layer, qualname, modules):
        home = modules[layer]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(f"{layer}.{qualname}", original))
            return [(cls, attr, original)]
        original = getattr(home, qualname)
        wrapper = self.wrap(f"{layer}.{qualname}", original)
        callers = FIBER_CALLERS if layer == "fiber" else modules
        patches = []
        for caller in callers:
            module = modules[caller]
            if module.__dict__.get(qualname) is original:
                setattr(module, qualname, wrapper)
                patches.append((module, qualname, original))
        return patches

    def span_count(self) -> int:
        return len(self.starts)

    def arrays(self, first: int = 0, last: int | None = None) -> dict:
        """Spans [first, last) as numpy columns, with self time per span."""
        last = self.span_count() if last is None else last

        def column(values, dtype):
            # slicing copies, so the live arrays stay free to grow
            return np.frombuffer(values[first:last], dtype=dtype)

        starts = column(self.starts, float)
        ends = column(self.ends, float)
        parents = column(self.parents, np.int32).astype(np.int64)
        duration = ends - starts
        own = duration.copy()
        inside = parents >= first
        np.subtract.at(own, parents[inside] - first, duration[inside])
        return {
            "name": column(self.name_ids, np.int32),
            "config": column(self.config_ids, np.int32),
            "parent": parents,
            "start": starts,
            "end": ends,
            "duration": duration,
            "self": own,
        }

    def save(self, path):
        cols = self.arrays()
        np.savez(path, names=np.array(self.names), configs=np.array(self.configs),
                 **{k: cols[k] for k in ("name", "config", "parent", "start", "end")})
