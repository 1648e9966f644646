"""Passes over a workload: every config through execute_config, outputs gated.

A call fails when it raises, when its summary.json misses a gate, or when
its CSVs or its summary.json (with `meta` dropped) differ from the first
pass over the same workload.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from folflow import cli, config

from .reference import block, rescale
from .workloads import Item

RECORDING_SCENARIOS = ("surface", "twisted", "normalized")


@dataclass
class Outcome:
    """What one pass produced: per-call fingerprints and failure reasons."""

    seconds: float
    fingerprints: dict
    failures: dict
    files: int = 0
    bytes: int = 0
    records: int = 0
    rescaled: float = 0.0


@dataclass
class Tally:
    """Calls attempted and failed over every pass of a run."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    reference: dict | None = None

    def add(self, outcome: Outcome):
        if self.reference is None:
            self.reference = outcome.fingerprints
        for name, fingerprint in outcome.fingerprints.items():
            self.attempted += 1
            reason = outcome.failures.get(name)
            if reason is None and fingerprint != self.reference.get(name):
                reason = "rerun is not byte-identical to the first pass"
            if reason is not None:
                self.failed += 1
                self.reasons.append(f"{name}: {reason}")


def parse(items: list[Item]) -> list:
    """RunConfigs for the items, through the program's own parser."""
    configs = []
    for item in items:
        cfg = config.parse_config_text(item.text, base_dir=item.base_dir)
        if item.seed_override is not None:
            cfg = replace(cfg, seed=item.seed_override)
        configs.append(cfg)
    return configs


def run_pass(items: list[Item], configs: list, out_root: Path, on_call=None,
             reference: str | None = None) -> Outcome:
    """One timed pass: run, write, gate and fingerprint every config.

    With `reference`, a kind of reference block (see reference.py), a block
    is timed before the first call and after each call, and `rescaled` is
    the pass's wall time rescaled by the mean block time.  Block time is
    not counted in `seconds`.
    """
    fingerprints, failures = {}, {}
    files = size = records = 0
    seconds = 0.0
    blocks = [block(reference)] if reference is not None else []
    for item, cfg in zip(items, configs):
        if on_call is not None:
            on_call(item)
        started = time.perf_counter()
        fingerprint, failure, stats = _run_one(item, cfg, out_root / item.name)
        elapsed = time.perf_counter() - started
        seconds += elapsed
        if reference is not None:
            blocks.append(block(reference))
        fingerprints[item.name] = fingerprint
        if failure is not None:
            failures[item.name] = failure
        files, size = files + stats[0], size + stats[1]
        if item.scenario in RECORDING_SCENARIOS:
            records += stats[2]
    shutil.rmtree(out_root, ignore_errors=True)
    rescaled = rescale(seconds, blocks, reference) if blocks else 0.0
    return Outcome(seconds, fingerprints, failures, files, size, records, rescaled)


def _run_one(item: Item, cfg, out_dir: Path):
    """Fingerprint, failure reason or None, and (files, bytes, rows) of one call."""
    try:
        cli.execute_config(cfg, out_dir, quiet=True)
    except Exception:  # a failed call is counted, the run goes on
        reason = traceback.format_exc(limit=1).strip().splitlines()[-1]
        return None, "raised " + reason, (0, 0, 0)
    fingerprint, results, stats = _read_outputs(out_dir)
    missed = [str(g) for g in item.gates if not g.holds(results)]
    return fingerprint, ("missed gate " + "; ".join(missed)) if missed else None, stats


def _read_outputs(out_dir: Path):
    digest = hashlib.sha256()
    files = size = rows = 0
    results = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        files, size = files + 1, size + len(data)
        if path.name == "summary.json":
            summary = json.loads(data)
            summary.pop("meta", None)
            results = summary.get("results", {}) if summary.get("status") == "ok" else {}
            data = json.dumps(summary, sort_keys=True).encode()
        elif path.name == "trajectory.csv":
            rows = data.count(b"\n") - 1
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest(), results, (files, size, rows)
