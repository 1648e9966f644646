"""Command-line entry points: folflow run / list / sweep.

Exit codes: 0 on success, 2 for configuration errors, 3 for numerical
failures (which still flush a summary.json with a failed status marker).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .artifacts import (
    shared_columns,
    snapshot_name,
    write_fields,
    write_plot_script,
    write_summary,
    write_trajectory,
)
from .config import RunConfig, check_seed, config_to_dict, parse_config
from .errors import FolflowError, ParseError, ValidationError
from .fiber import grad_log  # noqa: F401  perfbench's traced-run test checks this binding
from .scenarios import COMMON_KEYS, SCENARIOS


def list_scenarios() -> str:
    """The scenario catalog, rendered from the scenario declarations."""

    def block(label: str, lines) -> list[str]:
        return [f"  {label if i == 0 else '':<10} {line}" for i, line in enumerate(lines)]

    out = ["available scenarios"]
    for s in SCENARIOS.values():
        out += ["", s.name, *(f"  {line}" for line in s.about)]
        out += block("equations:", s.equations)
        out += block("keys:", [", ".join(COMMON_KEYS + s.keys)])
        out += block("artifacts:", [f"trajectory({', '.join(s.columns)})",
                                    f"fields({', '.join(s.fields)})"])
    return "\n".join(out) + "\n"


def execute_config(cfg: RunConfig, out_dir: Path, quiet: bool = False) -> Path:
    """Run one parsed configuration on its grid and fields, writing its artifacts into out_dir.

    On a numerical failure the exception propagates after a summary.json
    with status 'failed' has been flushed.  Overflow and division by zero
    inside the run are not warned about: a non-finite result raises
    NonFiniteValue instead.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = SCENARIOS[cfg.scenario]
    started = time.perf_counter()
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            traj, summary = scenario.run(cfg, cfg.grid, cfg.fields)
    except FolflowError as err:
        write_summary(out_dir / "summary.json", {
            "status": "failed",
            "config": config_to_dict(cfg),
            "error": {"type": type(err).__name__, "message": str(err)},
            "meta": {"wall_clock_s": time.perf_counter() - started},
        })
        raise
    write_trajectory(out_dir / "trajectory.csv", scenario.columns, traj.series)
    snapshots = {t: {"x": cfg.grid.x, **values} for t, values in traj.snapshots.items()}
    shared = shared_columns(list(snapshots.values()))  # formatted once, for every file
    for t, values in snapshots.items():
        columns = {**values, **shared}
        write_fields(out_dir / snapshot_name(t), columns.pop("x"), columns)
    write_summary(out_dir / "summary.json", {
        "status": "ok",
        "config": config_to_dict(cfg),
        "results": summary,
        "meta": {"wall_clock_s": time.perf_counter() - started},
    })
    if cfg.emit_plots:
        write_plot_script(out_dir / "plot.gp", cfg.scenario, scenario.plot_column)
    if not quiet:
        print(f"{cfg.scenario}: wrote {out_dir}")
    return out_dir


def _error_json(err: Exception) -> str:
    return json.dumps(
        {"error": {"type": type(err).__name__, "message": str(err)}}, sort_keys=True
    )


def _make_dir(path: Path):
    """Create the output directory path, or raise a ValidationError naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ValidationError(f"cannot create output directory {path}: {err.strerror}") from err


def _run_one(path, out, seed, quiet: bool):
    """Parse, apply the seed override and execute: (exit code, error or None)."""
    try:
        cfg = parse_config(path)
        if seed is not None:
            cfg = dataclasses.replace(cfg, seed=check_seed(seed))
        out_dir = Path(out or cfg.output_dir)
        _make_dir(out_dir)
    except (ParseError, ValidationError) as err:
        return 2, err
    try:
        execute_config(cfg, out_dir, quiet=quiet)
    except FolflowError as err:
        return 3, err
    except OSError as err:  # an artifact path that cannot be written, say a directory
        return 2, ValidationError(f"cannot write {err.filename or out_dir}: {err.strerror}")
    return 0, None


def _run_command(args) -> int:
    code, err = _run_one(args.config, args.out, args.seed, args.quiet)
    if err is not None:
        print(_error_json(err), file=sys.stderr)
    return code


def _sweep_command(args) -> int:
    from concurrent.futures import ProcessPoolExecutor  # only a sweep loads multiprocessing
    directory = Path(args.directory)
    files = sorted(directory.glob("*.yaml"))
    if not files:
        print(_error_json(ValidationError(f"no *.yaml configs in {directory}")), file=sys.stderr)
        return 2
    out_root = Path(args.out) if args.out else directory / "out"
    threads = os.environ.get("FOLFLOW_THREADS")
    try:
        if threads and not (threads.isdecimal() and int(threads) >= 1):
            raise ValidationError(f"FOLFLOW_THREADS must be a positive integer, got {threads!r}")
        if args.seed is not None:
            check_seed(args.seed)
        _make_dir(out_root)
    except ValidationError as err:
        print(_error_json(err), file=sys.stderr)
        return 2
    max_workers = min(int(threads) if threads else (os.cpu_count() or 1), len(files))
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(_run_one, f, out_root / f.stem, args.seed, True) for f in files]
        results = [fut.result() for fut in futures]
    worst = 0
    for path, (code, err) in zip(files, results):
        worst = max(worst, code)
        if not args.quiet:
            print(f"{path.name}: {'ok' if err is None else f'failed (exit {code}): {err}'}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="folflow",
        description="geometric-flow scenarios on discrete fibers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one YAML configuration")
    run_p.add_argument("config", help="path to a YAML run configuration")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--seed", type=int, default=None, help="seed override")
    run_p.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub.add_parser("list", help="describe available scenarios")
    sweep_p = sub.add_parser("sweep", help="run every *.yaml configuration in a directory")
    sweep_p.add_argument("directory", help="directory holding *.yaml configurations")
    sweep_p.add_argument("--out", default=None, help="output root override")
    sweep_p.add_argument("--seed", type=int, default=None, help="seed override")
    sweep_p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run_command(args)
    if args.command == "list":
        print(list_scenarios(), end="")
        return 0
    return _sweep_command(args)


if __name__ == "__main__":
    sys.exit(main())
