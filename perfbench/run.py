"""folflow benchmark: named workloads through parse_config_text -> execute_config.

Usage, from the repository root:

    python3 perfbench/run.py --workload golden --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: set-up time in
fresh interpreters, then warm passes over the workload for --seconds.  Both
timings are rescaled to a fixed reference speed by blocks of fixed work
timed around them (reference.py), which cancels the shared machine's drift.
--trace 1 runs one warm pass, then alternates untraced and traced passes
until --seconds have passed, reports the per-layer metrics from the spans,
then runs the isolated layer probes.
Every call's outputs are gated and compared with the first pass.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""
import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
LIMITS = ("timings are medians of this process alone, pass_s and setup_s rescaled to the "
          "reference speed of perfbench/reference.py; the benchmark does no CPU pinning, "
          "page-cache dropping or system-wide tracing, so other load on the machine shows "
          "up only as far as the rescaling leaves it")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # BLAS is pinned to one thread before numpy is first imported, here and in
    # the set-up interpreters, which inherit the environment.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "folflow" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no folflow sources under {SRC} or no configs/ beside them",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import folflow

    if not Path(folflow.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported folflow from {folflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{list(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    items = workloads.build(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        print("env " + json.dumps(environment(args)))
        print(f"limits: {LIMITS}")
        if args.trace:
            tally, metrics = traced_run(items, args.seconds, work)
        else:
            tally, metrics = end_to_end_run(items, args.seconds, work,
                                            workloads.REFERENCE[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, items, tally, metrics)
    return 0


def end_to_end_run(items, seconds: float, work: Path, kind: str = "mixed"):
    """Set-up and warm-pass metrics; `kind` names the pass's reference block."""
    from perfbench import harness

    setups = [setup_seconds(items, work) for _ in range(SETUP_REPEATS)]
    configs = harness.parse(items)
    tally = harness.Tally()
    tally.add(harness.run_pass(items, configs, work / "warm", reference=kind))
    raw, rescaled = [], []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(raw) < 2:
        gc.collect()
        outcome = harness.run_pass(items, configs, work / f"pass{len(raw)}",
                                   reference=kind)
        tally.add(outcome)
        raw.append(outcome.seconds)
        rescaled.append(outcome.rescaled)
    print(f"passes: {len(raw)} timed after 1 warm")
    print("  wall seconds      " + " ".join(f"{t:.4f}" for t in raw))
    print("  rescaled seconds  " + " ".join(f"{t:.4f}" for t in rescaled))
    print("setups: raw seconds " + " ".join(f"{s[0]:.4f}" for s in setups) +
          "; rescaled " + " ".join(f"{s[1]:.4f}" for s in setups))
    print(f"raw medians: pass {statistics.median(raw):.6g} s, "
          f"setup {statistics.median(s[0] for s in setups):.6g} s")
    metrics = {
        "pass_s": (statistics.median(rescaled), "s"),
        "setup_s": (statistics.median(s[1] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "frac"),
    }
    return tally, metrics


def setup_seconds(items, work: Path) -> tuple[float, float]:
    """One fresh interpreter: import folflow.cli, parse and realize every config.

    Returns its wall seconds, raw and rescaled by reference blocks timed
    right before and after it in this process.
    """
    from perfbench import reference

    paths = []
    for item in items:
        path = work / "setup" / f"{item.name}.yaml"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(item.text)
        paths.append(str(path))
    before = reference.block()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), *paths],
        capture_output=True, text=True, timeout=120, check=True,
    )
    after = reference.block()
    raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    return raw, reference.rescale(raw, [before, after])


def traced_run(items, seconds: float, work: Path):
    from perfbench import harness, probes
    from perfbench.tracer import Tracer

    tracer = Tracer()
    tally = harness.Tally()

    def one_pass(tag: str, traced: bool):
        out = work / tag
        start = time.perf_counter()
        if not traced:
            outcome = harness.run_pass(items, harness.parse(items), out)
            return outcome, time.perf_counter() - start
        with tracer.installed():
            tracer.set_config("parse")
            configs = harness.parse(items)
            outcome = harness.run_pass(
                items, configs, out, on_call=lambda item: tracer.set_config(item.name))
        return outcome, time.perf_counter() - start

    started = time.perf_counter()
    tally.add(one_pass("warm", False)[0])
    plain, traced, layers = [], [], []
    while time.perf_counter() - started < seconds or not traced:
        outcome, elapsed = one_pass(f"plain{len(plain)}", False)
        tally.add(outcome)
        plain.append(elapsed)
        first = tracer.span_count()
        outcome, elapsed = one_pass(f"traced{len(traced)}", True)
        tally.add(outcome)
        traced.append(elapsed)
        layers.append(layer_metrics(tracer, first, items, outcome))
    print(f"passes: {len(plain)} untraced and {len(traced)} traced after 1 warm; "
          f"{tracer.span_count()} spans")
    metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
               for name, (_, unit) in layers[0].items()}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "frac")
    metrics.update(probes.run_all(work))
    tracer.save(WORK / f"spans-{work.name.rsplit('-', 1)[0]}.npz")
    return tally, metrics


def layer_metrics(tracer, first: int, items, outcome) -> dict:
    """Per-layer time and counts of one traced pass, from spans [first, end)."""
    import numpy as np
    from folflow.config import SCENARIOS

    cols = tracer.arrays(first)
    names = np.array(tracer.names)
    span_name = names[cols["name"]]
    span_layer = np.array([n.split(".", 1)[0] for n in tracer.names])[cols["name"]]

    def time_of(mask, column="self"):
        return float(np.sum(cols[column][mask]))

    def calls(name):
        return span_name == name

    heat, burgers = calls("parabolic.HeatStepper.step"), calls("parabolic.BurgersStepper.step")
    inits = calls("parabolic.HeatStepper.__init__") | calls("parabolic.BurgersStepper.__init__")
    ground, spec = calls("schrodinger.ground_state"), calls("schrodinger.spectrum")
    fiber, curvature = span_layer == "fiber", span_layer == "curvature"
    out = {
        "parabolic.heat_step_s": (time_of(heat), "s"),
        "parabolic.heat_steps": (int(np.sum(heat)), "count"),
        "parabolic.burgers_step_s": (time_of(burgers), "s"),
        "parabolic.burgers_steps": (int(np.sum(burgers)), "count"),
        "parabolic.stepper_init_s": (time_of(inits), "s"),
        "parabolic.stepper_inits": (int(np.sum(inits)), "count"),
        "scenarios.self_s": (time_of(span_layer == "scenarios"), "s"),
        "scenarios.records": (outcome.records, "count"),
        "fiber.ops_s": (time_of(fiber), "s"),
        "fiber.ops_calls": (int(np.sum(fiber)), "count"),
        "curvature.monitor_s": (time_of(curvature), "s"),
        "curvature.monitor_calls": (int(np.sum(curvature)), "count"),
        "schrodinger.ground_state_s": (time_of(ground, "duration"), "s"),
        "schrodinger.ground_state_calls": (int(np.sum(ground)), "count"),
        "schrodinger.spectrum_s": (time_of(spec, "duration"), "s"),
        "schrodinger.spectrum_calls": (int(np.sum(spec)), "count"),
        "artifacts.write_s": (time_of(span_layer == "artifacts"), "s"),
        "artifacts.bytes": (outcome.bytes, "bytes"),
        "artifacts.files": (outcome.files, "count"),
        "config.parse_s": (time_of(span_layer == "config"), "s"),
        "families.build_field_s": (time_of(span_layer == "families"), "s"),
        "colehopf.roundtrip_s": (time_of(span_layer == "colehopf"), "s"),
        "cli.self_s": (time_of(span_layer == "cli"), "s"),
    }
    execute = calls("cli.execute_config")
    config_names = np.array(tracer.configs + [""])[cols["config"]]
    for scenario in SCENARIOS:
        ids = [item.name for item in items if item.scenario == scenario]
        mask = execute & np.isin(config_names, ids)
        out[f"cli.execute_s.{scenario}"] = (time_of(mask, "duration"), "s")
    return out


def environment(args) -> dict:
    import numpy
    import scipy

    from perfbench import reference, workloads

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
                "openblas configuration", "unknown")
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "reference_block": workloads.REFERENCE[args.workload],
        "reference_nominal_s": reference.NOMINAL_S[workloads.REFERENCE[args.workload]],
        "git_commit": commit,
    }


def report(args, items, tally, metrics):
    print(f"workload {args.workload}: " + ", ".join(f"{i.name} ({i.scenario})" for i in items))
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} frac "
          f"({tally.failed} of {tally.attempted} execute_config calls)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
