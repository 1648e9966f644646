"""Write the artifact trees two versions of folflow are compared by: the
shipped configs and the seed 1 and 2 items, full and tiny, of every
benchmark workload, one run directory each.

    PYTHONPATH=src python3 tests/artifact_trees.py OUT

Runs go through the folflow on the path, parse_config_text and
execute_config, with BLAS pinned to one thread (spectral_report's
eigenpairs depend on the thread count), and each summary.json is rewritten
without its wall-clock `meta` block.  A failed run keeps its summary.json.
Trees written from two checkouts are then compared by

    diff -r PARENT CHANGE
    python3 tests/artifact_diff.py PARENT CHANGE
"""
from __future__ import annotations

import os
import sys

if __name__ == "__main__":  # before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # for perfbench
    sys.path.insert(0, str(ROOT))

from folflow.cli import execute_config  # noqa: E402
from folflow.config import parse_config_text  # noqa: E402
from folflow.errors import FolflowError  # noqa: E402
from perfbench import workloads  # noqa: E402

SEEDS = (1, 2)


def runs() -> list[tuple[str, str, Path, int | None]]:
    """(run directory, config text, its base directory, seed override) of every run."""
    out = [(f"configs/{path.stem}", path.read_text(), path.parent, None)
           for path in sorted((ROOT / "configs").glob("*.yaml"))]
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for size in ("full", "tiny"):
                out += [(f"{name}_{seed}_{size}/{item.name}", item.text, item.base_dir,
                         item.seed_override)
                        for item in workloads.build(name, seed, size == "tiny")]
    return out


def parse(text: str, base_dir: Path, seed: int | None):
    """The run's config, as the benchmark harness parses it."""
    cfg = parse_config_text(text, base_dir=base_dir)
    return cfg if seed is None else replace(cfg, seed=seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    todo = runs()
    for directory, text, base_dir, seed in todo:
        out = args.out / directory
        try:
            execute_config(parse(text, base_dir, seed), out, quiet=True)
        except FolflowError as err:
            print(f"{directory}: failed: {err}")
        summary = json.loads((out / "summary.json").read_text())
        summary.pop("meta", None)
        (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"{len(todo)} runs of {Path(sys.modules['folflow'].__file__).parent} "
          f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
