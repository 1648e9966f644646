"""Set-up cost of one folflow run, timed in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py CONFIG.yaml [CONFIG.yaml ...]

Times `import folflow.cli` plus parsing each config and realizing its grid
and fields, and prints {"setup_s": seconds} as JSON.  Nothing else is
imported before the clock starts, so numpy and scipy imports are counted.
"""
import json
import sys
import time
from pathlib import Path


def main(paths) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import folflow.cli  # noqa: F401  (the import every run pays)
    from folflow import config

    for path in paths:
        cfg = config.parse_config(path)
        for which in ("initial", "potential", "t2_initial"):
            config.realize_field(cfg, which)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
