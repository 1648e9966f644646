"""The CLI contract over many more drawn configs than Tier-1 affords.

    PYTHONPATH=src python3 tests/fuzz_contract.py --examples 1000 --seed 1

Draws --examples configs of each scenario with tests/test_cli.py's
run_configs, from --seed and not derandomized, runs each through
`folflow run` with contract_breaches, and prints a JSON report: per
scenario, the count of each exit code; a tally by error type of the exit-3
messages that carry no `failure at t`, each type with its first message
and config; and every run that broke the contract (an exit other than 0, 2
or 3, a traceback, a warning, a summary.json that strict JSON rejects, a
config echo that differs from what ran, an ignored key), each with its
config and files.  Exits 1 if any run broke the contract, else 0.
"""
from __future__ import annotations

import argparse
import collections
import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

# conftest pins hypothesis' local literals, so a seed draws the same configs
# at every commit
import conftest  # noqa: E402,F401
import test_cli  # noqa: E402
from hypothesis import HealthCheck, Phase, given, seed, settings  # noqa: E402


def fuzz(scenario: str, examples: int, seed_value: int) -> dict:
    """The report of examples drawn configs of scenario."""
    exits, untimed, breaches = collections.Counter(), {}, []

    @seed(seed_value)
    @settings(max_examples=examples, deadline=None, database=None, phases=[Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(drawn=test_cli.run_configs(scenario))
    def run(drawn):
        raw, unread, csvs = drawn
        try:
            code, error, found = test_cli.contract_breaches(raw, unread, csvs)
        except Exception:  # a traceback out of the run or of its artifacts
            code, error, found = "traceback", {}, [traceback.format_exc()]
        exits[str(code)] += 1
        if code == 3 and "failure at t" not in error["message"]:
            first = {"count": 0, "message": error["message"], "config": raw}
            untimed.setdefault(error["type"], first)["count"] += 1
        breaches.extend({"breach": line, "config": raw, "unread": unread,
                         "files": {name: text for name, (text, _) in csvs.items()}}
                        for line in found)

    run()
    return {"exits": dict(sorted(exits.items())), "untimed_exit_3": untimed,
            "breaches": breaches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--examples", type=int, default=1000,
                        help="configs drawn per scenario")
    parser.add_argument("--seed", type=int, default=0, help="hypothesis seed")
    args = parser.parse_args(argv)
    report = {name: fuzz(name, args.examples, args.seed) for name in test_cli.SCENARIOS}
    print(json.dumps({"examples": args.examples, "seed": args.seed, "scenarios": report},
                     indent=1, default=repr))
    return 1 if any(r["breaches"] for r in report.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
