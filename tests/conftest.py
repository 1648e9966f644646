"""Shared reporting for the acceptance suite, and property-test draws that
do not move with source edits.

Verdict lines are collected through a session fixture and emitted as one
block in the terminal summary, after capture has been torn down, so they
always reach the real stdout regardless of capture mode.

hypothesis adds the literals of every local module to what it draws, so an
edit to any module of the repository would change the examples of every
derandomized test. Its hook for those literals returns none here; a
hypothesis without that hook fails this import rather than drawing anew.
"""
import pytest
from hypothesis.internal.conjecture import providers
from hypothesis.internal.constants_ast import Constants

if not callable(getattr(providers, "_get_local_constants", None)):
    raise ImportError("hypothesis.internal.conjecture.providers has no _get_local_constants "
                      "to pin; derandomized draws would move with every source edit")
providers._get_local_constants = Constants


class AcceptanceVerdicts:
    def __init__(self):
        self.lines = []

    def record(self, num, label, ok, detail):
        line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
        self.lines.append((num, line))
        return line


_VERDICTS = AcceptanceVerdicts()


@pytest.fixture(scope="session")
def acceptance_verdicts():
    return _VERDICTS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _VERDICTS.lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_VERDICTS.lines):
            terminalreporter.write_line(line)
