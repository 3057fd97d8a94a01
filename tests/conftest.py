"""Shared pytest hooks.  The tests directory is importable (no __init__.py),
so oracle helpers live in oracles.py next to the test modules."""

import sys


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines where capture cannot eat them."""
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)

