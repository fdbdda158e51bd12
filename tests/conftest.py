"""Shared pytest plumbing: echo the acceptance-criterion verdict lines.

The acceptance tests record one [PASS]/[FAIL] line each; printing them from a
terminal-summary hook makes them visible without -s regardless of capture.
"""

from acceptance_log import LINES


def pytest_terminal_summary(terminalreporter):
    if not LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for line in LINES:
        terminalreporter.write_line(line)
