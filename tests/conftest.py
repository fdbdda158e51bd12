"""Shared pytest plumbing: echo the acceptance-criterion verdict lines.

The acceptance tests record one [PASS]/[FAIL] line each; printing them from a
terminal-summary hook makes them visible without -s regardless of capture.
Every test also starts with empty selection-sum and swap pole-sum memos, so
none can pass on sums that an earlier test cached under other settings.
"""

import pytest
from acceptance_log import LINES

from cvsat import effective, postselect


@pytest.fixture(autouse=True)
def _empty_memos():
    postselect._selection_sums.cache_clear()
    effective._swap_pole_sums.cache_clear()


def pytest_terminal_summary(terminalreporter):
    if not LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for line in LINES:
        terminalreporter.write_line(line)
