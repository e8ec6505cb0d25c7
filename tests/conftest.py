"""Echo the collected acceptance summary lines after the test run."""

import pytest

# helpers holds shared assertions; rewritten like a test module, they still
# run under python -O
pytest.register_assert_rewrite("helpers")

from helpers import ACCEPTANCE_LINES  # noqa: E402


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
