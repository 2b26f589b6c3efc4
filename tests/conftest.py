from __future__ import annotations

import tempfile

import acceptance_report
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Every property runs derandomized with no example database and no
# deadline, so each run checks the same inputs; a test sets only its own
# max_examples and phases.
settings.register_profile("agilecrypt", derandomize=True, deadline=None, database=None)
settings.load_profile("agilecrypt")


def pytest_configure(config) -> None:
    """Hypothesis caches the constants it finds in the sources under test
    while it collects; a directory removed after the run keeps that cache
    out of the checkout."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


def pytest_terminal_summary(terminalreporter) -> None:
    if not acceptance_report.LINES:
        return
    terminalreporter.section("acceptance checks")
    for line in acceptance_report.LINES:
        terminalreporter.write_line(line)
