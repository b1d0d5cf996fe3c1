"""Shared pytest plumbing: a visible pass/fail line per acceptance criterion."""

from criteria import CRITERION_RESULTS


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed in sorted(CRITERION_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {number}: {description}")
