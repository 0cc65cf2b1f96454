"""Shared test helpers: the acceptance suite's reporting and traced peaks.

Each acceptance test registers a one-line verdict before asserting, so the
terminal summary always shows a pass/fail line per criterion even when the
assertion aborts the test body.
"""

import tracemalloc

ACCEPTANCE_RESULTS = []


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak bytes that tracemalloc traced during it."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:2d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_RESULTS.append((number, line))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(line)
