"""Shared fixtures: expensive traces and sweeps are computed once per session."""

import numpy as np
import pytest

import pairdva


@pytest.fixture(scope="session")
def balanced_trace():
    return pairdva.simulate_cc_discharge(pairdva.make_pair(1.0, 1.0))


@pytest.fixture(scope="session")
def baseline_features(balanced_trace):
    return pairdva.extract_features(balanced_trace)


@pytest.fixture(scope="session")
def default_sweep():
    return pairdva.run_sweep()


@pytest.fixture(scope="session")
def default_curve(default_sweep):
    return pairdva.product_curve(default_sweep)


# acceptance tests push one status line each; the terminal-summary hook
# prints them after the run so the verdicts survive output capture
ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_report():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
