"""Shared pytest wiring.

Acceptance-criterion lines survive output capture: each acceptance test
records exactly one PASS/FAIL line. The lines are printed immediately
(visible with -s or on failure) and repeated in the terminal summary,
which pytest never captures.

The dispatches fixture observes every event any engine runs.
"""

import pytest

from meowsim.engine import Engine

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def criterion():
    def _record(line: str) -> None:
        ACCEPTANCE_LINES.append(line)
        print(line)
    return _record


@pytest.fixture
def dispatches(monkeypatch):
    """Every event dispatched while the test runs, as (time_ns, kind, args).

    Each handler is wrapped when it is registered through Engine.on, so
    only engines built inside the test are observed.
    """
    seen = []
    register = Engine.on

    def recording_on(engine, kind, handler):
        def record(*args):
            seen.append((engine.now, kind, args))
            handler(*args)
        register(engine, kind, record)

    monkeypatch.setattr(Engine, "on", recording_on)
    return seen


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
