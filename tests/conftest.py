"""Suite-wide checks that run around every test."""

import threading

import pytest

_JOIN_TIMEOUT = 5.0  # seconds a thread a test started gets to finish after it


@pytest.fixture(autouse=True)
def no_lingering_threads():
    """Fail a test that leaves a non-daemon thread it started alive.

    Each such thread is joined with a timeout first, so a thread that is
    about to exit passes; one still alive after the join fails the test.
    """
    before = set(threading.enumerate())
    yield
    started = [t for t in threading.enumerate() if t not in before and not t.daemon]
    for thread in started:
        thread.join(_JOIN_TIMEOUT)
    alive = [thread.name for thread in started if thread.is_alive()]
    if alive:
        pytest.fail(f"test left non-daemon threads running: {alive}")
