"""Suite-wide fixtures: a time limit on every test."""

import signal

import pytest

TEST_SECONDS = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past ``TEST_SECONDS``, such as a pivot loop that
    cycles, instead of hanging the suite; where the platform has no interval
    timer (Windows), arm nothing."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test still running after {TEST_SECONDS} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
