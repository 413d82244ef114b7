"""A wall-clock limit for a block of test code, from the standard library alone.

`tests/conftest.py` runs each test's call under `time_limit(TEST_TIME_LIMIT_S)`,
so a test that loops forever, such as one run against a broken simulator
whose clock never advances, fails instead of hanging the suite.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager

# generous: the slowest tier-1 test takes a few seconds
TEST_TIME_LIMIT_S = 120.0


class TimeLimitExceeded(BaseException):
    """A block ran past its wall-clock limit. Not an Exception, so hypothesis
    does not take it for a failing example and replay or shrink it."""


def can_limit() -> bool:
    """Whether `time_limit` can interrupt a block here: a POSIX interval
    timer exists and this is the main thread, which alone receives signals."""
    return hasattr(signal, "setitimer") and threading.current_thread() is threading.main_thread()


@contextmanager
def time_limit(seconds: float):
    """Raise TimeLimitExceeded in the block once it has run for `seconds`.

    The limit is a SIGALRM from the real-time interval timer; it replaces any
    other use of that timer while the block runs. Where `can_limit()` is false
    the block runs without a limit.
    """
    if not can_limit():
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"ran for more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
