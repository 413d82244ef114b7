"""The suite's per-test wall-clock limit fails a looping test instead of hanging."""

import signal
import time

import pytest

from time_limit import TEST_TIME_LIMIT_S, TimeLimitExceeded, can_limit, time_limit

pytestmark = pytest.mark.skipif(not can_limit(), reason="needs a POSIX interval timer in the main thread")


def test_each_test_runs_under_the_suite_limit():
    remaining_s, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining_s <= TEST_TIME_LIMIT_S


def test_a_looping_body_fails_within_the_limit():
    started = time.perf_counter()
    with pytest.raises(TimeLimitExceeded), time_limit(0.2):
        while True:
            pass
    assert time.perf_counter() - started < 5.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_hypothesis_neither_replays_nor_shrinks_an_example_past_the_limit():
    hypothesis = pytest.importorskip("hypothesis")
    given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies
    assert not issubclass(TimeLimitExceeded, Exception)
    examples = []

    @settings(max_examples=5, deadline=None, database=None)
    @given(st.integers())
    def loops(n):
        examples.append(n)
        while True:
            pass

    with pytest.raises(TimeLimitExceeded), time_limit(0.2):
        loops()
    assert len(examples) == 1
