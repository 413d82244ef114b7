"""Suite-wide hooks: each test's call runs under a wall-clock limit."""

import pytest

from time_limit import TEST_TIME_LIMIT_S, time_limit


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with time_limit(TEST_TIME_LIMIT_S):
        yield
