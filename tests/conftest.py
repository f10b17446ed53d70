import faulthandler
import os

import pytest

from alexinv import cli

_stderr = None


def pytest_configure(config):
    # pytest captures fd 2 while a test runs, and what is written there is
    # lost when the process ends; a duplicate taken now still reaches it.
    global _stderr
    _stderr = os.dup(2)


@pytest.fixture(autouse=True)
def time_limit():
    """End the run, printing every thread's traceback, when one test runs
    past five minutes: a hang fails the suite instead of stalling it.  A
    watchdog thread keeps the time, so no signal is taken from the tests."""
    faulthandler.dump_traceback_later(300, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def cold_input_cache():
    """Start every test without decoded input files, as a fresh process
    does: a test that patches a reader must see the reader called."""
    cli._decode.cache_clear()
