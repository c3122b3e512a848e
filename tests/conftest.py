import threading

import pytest

from holoflat import propagator


@pytest.fixture(autouse=True)
def no_leftover_threads():
    """Fail a test that leaves a thread running or numpy's OpenBLAS at another thread count."""
    pair = propagator._openblas_threads()

    def state():
        return threading.active_count(), pair and pair[0]()

    before = state()
    yield
    assert state() == before, "(Python threads, OpenBLAS threads) changed"
