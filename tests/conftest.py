"""Session-wide checks for the tier-1 suite."""

from __future__ import annotations

import time

import pytest
from _leaks import live_workers, pool_entries

#: Seconds a closed server's workers get to finish exiting.
WORKER_EXIT_GRACE = 5.0


@pytest.fixture(scope="session", autouse=True)
def no_leaked_pool_images():
    """Fail the session when a pool image directory (or any ``repro_*``
    shared-memory name) created during it is still there at the end."""
    before = pool_entries()
    yield
    leaked = sorted(pool_entries() - before)
    assert not leaked, f"process-pool images leaked: {leaked}"


@pytest.fixture(scope="session", autouse=True)
def no_leaked_workers():
    """Fail the session when a server worker thread or pool process
    started during it is still alive at the end: a server some test
    never closed."""
    before = live_workers()
    yield
    deadline = time.monotonic() + WORKER_EXIT_GRACE
    started = live_workers() - before
    for worker in started:
        worker.join(max(0.0, deadline - time.monotonic()))
    leaked = sorted(w.name for w in started if w.is_alive())
    assert not leaked, f"server workers left running: {leaked}"
