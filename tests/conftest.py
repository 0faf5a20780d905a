"""Session-wide checks for the tier-1 suite."""

from __future__ import annotations

import pytest
from _leaks import pool_entries


@pytest.fixture(scope="session", autouse=True)
def no_leaked_pool_images():
    """Fail the session when a pool image directory (or any ``repro_*``
    shared-memory name) created during it is still there at the end."""
    before = pool_entries()
    yield
    leaked = sorted(pool_entries() - before)
    assert not leaked, f"process-pool images leaked: {leaked}"
