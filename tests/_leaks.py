"""Census of what the process pool may leave behind.

Each :class:`~repro.service.ProcessPoolServer` writes its store images
into one ``repro_pool_*`` directory, under ``/dev/shm`` when that
exists and in the default temp directory otherwise; no other code of
the package names anything ``repro_*`` there.  A test compares the
census before and after a pool's life: the set of entries must be the
same.  The census is machine-wide, so pools of a second test session
running at the same time show up in it too.
"""

from __future__ import annotations

import os
import tempfile


def pool_entries() -> set[str]:
    """``repro_*`` entries in ``/dev/shm`` and ``repro_pool_*``
    entries in the temp directory, as full paths."""
    found: set[str] = set()
    for directory, prefix in (
        ("/dev/shm", "repro_"),
        (tempfile.gettempdir(), "repro_pool_"),
    ):
        try:
            names = os.listdir(directory)
        except OSError:
            continue
        found.update(
            os.path.join(directory, name)
            for name in names
            if name.startswith(prefix)
        )
    return found
