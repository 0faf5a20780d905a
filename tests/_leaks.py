"""Census of what the serving tiers may leave behind.

Each :class:`~repro.service.ProcessPoolServer` writes its store images
into one ``repro_pool_*`` directory, under ``/dev/shm`` when that
exists and in the default temp directory otherwise; no other code of
the package names anything ``repro_*`` there.  A test compares the
census before and after a pool's life: the set of entries must be the
same.  The census is machine-wide, so pools of a second test session
running at the same time show up in it too.

Servers also start daemon workers: threads named
``uncertaindb-worker-*`` (the thread tier) and processes named
``uncertaindb-proc-*`` (the process pool).  Being daemons, a server
that is never closed would not stop the interpreter from exiting, so
:func:`live_workers` is how a test notices one.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading


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


def live_workers() -> set:
    """Live ``uncertaindb-worker-*`` threads and
    ``uncertaindb-proc-*`` child processes of this process."""
    threads = {
        t for t in threading.enumerate()
        if t.name.startswith("uncertaindb-worker-")
    }
    procs = {
        p for p in multiprocessing.active_children()
        if p.name.startswith("uncertaindb-proc-")
    }
    return threads | procs
