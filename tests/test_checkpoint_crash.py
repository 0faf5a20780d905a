"""Crash points inside a checkpoint: recovery returns the accepted prefix.

A child process applies the deterministic mutation workload of
``_durability_workload`` through a durable database, checkpointing
every few mutations, and is killed (an armed ``kill`` fault) at one
point inside a checkpoint: before it starts, and between a merge's
rename of the fresh snapshot and the WAL reset (the third merge, and
the first).  Every mutation was accepted before the checkpoint began,
so the reopened database must hold exactly that prefix: same ids
order, bit-identical instances and weights, and the same answers from
all seven verbs as an uninterrupted in-memory run.  ``snapshot.bin``
is one plain image at every crash point.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from _durability_workload import (
    apply_mutation,
    fingerprint,
    reference_database,
)
from repro.api import Database
from repro.testing.faults import KILL_EXIT_CODE
from repro.uncertain import attach_file
from repro.uncertain.store import image_nbytes

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _crash_child(path: str, site: str) -> int:
    """Run the child until its checkpoint is killed; the last epoch it
    reported before that checkpoint."""
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}{os.pathsep}{REPO_ROOT / 'tests'}"
    env["PYTHONHASHSEED"] = "0"
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from _durability_workload import crash_child_main; "
            "crash_child_main(sys.argv[1], sys.argv[2])",
            path,
            site,
        ],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == KILL_EXIT_CODE, child.stderr
    return int(child.stdout.split()[-1])  # the last "CKPT <epoch>"


def _assert_prefix(db: Database, epoch: int) -> None:
    reference = reference_database(epoch)
    try:
        assert db.epoch == epoch
        assert db.dataset.ids == reference.dataset.ids
        for oid in db.dataset.ids:
            assert np.array_equal(
                db.dataset[oid].instances, reference.dataset[oid].instances
            )
            assert np.array_equal(
                db.dataset[oid].weights, reference.dataset[oid].weights
            )
        assert fingerprint(db) == fingerprint(reference)
    finally:
        reference.close()


def _assert_plain_image(path: str) -> None:
    """``snapshot.bin`` is exactly the image its header describes."""
    snapshot = os.path.join(path, "snapshot.bin")
    snap = attach_file(snapshot)
    try:
        want = image_nbytes(snap.n, snap.size, snap.dims)
    finally:
        snap.close()
    assert os.path.getsize(snapshot) == want


@pytest.mark.parametrize(
    "site", ["durable.checkpoint", "durable.wal_reset", "merge"]
)
def test_crash_inside_checkpoint_recovers_accepted_prefix(tmp_path, site):
    path = str(tmp_path / "db")
    epoch = _crash_child(path, site)
    _assert_plain_image(path)

    db = Database.open(path)
    try:
        _assert_prefix(db, epoch)
        # Checkpoints carry on over whatever survived.
        for i in range(epoch, epoch + 5):
            apply_mutation(db, i)
        db.checkpoint()
    finally:
        db.close()
    _assert_plain_image(path)
    db = Database.open(path)
    try:
        _assert_prefix(db, epoch + 5)
    finally:
        db.close()
