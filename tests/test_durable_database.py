"""Database.open lifecycle and the kill-and-recover differential oracle."""

import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from _durability_workload import (
    CHECKPOINT_EVERY,
    apply_mutation,
    base_dataset,
    fingerprint,
    reference_database,
)
from repro.api import Database
from repro.storage import DurableStore

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestOpenLifecycle:
    def test_create_then_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database.open(path, dataset=base_dataset())
        assert db.durable
        for i in range(4):
            apply_mutation(db, i)
        epoch = db.epoch
        before = fingerprint(db)
        db.close()

        db2 = Database.open(path)
        assert db2.epoch == epoch
        assert fingerprint(db2) == before
        db2.close()

    def test_open_existing_with_dataset_refuses(self, tmp_path):
        path = str(tmp_path / "db")
        Database.open(path, dataset=base_dataset()).close()
        with pytest.raises(ValueError, match="already holds"):
            Database.open(path, dataset=base_dataset())

    def test_open_empty_without_dataset_refuses(self, tmp_path):
        with pytest.raises(ValueError, match="dataset is required"):
            Database.open(str(tmp_path / "nothing"))

    def test_second_opener_is_locked_out(self, tmp_path):
        # The WAL directory admits one writer: a second Database.open
        # on a live store must fail fast with a clear error instead of
        # interleaving WAL appends.
        from repro.storage import StoreLocked

        path = str(tmp_path / "db")
        db = Database.open(path, dataset=base_dataset())
        with pytest.raises(StoreLocked, match="another session"):
            Database.open(path)
        with pytest.raises(StoreLocked, match="one writer"):
            DurableStore(path).recover()
        # The first opener is unaffected by the failed attempts...
        apply_mutation(db, 0)
        epoch = db.epoch
        db.close()
        # ...and close() releases the lock for the next opener.
        db2 = Database.open(path)
        assert db2.epoch == epoch
        db2.close()

    def test_checkpoint_folds_wal(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database.open(path, dataset=base_dataset())
        for i in range(3):
            apply_mutation(db, i)
        assert db.checkpoint() == db.epoch == 3
        # The WAL is empty: scanning finds no records to replay.
        from repro.storage import WriteAheadLog

        records, _valid, damaged = WriteAheadLog.scan(
            os.path.join(path, "wal.log")
        )
        assert records == [] and not damaged
        db.close()

    def test_checkpoint_requires_durable(self):
        db = Database(base_dataset())
        with pytest.raises(RuntimeError, match="Database.open"):
            db.checkpoint()
        assert not db.durable

    def test_close_seals_the_store(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), dataset=base_dataset())
        db.close()
        with pytest.raises(RuntimeError, match="unlogged"):
            apply_mutation(db.dataset, 0)

    def test_fsync_off_survives_clean_close(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database.open(path, dataset=base_dataset(), fsync="off")
        for i in range(3):
            apply_mutation(db, i)
        epoch = db.epoch
        db.close()
        db2 = Database.open(path)
        assert db2.epoch == epoch
        db2.close()

    def test_lazy_index_rehydration(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database.open(path, dataset=base_dataset())
        db.index("pv")  # force a build in the first session
        assert "pv" in db.built_indexes
        answer = db.nn([5_000.0, 5_000.0], retriever="pv")
        db.close()
        db2 = Database.open(path)
        assert db2.built_indexes == ()  # nothing rebuilt at open time
        again = db2.nn([5_000.0, 5_000.0], retriever="pv")
        assert "pv" in db2.built_indexes  # rehydrated on first use
        assert dict(again.answer.probabilities) == dict(
            answer.answer.probabilities
        )
        db2.close()


@pytest.mark.slow
class TestKillAndRecover:
    """SIGKILL the mutating process at arbitrary epochs; recovery must
    produce bit-identical answers to an uninterrupted in-memory run of
    exactly the recovered prefix of the mutation sequence."""

    #: Seconds of mutation work each round gets before the SIGKILL.
    DELAYS = (0.05, 0.15, 0.3)

    def _spawn_child(self, path, checkpoint_every=0):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            f"{REPO_ROOT / 'src'}{os.pathsep}{REPO_ROOT / 'tests'}"
        )
        env["PYTHONHASHSEED"] = "0"
        return subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from _durability_workload import child_main; "
                "child_main(sys.argv[1], int(sys.argv[2]))",
                path,
                str(checkpoint_every),
            ],
            cwd=str(REPO_ROOT),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def test_kill_and_recover_bit_identical(self, tmp_path):
        self._kill_and_recover_rounds(str(tmp_path / "db"))

    def test_kill_and_recover_inside_checkpoints(self, tmp_path):
        """The child checkpoints every few mutations, so a SIGKILL can
        land inside a tail append, a merge or a WAL reset."""
        self._kill_and_recover_rounds(
            str(tmp_path / "db"), checkpoint_every=CHECKPOINT_EVERY
        )

    def _kill_and_recover_rounds(self, path, checkpoint_every=0):
        last_epoch = 0
        for delay in self.DELAYS:
            child = self._spawn_child(path, checkpoint_every)
            try:
                # Wait until the first mutation committed so the kill
                # always lands mid-workload, never before the WAL is
                # live.
                ready = child.stdout.readline().strip()
                if ready != "READY":
                    stderr = child.stderr.read()
                    pytest.fail(f"child failed to start: {stderr}")
                time.sleep(delay)
            finally:
                child.kill()
                child.wait(timeout=30)

            db = Database.open(path)
            epoch = db.epoch
            # The kill landed after >= 1 committed mutation per round,
            # and recovery never loses previously recovered epochs.
            assert epoch > last_epoch
            last_epoch = epoch

            reference = reference_database(epoch)
            assert db.dataset.ids == reference.dataset.ids
            for oid in db.dataset.ids:
                assert np.array_equal(
                    db.dataset[oid].instances,
                    reference.dataset[oid].instances,
                )
                assert np.array_equal(
                    db.dataset[oid].weights,
                    reference.dataset[oid].weights,
                )
            # All seven verbs, bit-identical probabilities/rankings.
            assert fingerprint(db) == fingerprint(reference)
            db.close()  # checkpoints; the next round resumes from here
            reference.close()
