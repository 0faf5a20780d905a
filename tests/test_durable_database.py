"""Database.open lifecycle and the kill-and-recover differential oracle."""

import os
import pathlib
import shutil
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
from repro.geometry import Rect
from repro.uncertain import UncertainObject, uniform_pdf
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
        """A checkpoint below the merge bound returns the live epoch
        and leaves the synced records in the WAL, where a crash copy
        replays them."""
        from repro.storage import WriteAheadLog

        path = str(tmp_path / "db")
        db = Database.open(path, dataset=base_dataset(), fsync="off")
        for i in range(3):
            apply_mutation(db, i)
        snapshot = os.path.join(path, "snapshot.bin")
        image = os.path.getsize(snapshot)
        assert db.checkpoint() == db.epoch == 3
        assert os.path.getsize(snapshot) == image  # no merge
        records, _valid, damaged = WriteAheadLog.scan(
            os.path.join(path, "wal.log")
        )
        assert [r.epoch for r in records] == [1, 2, 3] and not damaged
        copy = str(tmp_path / "copy")
        shutil.copytree(path, copy)  # a crash image: db is still open
        recovered = Database.open(copy)
        try:
            assert recovered.epoch == 3
            assert fingerprint(recovered) == fingerprint(db)
        finally:
            recovered.close()
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

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_close_leaves_no_directory_or_wal_fd(self, tmp_path, mode):
        """After open, mutations, checkpoint and close, no fd of this
        process points at the directory (the ``flock``) or at
        ``wal.log``.  ``snapshot.bin`` is not checked: the recovered
        objects are zero-copy views of its mapping, and Python 3.11's
        ``mmap`` keeps a duplicated fd open while they live (the known
        ``held_after_close`` entry of the leak census)."""
        path = str(tmp_path / "db")
        Database.open(path, dataset=base_dataset()).close()

        def held() -> set[str]:
            out = set()
            for fd in os.listdir("/proc/self/fd"):
                try:
                    out.add(os.readlink(f"/proc/self/fd/{fd}"))
                except OSError:
                    pass  # closed since the listing
            return out

        watched = {os.path.realpath(path),
                   os.path.realpath(os.path.join(path, "wal.log"))}
        db = Database.open(path)
        assert watched <= held()
        if mode == "process":
            db.serve(mode="process", workers=1)
        for i in range(4):
            apply_mutation(db, i)
        db.checkpoint()
        db.close()
        assert not watched & held()

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
class Veto:
    """A mutation listener that raises while armed."""

    def __init__(self):
        self.armed = False

    def __call__(self, op, obj, epoch):
        if self.armed:
            raise RuntimeError(f"vetoed {op} of {obj.oid} at {epoch}")


def new_object(oid, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(500.0, 9_000.0, size=2)
    region = Rect(lo, lo + 60.0)
    instances, weights = uniform_pdf(region, 4, rng)
    return UncertainObject(oid, region, instances, weights)


def assert_same_dataset(got, want):
    assert got.epoch == want.epoch
    assert got.ids == want.ids
    for oid in want.ids:
        assert np.array_equal(got[oid].instances, want[oid].instances)
        assert np.array_equal(got[oid].weights, want[oid].weights)


class TestVetoingListener:
    """A listener that vetoes aborts the mutation before the WAL logs
    it, so a crash image recovers exactly what committed."""

    def test_vetoed_insert_is_not_replayed(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database.open(path, dataset=base_dataset())
        veto = Veto()
        db.dataset.add_mutation_listener(veto)
        vetoed, committed = new_object(100, seed=1), new_object(101, seed=2)
        veto.armed = True
        with pytest.raises(RuntimeError, match="vetoed"):
            db.insert(vetoed)
        veto.armed = False
        db.insert(committed)
        assert db.epoch == 1 and 101 in db.dataset
        copy = str(tmp_path / "copy")
        shutil.copytree(path, copy)  # a crash image: db is still open
        recovered = Database.open(copy)
        try:
            assert recovered.epoch == 1
            assert 101 in recovered.dataset and 100 not in recovered.dataset
            assert_same_dataset(recovered.dataset, db.dataset)
        finally:
            recovered.close()
            db.close()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recovery_matches_live_with_random_vetoes(self, tmp_path, seed):
        """Vetoes armed at seeded random points of a mutation sequence,
        each followed by a different mutation that commits at the same
        epoch, a trailing veto, and a checkpoint somewhere in between."""
        rng = np.random.default_rng(seed)
        steps = 30
        vetoed = set(rng.choice(steps, size=8, replace=False).tolist())
        checkpoint_at = int(rng.integers(steps))
        path = str(tmp_path / "db")
        db = Database.open(path, dataset=base_dataset(), fsync="off")
        veto = Veto()
        db.dataset.add_mutation_listener(veto)
        for i in range(steps):
            if i in vetoed:
                veto.armed = True
                with pytest.raises(RuntimeError, match="vetoed"):
                    apply_mutation(db, 500 + i)
                veto.armed = False
            apply_mutation(db, i)
            if i == checkpoint_at:
                db.checkpoint()
        veto.armed = True
        with pytest.raises(RuntimeError, match="vetoed"):
            apply_mutation(db, 999)
        assert db.epoch == steps
        copy = str(tmp_path / "copy")
        shutil.copytree(path, copy)
        recovered = Database.open(copy)
        try:
            assert_same_dataset(recovered.dataset, db.dataset)
        finally:
            recovered.close()
            db.close()


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
        land inside a WAL sync, a merge or a WAL reset."""
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
