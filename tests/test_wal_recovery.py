"""WAL torture and snapshot+WAL recovery tests."""

import os

import numpy as np
import pytest

from repro.geometry import Rect
from repro.storage import DurableStore, RecoveryError, WalError, WriteAheadLog
from repro.storage.durable import MERGE_FACTOR
from repro.storage.wal import (
    OP_DELETE,
    OP_INSERT,
    encode_delete,
    encode_insert,
)
from repro.uncertain import (
    InstanceStore,
    UncertainObject,
    attach_file,
    synthetic_dataset,
    uniform_pdf,
)
from repro.uncertain.store import image_nbytes


def small_dataset(n=10, seed=3):
    return synthetic_dataset(n=n, dims=2, seed=seed, n_samples=4)


def make_object(oid, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(500.0, 9_000.0, size=2)
    region = Rect(lo, lo + rng.uniform(10.0, 80.0, size=2))
    instances, weights = uniform_pdf(region, 4, rng)
    return UncertainObject(
        oid=oid, region=region, instances=instances, weights=weights
    )


class TestWalFormat:
    def test_append_scan_roundtrip(self, tmp_path):
        path = tmp_path / "wal.log"
        obj = make_object(42, seed=1)
        with WriteAheadLog(path) as wal:
            wal.append(1, OP_INSERT, encode_insert(obj))
            wal.append(2, OP_DELETE, encode_delete(42))
        records, _valid, damaged = WriteAheadLog.scan(path)
        assert not damaged
        assert [r.epoch for r in records] == [1, 2]
        op, back = records[0].decode()
        assert op == "insert" and back.oid == 42
        assert np.array_equal(back.instances, obj.instances)
        assert np.array_equal(back.weights, obj.weights)
        assert np.array_equal(back.region.lo, obj.region.lo)
        assert records[1].decode() == ("delete", 42)

    def test_missing_file_scans_empty(self, tmp_path):
        records, _valid, damaged = WriteAheadLog.scan(tmp_path / "nope")
        assert records == [] and not damaged

    def test_truncated_tail_is_dropped(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(1, OP_DELETE, encode_delete(1))
            wal.append(2, OP_DELETE, encode_delete(2))
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)  # tear the last record's payload
        records, valid, damaged = WriteAheadLog.scan(path)
        assert damaged
        assert [r.epoch for r in records] == [1]
        # valid_bytes points at the start of the torn record.
        assert valid < size - 3

    def test_corrupt_checksum_stops_scan(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(1, OP_DELETE, encode_delete(1))
            wal.append(2, OP_DELETE, encode_delete(2))
        # Flip one payload byte of the first record (after the 12-byte
        # file header and 17-byte record header).
        with open(path, "r+b") as fh:
            fh.seek(12 + 17)
            byte = fh.read(1)
            fh.seek(12 + 17)
            fh.write(bytes([byte[0] ^ 0xFF]))
        records, _valid, damaged = WriteAheadLog.scan(path)
        assert damaged and records == []

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWALF" + b"\x00" * 64)
        with pytest.raises(WalError, match="magic"):
            WriteAheadLog.scan(path)

    def test_append_after_truncate_heals_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(1, OP_DELETE, encode_delete(1))
            wal.append(2, OP_DELETE, encode_delete(2))
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 1)
        _records, valid, damaged = WriteAheadLog.scan(path)
        assert damaged
        with WriteAheadLog(path) as wal:
            wal.truncate_to(valid)
            wal.append(2, OP_DELETE, encode_delete(99))
        records, _valid, damaged = WriteAheadLog.scan(path)
        assert not damaged
        assert [(r.epoch, r.decode()[1]) for r in records] == [(1, 1), (2, 99)]

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            WriteAheadLog(tmp_path / "w", fsync="sometimes")


class TestDurableRecovery:
    def _store(self, tmp_path, dataset):
        store = DurableStore(tmp_path / "db")
        store.initialize(dataset)
        store.attach(dataset)
        return store

    def test_recover_replays_mutations(self, tmp_path):
        ds = small_dataset()
        store = self._store(tmp_path, ds)
        ds.insert(make_object(100, seed=5))
        ds.delete(ds.ids[0])
        store.close()

        recovered = DurableStore(tmp_path / "db").recover()
        assert recovered.epoch == ds.epoch
        assert recovered.ids == ds.ids
        for oid in ds.ids:
            assert np.array_equal(
                recovered[oid].instances, ds[oid].instances
            )

    def test_double_replay_is_idempotent(self, tmp_path):
        ds = small_dataset()
        store = self._store(tmp_path, ds)
        ds.insert(make_object(100, seed=5))
        ds.insert(make_object(101, seed=6))
        store.close()

        path = tmp_path / "db"
        recovered = DurableStore(path).recover()
        records, _valid, _damaged = WriteAheadLog.scan(
            DurableStore(path).wal_path
        )
        # Replaying the already-applied log again changes nothing.
        DurableStore._replay(recovered, records)
        assert recovered.epoch == ds.epoch
        assert recovered.ids == ds.ids

    def test_snapshot_newer_than_wal_tail(self, tmp_path):
        # A crash between snapshot publication and WAL truncation: the
        # snapshot already contains every WAL record.  Recovery must
        # skip them all instead of double-applying.
        ds = small_dataset()
        store = self._store(tmp_path, ds)
        ds.insert(make_object(100, seed=5))
        wal_bytes = (tmp_path / "db" / "wal.log").read_bytes()
        store.checkpoint()  # snapshot now at the live epoch, WAL reset
        store.close()
        # Restore the stale (pre-truncation) WAL beside the new snapshot.
        (tmp_path / "db" / "wal.log").write_bytes(wal_bytes)

        recovered = DurableStore(tmp_path / "db").recover()
        assert recovered.epoch == ds.epoch
        assert recovered.ids == ds.ids

    def test_epoch_gap_raises(self, tmp_path):
        ds = small_dataset()
        store = self._store(tmp_path, ds)
        ds.insert(make_object(100, seed=5))  # epoch 1
        store.close()
        # Forge a record that skips epoch 2.
        with WriteAheadLog(tmp_path / "db" / "wal.log") as wal:
            wal.append(3, OP_DELETE, encode_delete(100))
        with pytest.raises(RecoveryError, match="not contiguous"):
            DurableStore(tmp_path / "db").recover()

    def test_torn_wal_tail_recovers_prefix(self, tmp_path):
        ds = small_dataset()
        store = self._store(tmp_path, ds)
        ds.insert(make_object(100, seed=5))
        ds.insert(make_object(101, seed=6))
        store.close()
        wal_path = tmp_path / "db" / "wal.log"
        wal_path.write_bytes(wal_path.read_bytes()[:-5])

        recovered = DurableStore(tmp_path / "db").recover()
        # The torn second insert is lost; the first survives.
        assert recovered.epoch == ds.epoch - 1
        assert 100 in recovered and 101 not in recovered

    def test_attach_truncates_damage_then_logs(self, tmp_path):
        ds = small_dataset()
        store = self._store(tmp_path, ds)
        ds.insert(make_object(100, seed=5))
        store.close()
        wal_path = tmp_path / "db" / "wal.log"
        wal_path.write_bytes(wal_path.read_bytes() + b"\x07garbage")

        store2 = DurableStore(tmp_path / "db")
        recovered = store2.recover()
        store2.attach(recovered)
        recovered.insert(make_object(102, seed=7))
        store2.close()
        records, _valid, damaged = WriteAheadLog.scan(wal_path)
        assert not damaged
        assert [r.epoch for r in records] == [1, 2]

    def test_closed_store_refuses_mutations(self, tmp_path):
        ds = small_dataset()
        store = self._store(tmp_path, ds)
        store.close()
        before = ds.epoch
        with pytest.raises(RuntimeError, match="unlogged"):
            ds.insert(make_object(100, seed=5))
        assert ds.epoch == before  # aborted before any state change

    def test_recover_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="snapshot"):
            DurableStore(tmp_path / "empty").recover()

    def test_fsync_off_still_recovers_flushed_log(self, tmp_path):
        ds = small_dataset()
        store = DurableStore(tmp_path / "db", fsync="off")
        store.initialize(ds)
        store.attach(ds)
        ds.insert(make_object(100, seed=5))
        store.close()  # close flushes
        recovered = DurableStore(tmp_path / "db").recover()
        assert recovered.epoch == ds.epoch


class TestMutationListeners:
    def test_listener_fires_pre_apply_with_next_epoch(self):
        ds = small_dataset()
        seen = []
        ds.add_mutation_listener(
            lambda op, obj, epoch: seen.append((op, obj.oid, epoch, ds.epoch))
        )
        obj = make_object(100, seed=5)
        ds.insert(obj)
        ds.delete(100)
        # Fired with the commit epoch while the dataset is still at the
        # previous one (write-ahead ordering).
        assert seen == [("insert", 100, 1, 0), ("delete", 100, 2, 1)]

    def test_failing_listener_aborts_mutation(self):
        ds = small_dataset()

        def veto(op, obj, epoch):
            raise OSError("disk full")

        ds.add_mutation_listener(veto)
        with pytest.raises(OSError):
            ds.insert(make_object(100, seed=5))
        assert 100 not in ds and ds.epoch == 0
        with pytest.raises(OSError):
            ds.delete(ds.ids[0])
        assert len(ds) == 10 and ds.epoch == 0

    def test_remove_listener(self):
        ds = small_dataset()
        calls = []
        listener = lambda *a: calls.append(a)  # noqa: E731
        ds.add_mutation_listener(listener)
        ds.remove_mutation_listener(listener)
        ds.remove_mutation_listener(listener)  # absent: no-op
        ds.insert(make_object(100, seed=5))
        assert calls == []

    def test_delete_validation_precedes_notification(self):
        ds = small_dataset(n=2)
        calls = []
        ds.add_mutation_listener(lambda *a: calls.append(a))
        with pytest.raises(KeyError):
            ds.delete(12345)
        ds.delete(ds.ids[0])
        with pytest.raises(ValueError, match="last object"):
            ds.delete(ds.ids[0])
        assert len(calls) == 1  # only the one applied delete was logged


    def test_durable_log_runs_after_every_listener(self, tmp_path):
        """A listener added after attach still runs before the WAL
        append, so its veto leaves nothing logged."""
        ds = small_dataset()
        store = DurableStore(tmp_path / "db")
        store.initialize(ds)
        store.attach(ds)
        order = []

        def veto(op, obj, epoch):
            order.append("listener")
            raise RuntimeError("veto")

        ds.add_mutation_listener(veto)
        with pytest.raises(RuntimeError):
            ds.insert(make_object(100, seed=5))
        assert order == ["listener"]
        assert WriteAheadLog.scan(store.wal_path)[0] == []
        with pytest.raises(RuntimeError, match="already has"):
            ds.set_mutation_log(lambda *a: None)
        store.close()

    def test_replay_refuses_a_repeated_epoch(self, tmp_path):
        """The log holds only committed mutations, one per epoch, so
        two records at one epoch past the snapshot are damage, not a
        choice to make; recovery refuses and releases the directory."""
        ds = small_dataset()
        store = DurableStore(tmp_path / "db")
        store.initialize(ds)
        store.close()
        wal = WriteAheadLog(store.wal_path)
        wal.append(1, OP_INSERT, encode_insert(make_object(100, seed=5)))
        wal.append(1, OP_INSERT, encode_insert(make_object(101, seed=6)))
        wal.close()
        for _ in range(2):  # the first refusal released the lock
            with pytest.raises(RecoveryError, match="not contiguous"):
                DurableStore(tmp_path / "db").recover()


class TestSnapshotTail:
    """``snapshot.bin`` is one plain base image; checkpoints keep the
    WAL and merge it into a fresh image once the pair has grown."""

    def _store(self, tmp_path, dataset):
        store = DurableStore(tmp_path / "db")
        store.initialize(dataset)
        store.attach(dataset)
        return store

    @staticmethod
    def _assert_same(recovered, live):
        assert recovered.epoch == live.epoch
        assert recovered.ids == live.ids
        for oid in live.ids:
            assert np.array_equal(recovered[oid].instances, live[oid].instances)
            assert np.array_equal(recovered[oid].weights, live[oid].weights)
            assert np.array_equal(recovered[oid].region.lo, live[oid].region.lo)
            assert np.array_equal(recovered[oid].region.hi, live[oid].region.hi)

    def test_delete_heavy_sequence_merges_exactly_once(
        self, tmp_path, monkeypatch
    ):
        ds = small_dataset(n=40)
        store = self._store(tmp_path, ds)
        exports = []
        real_export = InstanceStore.export_file

        def counting_export(self, path):
            exports.append(path)
            return real_export(self, path)

        monkeypatch.setattr(InstanceStore, "export_file", counting_export)
        db_dir = tmp_path / "db"
        snap_path = db_dir / "snapshot.bin"
        on_disk, fresh = [], []
        for _ in range(12):
            ds.delete(ds.ids[0])
            ds.delete(ds.ids[-1])
            on_disk.append(
                snap_path.stat().st_size + (db_dir / "wal.log").stat().st_size
            )
            rows = sum(o.n_instances for o in ds)
            fresh.append(image_nbytes(len(ds), rows, ds.dims))
            assert store.checkpoint() == ds.epoch
        assert len(exports) == 1
        merged = next(
            i for i in range(12) if on_disk[i] > MERGE_FACTOR * fresh[i]
        )
        # The merge wrote a fresh export of the live store and reset
        # the WAL; the later checkpoints only synced the log.
        assert snap_path.stat().st_size == fresh[merged]
        records = WriteAheadLog.scan(store.wal_path)[0]
        assert [r.epoch for r in records] == list(
            range(2 * merged + 3, ds.epoch + 1)
        )
        store.close()
        self._assert_same(DurableStore(tmp_path / "db").recover(), ds)


class TestLayoutVersion:
    """Snapshots of another layout version are refused, not misread."""

    @staticmethod
    def _rewrite_version(path, version):
        data = bytearray(path.read_bytes())
        data[8:16] = np.int64(version).tobytes()
        path.write_bytes(bytes(data))

    def test_version_2_image_is_refused(self, tmp_path):
        ds = small_dataset()
        image = tmp_path / "image.bin"
        ds.instance_store().export_file(image)
        attach_file(image).close()  # the current version maps
        self._rewrite_version(image, 2)
        with pytest.raises(ValueError, match="layout version 2"):
            attach_file(image)

    def test_version_2_directory_is_refused_by_open(self, tmp_path):
        from repro.api import Database

        path = tmp_path / "db"
        Database.open(str(path), dataset=small_dataset()).close()
        self._rewrite_version(path / "snapshot.bin", 2)
        with pytest.raises(ValueError, match="layout version 2"):
            Database.open(str(path))
        # The refusal released the single-writer lock.
        with pytest.raises(ValueError, match="layout version 2"):
            Database.open(str(path))
