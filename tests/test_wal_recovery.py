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
from repro.uncertain.store import encode_tail, image_nbytes, scan_tail


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


class TestSnapshotTail:
    """Checkpoints append tail records to ``snapshot.bin``."""

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

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_tail_recovers_earlier_records_plus_wal(
        self, tmp_path, damage
    ):
        ds = small_dataset()
        store = self._store(tmp_path, ds)
        ds.insert(make_object(100, seed=5))
        ds.delete(ds.ids[0])
        store.checkpoint()  # first tail record, intact
        snap_path = tmp_path / "db" / "snapshot.bin"
        intact = snap_path.stat().st_size
        ds.insert(make_object(101, seed=6))
        ds.delete(ds.ids[1])
        # The crash tears the second record before the WAL reset, so
        # the WAL still holds both of its mutations.
        wal_bytes = (tmp_path / "db" / "wal.log").read_bytes()
        store.checkpoint()
        store.close()
        (tmp_path / "db" / "wal.log").write_bytes(wal_bytes)
        data = bytearray(snap_path.read_bytes())
        if damage == "truncate":
            data = data[: (intact + len(data)) // 2]
        else:
            data[len(data) - 9] ^= 0x01  # one bit of the last record
        snap_path.write_bytes(bytes(data))

        store2 = DurableStore(tmp_path / "db")
        recovered = store2.recover()
        self._assert_same(recovered, ds)
        # Recovery truncated the damage before mapping the file...
        assert snap_path.stat().st_size == intact
        # ...so the next checkpoint appends cleanly behind record one.
        store2.attach(recovered)
        recovered.insert(make_object(102, seed=7))
        store2.checkpoint()
        store2.close()
        offsets, valid, damaged = scan_tail(snap_path)
        assert len(offsets) == 2 and not damaged
        assert valid == snap_path.stat().st_size
        self._assert_same(DurableStore(tmp_path / "db").recover(), recovered)

    def test_reinserted_oid_goes_last_and_cancelled_insert_vanishes(
        self, tmp_path
    ):
        ds = small_dataset()
        store = self._store(tmp_path, ds)
        store.checkpoint()
        victim = ds.ids[2]
        ds.delete(victim)
        ds.insert(make_object(100, seed=5))
        ds.insert(make_object(victim, seed=6))  # same oid, new pdf
        ds.insert(make_object(101, seed=7))
        ds.delete(101)  # inserted and deleted again: cancels out
        store.checkpoint()
        store.close()
        assert ds.ids[-2:] == [100, victim]

        snap_path = tmp_path / "db" / "snapshot.bin"
        offsets, _valid, damaged = scan_tail(snap_path)
        assert len(offsets) == 1 and not damaged
        snap = attach_file(snap_path)
        record = snap.tail(offsets[0])
        assert (record.epoch_from, record.epoch_to) == (0, ds.epoch)
        assert record.deleted == [victim]
        assert [o.oid for o in record.objects] == [100, victim]
        snap.close()
        self._assert_same(DurableStore(tmp_path / "db").recover(), ds)

    def test_epoch_chain_break_raises(self, tmp_path):
        ds = small_dataset()
        store = self._store(tmp_path, ds)
        ds.insert(make_object(100, seed=5))
        store.checkpoint()
        store.close()
        # A record that claims to start two epochs after the first
        # one ends cannot follow it.
        obj = make_object(101, seed=6)
        with open(tmp_path / "db" / "snapshot.bin", "ab") as fh:
            fh.write(encode_tail(3, 4, [], [obj], ds.domain))
        with pytest.raises(RecoveryError, match="starts at epoch 3"):
            DurableStore(tmp_path / "db").recover()

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
        snap_path = tmp_path / "db" / "snapshot.bin"
        sizes = [snap_path.stat().st_size]
        fresh = []
        for _ in range(12):
            ds.delete(ds.ids[0])
            ds.delete(ds.ids[-1])
            store.checkpoint()
            sizes.append(snap_path.stat().st_size)
            rows = sum(o.n_instances for o in ds)
            fresh.append(image_nbytes(len(ds), rows, ds.dims))
        assert len(exports) == 1
        merged = next(i for i in range(12) if sizes[i + 1] < sizes[i])
        # The merge came at the first checkpoint whose append would
        # have passed MERGE_FACTOR x a fresh export...
        for i in range(merged):
            assert sizes[i + 1] <= MERGE_FACTOR * fresh[i]
        assert sizes[merged + 1] == fresh[merged]
        grown = sizes[merged] + (sizes[1] - sizes[0])
        assert grown > MERGE_FACTOR * fresh[merged]
        # ...and left a plain base image plus the later tail records.
        offsets, _valid, _damaged = scan_tail(snap_path)
        assert len(offsets) == 12 - merged - 1
        store.close()
        self._assert_same(DurableStore(tmp_path / "db").recover(), ds)

    @pytest.mark.parametrize("n", [200, 4000])
    def test_checkpoint_growth_follows_the_inserts_not_n(self, tmp_path, n):
        ds = small_dataset(n=n)
        store = self._store(tmp_path, ds)
        snap_path = tmp_path / "db" / "snapshot.bin"
        before = snap_path.stat().st_size
        k, m, d = 5, 4, ds.dims
        for i in range(k):
            ds.insert(make_object(1_000_000 + i, seed=i))
        store.checkpoint()
        store.close()
        # Per object: oid, offset, region corners, weights, instances.
        per_object = 8 + 8 + 2 * d * 8 + m * 8 + m * d * 8
        # Per record: frame (length, CRC, pad), eight header words,
        # the leading zero offset and the domain corners.
        header = 16 + 8 * 8 + 8 + 2 * d * 8
        assert snap_path.stat().st_size - before == k * per_object + header
