"""Snapshot + WAL durability for an uncertain dataset.

A durable database directory holds exactly two files:

* ``snapshot.bin`` — a *base image* followed by zero or more *tail
  records*.  The base image is an :class:`~repro.uncertain.store.
  InstanceStore` image written by :meth:`~repro.uncertain.store.
  InstanceStore.export_file` (the image the process pool's workers
  also map: magic, layout version, epoch, n, size, dims).  Each
  tail record (:func:`~repro.uncertain.store.encode_tail`) carries the
  net change between two checkpoints — ``epoch_from``, ``epoch_to``,
  the oids deleted and the inserted objects' packed blocks — framed by
  its length and a CRC32.
* ``wal.log`` — a :class:`~repro.storage.wal.WriteAheadLog` of every
  mutation applied since the last checkpoint, keyed by the dataset's
  monotonic mutation epoch.

The contract:

* **Log last, before apply.**  :meth:`attach` installs the dataset's
  mutation log, which appends (and, under ``fsync="always"``, syncs)
  the WAL record after every mutation listener has run and *before*
  the in-memory mutation commits.  A listener that vetoes aborts the
  mutation before anything is logged, and a WAL append that fails
  aborts it too, so the log holds exactly the committed mutations and
  memory never runs ahead of it.  The log also remembers the mutation
  for the next checkpoint.
* **Recover = base + tail + contiguous replay.**  :meth:`recover` maps
  the base image zero-copy, applies every intact tail record in order
  (drop its deleted oids, append its objects, which reproduces the
  live ids order), demanding each record start at the epoch the
  previous one ended at, and then replays every WAL record with a
  later epoch, demanding the epochs be exactly contiguous.  Records
  at or below the snapshot's epoch are skipped — replay is
  idempotent, so a crash between a checkpoint and WAL truncation is
  harmless.
* **Checkpoint = append what changed.**  :meth:`checkpoint` folds the
  mutations logged since the previous checkpoint into one tail
  record (an object inserted and deleted again cancels out; a deleted
  oid inserted again goes last), appends it and fsyncs the file, and
  only then truncates the WAL.  Its cost follows the mutations it
  folds, not the size of the store.
* **Merge.**  When a new record would push ``snapshot.bin`` past
  :data:`MERGE_FACTOR` times the size of a fresh export of the live
  store, the checkpoint rewrites the file as a fresh base image
  instead (tmp file + fsync + atomic rename + directory fsync).  That
  bounds the space tail records and the dead rows of deleted objects
  take.  Every crash point leaves either the old file + full WAL or
  the new file + (possibly still full, harmlessly replayable) WAL.
* **Torn tails are expected.**  A SIGKILL mid-append leaves a
  truncated or CRC-broken final record, in the WAL or in the snapshot
  tail.  Scanning stops at the first one; recovery truncates a
  damaged snapshot tail before mapping the file (and so before the
  next append), :meth:`attach` truncates a damaged WAL before
  appending, and the WAL replays every mutation the lost record held.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, NamedTuple, TypeVar

try:  # POSIX only; single-writer locking degrades gracefully without
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from ..analysis.locks import make_lock
from ..geometry import Rect
from ..testing.faults import check as _fault_check
from ..uncertain.dataset import UncertainDataset
from ..uncertain.objects import UncertainObject
from ..uncertain.store import (
    attach_file,
    encode_tail,
    image_nbytes,
    scan_tail,
)
from .wal import (
    OP_DELETE,
    OP_INSERT,
    WalRecord,
    WriteAheadLog,
    encode_delete,
    encode_insert,
)

_T = TypeVar("_T")

__all__ = [
    "DurableStore",
    "RecoveryError",
    "StoreLocked",
    "StoreReadOnly",
    "SNAPSHOT_FILE",
    "WAL_FILE",
]

SNAPSHOT_FILE = "snapshot.bin"
WAL_FILE = "wal.log"

#: A checkpoint merges (rewrites ``snapshot.bin`` as one fresh base
#: image) instead of appending when the appended file would exceed
#: this many times the size of a fresh export of the live store.
MERGE_FACTOR = 2

#: One logged mutation: ``(epoch, op, object)``.
_Event = tuple[int, str, UncertainObject]


def _last_per_epoch(
    entries: Iterable[_T], epoch: Callable[[_T], int]
) -> dict[int, _T]:
    """The last entry logged at each epoch, in epoch order.

    Logs written before the WAL record became the last step of a
    mutation can hold an aborted mutation's record followed by the
    committed one that reused its epoch; the later one is the truth.
    """
    last: dict[int, _T] = {}
    for entry in entries:
        last[epoch(entry)] = entry
    return last


class _Image(NamedTuple):
    """What ``snapshot.bin`` reproduces: the epoch its last record ends
    at, its intact length, and the live objects and rows at that
    epoch."""

    epoch: int
    nbytes: int
    n: int
    rows: int


class RecoveryError(Exception):
    """The snapshot + WAL pair cannot reproduce a consistent dataset."""


class StoreLocked(RuntimeError):
    """Another live session already owns this database directory.

    The WAL admits exactly one writer: a second opener would interleave
    records and corrupt the epoch contiguity the recovery path demands.
    Close (or kill) the other session first — the ``flock`` is released
    automatically when its process exits, so a crashed owner never
    wedges the directory.
    """


class StoreReadOnly(RuntimeError):
    """The store degraded to read-only after a WAL write failure.

    Raised by every mutation (and by :meth:`DurableStore.checkpoint`)
    once a WAL append failed under ``on_wal_error="read_only"``: the
    log can no longer be trusted to record new epochs, so instead of
    half-logging mutations the store refuses them while reads keep
    being served from the intact in-memory dataset.  Everything logged
    *before* the failure is still durable and recovers normally.
    """


class DurableStore:
    """Owns a database directory's snapshot and WAL.

    Parameters
    ----------
    path:
        Directory holding ``snapshot.bin`` and ``wal.log``; created on
        :meth:`initialize`.
    fsync:
        WAL sync policy, forwarded to :class:`WriteAheadLog`.
        ``"always"`` (default) makes every mutation durable before it
        commits; ``"off"`` trades the tail of the log for speed.
    on_wal_error:
        What a failed WAL append does to the store.  ``"fail_stop"``
        (default) re-raises the I/O error — the mutation is aborted
        (log-before-apply: memory never ran ahead) and the caller
        decides whether to retry; every later mutation attempts the
        log again.  ``"read_only"`` degrades gracefully instead: the
        failing mutation and every later one raise
        :class:`StoreReadOnly` while reads keep working — no epoch is
        ever half-logged, and :attr:`read_only` reports the
        degradation.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fsync: str = "always",
        on_wal_error: str = "fail_stop",
    ):
        if on_wal_error not in ("fail_stop", "read_only"):
            raise ValueError(
                "on_wal_error must be 'fail_stop' or 'read_only', "
                f"not {on_wal_error!r}"
            )
        self.path = os.fspath(path)
        self.fsync = fsync
        self.on_wal_error = on_wal_error
        self._wal: WriteAheadLog | None = None
        self._dataset: UncertainDataset | None = None
        self._dir_fd: int | None = None  # flock holder (single writer)
        self._closed = False
        self._read_only = False
        #: What ``snapshot.bin`` holds, known after :meth:`initialize`
        #: or :meth:`recover`; ``None`` makes the next checkpoint merge.
        self._image: _Image | None = None
        #: Mutations logged since the last checkpoint (appended by the
        #: mutation log under the dataset's mutation lock).
        self._events: list[_Event] = []
        #: Serializes checkpoint against checkpoint *and* close: a
        #: ``Database.close()`` racing an in-flight checkpoint (e.g.
        #: from a process-pool fence) must not interleave two
        #: export+reset sequences on one WAL (double reset could drop
        #: records appended between them) nor close the WAL under a
        #: checkpoint's feet.
        self._ckpt_lock = make_lock("durable.ckpt_lock")

    # ------------------------------------------------------------------
    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.path, SNAPSHOT_FILE)

    @property
    def wal_path(self) -> str:
        return os.path.join(self.path, WAL_FILE)

    @classmethod
    def exists(cls, path: str | os.PathLike) -> bool:
        """True iff ``path`` looks like a durable database directory."""
        return os.path.exists(os.path.join(os.fspath(path), SNAPSHOT_FILE))

    # ------------------------------------------------------------------
    def _acquire_lock(self) -> None:
        """Take the directory-wide single-writer ``flock``.

        Idempotent while held.  The lock lives on the directory fd, so
        it conflicts between independent openers (other processes, or
        a second :class:`DurableStore` in this one) and evaporates when
        the owning process dies — no stale lockfiles to clean up.
        """
        if fcntl is None or self._dir_fd is not None:
            return
        fd = os.open(self.path, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise StoreLocked(
                f"{self.path}: another session holds this database "
                "(the WAL admits one writer); close it before opening "
                "a second Database"
            ) from None
        self._dir_fd = fd

    def _release_lock(self) -> None:
        if self._dir_fd is not None:
            os.close(self._dir_fd)  # closing the fd drops the flock
            self._dir_fd = None

    # ------------------------------------------------------------------
    def initialize(self, dataset: UncertainDataset) -> None:
        """Create the directory with a snapshot of ``dataset`` + empty WAL."""
        os.makedirs(self.path, exist_ok=True)
        self._acquire_lock()
        self._image = self._export(dataset)
        self._events = []
        if os.path.exists(self.wal_path):
            os.unlink(self.wal_path)
        WriteAheadLog(self.wal_path, fsync=self.fsync).close()

    def recover(self) -> UncertainDataset:
        """Rebuild the dataset: map the base image, apply the tail
        records, replay the WAL.

        A torn or CRC-broken tail record ends the tail: it and
        everything after it is truncated before the file is mapped,
        and the WAL (not yet reset when the record tore) replays the
        mutations it held.

        Raises
        ------
        RecoveryError
            When the snapshot is missing, a tail record does not start
            at the epoch the previous one ended at or does not apply,
            a WAL record skips an epoch, or a replayed mutation fails
            to apply.
        """
        if not os.path.exists(self.snapshot_path):
            raise RecoveryError(
                f"{self.path}: no {SNAPSHOT_FILE}; not a durable "
                "database directory"
            )
        self._acquire_lock()
        offsets, valid, damaged = scan_tail(self.snapshot_path)
        if damaged:
            with open(self.snapshot_path, "r+b") as fh:
                fh.truncate(valid)
                os.fsync(fh.fileno())
        snap = attach_file(self.snapshot_path)
        try:
            objects = {obj.oid: obj for obj in snap.build_objects()}
            epoch, rows = snap.epoch, snap.size
            for offset in offsets:
                record = snap.tail(offset)
                if record.epoch_from != epoch:
                    raise RecoveryError(
                        f"{SNAPSHOT_FILE} tail record starts at epoch "
                        f"{record.epoch_from}, not at {epoch} where the "
                        "snapshot before it ends"
                    )
                for oid in record.deleted:
                    gone = objects.pop(oid, None)
                    if gone is None:
                        raise RecoveryError(
                            f"{SNAPSHOT_FILE} tail record to epoch "
                            f"{record.epoch_to} deletes unknown oid {oid}"
                        )
                    rows -= gone.n_instances
                for obj in record.objects:
                    if obj.oid in objects:
                        raise RecoveryError(
                            f"{SNAPSHOT_FILE} tail record to epoch "
                            f"{record.epoch_to} inserts live oid {obj.oid}"
                        )
                    objects[obj.oid] = obj
                    rows += obj.n_instances
                epoch = record.epoch_to
            dataset = UncertainDataset(
                objects.values(),
                domain=Rect(snap.domain[0], snap.domain[1]),
                epoch=epoch,
            )
        finally:
            snap.close()
        self._image = _Image(epoch, valid, len(dataset), rows)
        records, _valid, _damaged = WriteAheadLog.scan(self.wal_path)
        self._events = self._replay(dataset, records)
        return dataset

    @staticmethod
    def _replay(
        dataset: UncertainDataset, records: list[WalRecord]
    ) -> list[_Event]:
        """Apply WAL records onto a snapshot-recovered dataset; returns
        the applied mutations (the next checkpoint's tail)."""
        applied: list[_Event] = []
        for rec in _last_per_epoch(records, lambda r: r.epoch).values():
            if rec.epoch <= dataset.epoch:
                continue  # already in the snapshot: replay is idempotent
            if rec.epoch != dataset.epoch + 1:
                raise RecoveryError(
                    f"WAL skips from epoch {dataset.epoch} to "
                    f"{rec.epoch}; the log is not contiguous"
                )
            op, value = rec.decode()
            try:
                if op == "insert":
                    assert isinstance(value, UncertainObject)
                    dataset.insert(value)
                    obj = value
                else:
                    assert isinstance(value, int)
                    obj = dataset.delete(value)
            except (KeyError, ValueError) as exc:
                raise RecoveryError(
                    f"WAL epoch {rec.epoch} ({op}) failed to "
                    f"replay: {exc}"
                ) from exc
            applied.append((rec.epoch, op, obj))
        return applied

    def attach(self, dataset: UncertainDataset) -> None:
        """Start logging ``dataset``'s mutations into the WAL.

        Opens the WAL for appending (truncating any torn tail left by a
        crash) and installs the dataset's mutation log, which runs after
        every mutation listener.  The dataset's
        epoch must already reflect every intact WAL record — i.e. it
        came from :meth:`recover` or was just checkpointed.
        """
        if self._dataset is not None:
            raise RuntimeError("DurableStore is already attached")
        self._acquire_lock()
        _records, valid, damaged = WriteAheadLog.scan(self.wal_path)
        wal = WriteAheadLog(self.wal_path, fsync=self.fsync)
        if damaged:
            wal.truncate_to(valid)
        self._wal = wal

        def _on_mutation(op: str, obj, epoch: int) -> None:
            if self._closed:
                raise RuntimeError(
                    "durable store is closed; refusing an unlogged "
                    "mutation"
                )
            if self._read_only:
                raise StoreReadOnly(
                    f"{self.path}: store is read-only after a WAL "
                    "write failure; mutations are refused"
                )
            try:
                if op == "insert":
                    wal.append(epoch, OP_INSERT, encode_insert(obj))
                else:
                    wal.append(epoch, OP_DELETE, encode_delete(obj.oid))
                self._events.append((epoch, op, obj))
            except OSError as exc:
                # The append healed the log back to the last record
                # boundary; the log runs pre-apply, so raising here
                # aborts the mutation with memory untouched.
                if self.on_wal_error == "read_only":
                    self._read_only = True
                    raise StoreReadOnly(
                        f"{self.path}: WAL append for epoch {epoch} "
                        f"failed ({exc}); degrading to read-only — "
                        "this and later mutations are refused, reads "
                        "and already-logged epochs are unaffected"
                    ) from exc
                raise

        dataset.set_mutation_log(_on_mutation)
        self._dataset = dataset

    def checkpoint(self) -> int:
        """Make the snapshot reproduce the live epoch, then truncate the
        WAL; returns the epoch.

        Appends one tail record with the net change since the previous
        checkpoint, or merges (rewrites the whole file) when appending
        would pass :data:`MERGE_FACTOR` times a fresh export's size.
        The snapshot is durable (fsync; after a merge, also the atomic
        rename and directory fsync) *before* the WAL is reset, so a
        crash at any point recovers correctly.  Serialized against
        concurrent checkpoints and :meth:`close` under one lock — a
        ``Database.close()`` racing a pool fence's checkpoint must not
        double-reset the WAL (the second reset would drop records
        appended between them).
        """
        with self._ckpt_lock:
            dataset = self._dataset
            if dataset is None:
                raise RuntimeError(
                    "DurableStore is not attached to a dataset"
                )
            if self._closed:
                raise RuntimeError("durable store is closed")
            if self._read_only:
                raise StoreReadOnly(
                    f"{self.path}: store is read-only after a WAL "
                    "write failure; refusing to checkpoint (the "
                    "on-disk state is the last trustworthy one)"
                )
            _fault_check("durable.checkpoint")
            with dataset.mutation_lock():
                epoch, delta = self._fold(dataset)
            image = self._image
            if image is None or delta is None:
                image = self._export(dataset)
            elif epoch != image.epoch:
                deleted, inserted = delta
                record = encode_tail(
                    image.epoch, epoch, list(deleted),
                    list(inserted.values()), dataset.domain,
                )
                n = image.n - len(deleted) + len(inserted)
                rows = (
                    image.rows
                    - sum(o.n_instances for o in deleted.values())
                    + sum(o.n_instances for o in inserted.values())
                )
                grown = image.nbytes + len(record)
                if grown > MERGE_FACTOR * image_nbytes(n, rows, dataset.dims):
                    image = self._export(dataset)
                else:
                    self._append_tail(record, image.nbytes)
                    image = _Image(epoch, grown, n, rows)
            self._image = image
            with dataset.mutation_lock():
                self._events = [
                    e for e in self._events if e[0] > image.epoch
                ]
            _fault_check("durable.wal_reset")
            assert self._wal is not None
            self._wal.reset()
            return image.epoch

    def _fold(
        self, dataset: UncertainDataset
    ) -> tuple[int, tuple[dict[int, UncertainObject],
                          dict[int, UncertainObject]] | None]:
        """The net change since the last checkpoint (mutation lock held).

        Returns ``(epoch, (deleted, inserted))``: the live epoch, the
        objects the snapshot holds that are gone (oid -> object) and
        the objects to append in ids order (oid -> object).  The delta
        is ``None`` when the logged mutations do not reproduce the
        dataset — a committed epoch was never logged, or the counts or
        objects disagree — and the checkpoint then merges.  Epochs
        follow :meth:`_replay`'s rule: the last record at each wins.
        """
        epoch, image = dataset.epoch, self._image
        if image is None:
            return epoch, None
        committed = _last_per_epoch(self._events, lambda ev: ev[0])
        deleted: dict[int, UncertainObject] = {}
        inserted: dict[int, UncertainObject] = {}
        for e in range(image.epoch + 1, epoch + 1):
            if e not in committed:
                return epoch, None
            _, op, obj = committed[e]
            if op == "insert":
                inserted[obj.oid] = obj
            elif inserted.pop(obj.oid, None) is None:
                deleted[obj.oid] = obj
        if len(dataset) != image.n - len(deleted) + len(inserted) or any(
            dataset.get(oid) is not obj for oid, obj in inserted.items()
        ):
            return epoch, None
        return epoch, (deleted, inserted)

    def _export(self, dataset: UncertainDataset) -> _Image:
        """Write ``dataset`` as a fresh base image (initialize / merge)."""
        store = dataset.instance_store()
        epoch = store.export_file(self.snapshot_path)
        n, rows = len(store), store.total_samples
        return _Image(epoch, image_nbytes(n, rows, store.dims), n, rows)

    def _append_tail(self, record: bytes, start: int) -> None:
        """Append one tail record at ``start`` and fsync the file.

        Bytes a failed earlier append may have left past ``start`` are
        dropped first, and a failure here truncates back to ``start``
        before it propagates, so no half record sits in front of the
        next one.
        """
        fd = os.open(self.snapshot_path, os.O_WRONLY)
        try:
            os.ftruncate(fd, start)
            view, written = memoryview(record), 0
            while written < len(view):
                written += os.pwrite(fd, view[written:], start + written)
            _fault_check("durable.tail_append")
            os.fsync(fd)
        except OSError:
            try:
                os.ftruncate(fd, start)
            except OSError:  # pragma: no cover - disk truly gone
                pass
            raise
        finally:
            os.close(fd)

    @property
    def read_only(self) -> bool:
        """True once a WAL failure degraded the store (read_only policy)."""
        return self._read_only

    def close(self) -> None:
        """Detach from the dataset and close the WAL.

        Further mutations of a still-referenced dataset raise rather
        than silently going unlogged.  Waits out any in-flight
        checkpoint so the WAL is never closed under its feet.
        """
        with self._ckpt_lock:
            if self._closed:
                return
            self._closed = True
            if self._wal is not None:
                self._wal.close()
            self._release_lock()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "attached" if self._dataset is not None else "detached"
        )
        return f"DurableStore(path={self.path!r}, {state})"
