"""Snapshot + WAL durability for an uncertain dataset.

A durable database directory holds exactly two files:

* ``snapshot.bin`` — one *base image*: an :class:`~repro.uncertain.
  store.InstanceStore` image written by :meth:`~repro.uncertain.store.
  InstanceStore.export_file` (the image the process pool's workers
  also map: magic, layout version, epoch, n, size, dims, then the
  packed blocks).
* ``wal.log`` — a :class:`~repro.storage.wal.WriteAheadLog` of every
  mutation applied since the base image was written, keyed by the
  dataset's monotonic mutation epoch.  It is the only record of what
  changed.

The contract:

* **Log last, before apply.**  :meth:`attach` installs the dataset's
  mutation log, which appends (and, under ``fsync="always"``, syncs)
  the WAL record after every mutation listener has run and *before*
  the in-memory mutation commits.  A listener that vetoes aborts the
  mutation before anything is logged, and a WAL append that fails
  aborts it too, so the log holds exactly the committed mutations and
  memory never runs ahead of it.
* **Recover = base image + contiguous replay.**  :meth:`recover` maps
  the base image zero-copy and replays every WAL record with a later
  epoch, demanding the epochs be exactly contiguous.  Records at or
  below the image's epoch are skipped, so a crash between a merge's
  rename and the WAL reset is harmless.
* **Checkpoint = sync the log; merge once it has grown.**
  :meth:`checkpoint` fsyncs the WAL.  Only when ``snapshot.bin`` plus
  ``wal.log`` would pass :data:`MERGE_FACTOR` times the size of a
  fresh export of the live store does it merge: write the live store
  as a fresh base image (tmp file + fsync + atomic rename + directory
  fsync), then reset the WAL.  That bounds the disk space the log and
  the dead rows of deleted objects take, and the replay work of the
  next open.  Every crash point leaves either the old image + full WAL
  or the new image + (possibly still full, harmlessly skipped) WAL.
* **Torn tails are expected.**  A SIGKILL mid-append leaves a
  truncated or CRC-broken final WAL record.  Scanning stops at the
  first one, :meth:`attach` truncates it before appending, and the
  lost record was never acknowledged.
"""

from __future__ import annotations

import os

try:  # POSIX only; single-writer locking degrades gracefully without
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from ..analysis.locks import make_lock
from ..geometry import Rect
from ..testing.faults import check as _fault_check
from ..uncertain.dataset import UncertainDataset
from ..uncertain.objects import UncertainObject
from ..uncertain.store import attach_file, image_nbytes
from .wal import (
    OP_DELETE,
    OP_INSERT,
    WalRecord,
    WriteAheadLog,
    encode_delete,
    encode_insert,
)

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
#: image and resets the WAL) when ``snapshot.bin`` plus ``wal.log``
#: exceed this many times the size of a fresh export of the live store.
MERGE_FACTOR = 2


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
        dataset.instance_store().export_file(self.snapshot_path)
        if os.path.exists(self.wal_path):
            os.unlink(self.wal_path)
        WriteAheadLog(self.wal_path, fsync=self.fsync).close()

    def recover(self) -> UncertainDataset:
        """Rebuild the dataset: map the base image, replay the WAL.

        Raises
        ------
        ValueError
            When ``snapshot.bin`` is not a current image: wrong magic,
            another layout version (a directory written by an older
            release), or truncated.
        RecoveryError
            When the snapshot is missing, a WAL record after the
            image's epoch breaks contiguity, or a replayed mutation
            fails to apply.
        """
        if not os.path.exists(self.snapshot_path):
            raise RecoveryError(
                f"{self.path}: no {SNAPSHOT_FILE}; not a durable "
                "database directory"
            )
        self._acquire_lock()
        try:
            snap = attach_file(self.snapshot_path)
            try:
                dataset = UncertainDataset(
                    snap.build_objects(),
                    domain=Rect(snap.domain[0], snap.domain[1]),
                    epoch=snap.epoch,
                )
            finally:
                snap.close()
            records, _valid, _damaged = WriteAheadLog.scan(self.wal_path)
            self._replay(dataset, records)
        except BaseException:
            self._release_lock()
            raise
        return dataset

    @staticmethod
    def _replay(
        dataset: UncertainDataset, records: list[WalRecord]
    ) -> None:
        """Apply WAL records onto a snapshot-recovered dataset.

        Records at or below the image's epoch are already in it and
        are skipped; every other record must carry the next epoch.
        """
        base = dataset.epoch
        for rec in records:
            if rec.epoch <= base:
                continue  # already in the snapshot: replay is idempotent
            if rec.epoch != dataset.epoch + 1:
                raise RecoveryError(
                    f"WAL record at epoch {rec.epoch} follows epoch "
                    f"{dataset.epoch}; the log is not contiguous"
                )
            op, value = rec.decode()
            try:
                if op == "insert":
                    assert isinstance(value, UncertainObject)
                    dataset.insert(value)
                else:
                    assert isinstance(value, int)
                    dataset.delete(value)
            except (KeyError, ValueError) as exc:
                raise RecoveryError(
                    f"WAL epoch {rec.epoch} ({op}) failed to "
                    f"replay: {exc}"
                ) from exc

    def attach(self, dataset: UncertainDataset) -> None:
        """Start logging ``dataset``'s mutations into the WAL.

        Opens the WAL for appending (truncating any torn tail left by a
        crash) and installs the dataset's mutation log, which runs after
        every mutation listener.  The dataset's epoch must already
        reflect every intact WAL record — i.e. it came from
        :meth:`recover` or :meth:`initialize`.
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
        """Make every mutation up to the live epoch durable; returns it.

        Fsyncs the WAL, which holds every mutation since the base
        image.  When ``snapshot.bin`` plus ``wal.log`` exceed
        :data:`MERGE_FACTOR` times the size of a fresh export of the
        live store, it also merges: the live store is written as a
        fresh base image (tmp file, fsync, atomic rename, directory
        fsync) *before* the WAL is reset, so a crash at any point
        recovers correctly.  Callers quiesce mutations for a merge
        (``Database.checkpoint`` holds the database lock; the process
        pool checkpoints inside its fence).  Serialized against
        concurrent checkpoints and :meth:`close` under one lock — a
        ``Database.close()`` racing a pool fence's checkpoint must not
        double-reset the WAL or close it under a merge's feet.
        """
        with self._ckpt_lock:
            dataset, wal = self._dataset, self._wal
            if dataset is None or wal is None:
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
            epoch = dataset.epoch  # logged before it committed
            wal.flush()
            store = dataset.instance_store()
            on_disk = os.path.getsize(self.snapshot_path) + os.path.getsize(
                self.wal_path
            )
            fresh = image_nbytes(len(store), store.total_samples, store.dims)
            if on_disk > MERGE_FACTOR * fresh:
                epoch = store.export_file(self.snapshot_path)
                _fault_check("durable.wal_reset")
                wal.reset()
            return epoch

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
