"""Packed instance storage — the Step-2 kernel's data layout.

Step 2 (probability computation) touches every candidate's discrete
pdf.  Reading those through per-object ``UncertainObject.instances``
arrays costs a dict lookup, an attribute fetch, and a separate numpy
dispatch per object per query — the Python-level overhead that made PC
wall-clock swamp OR in the paper's Figure 9(b) split.  The
:class:`InstanceStore` packs every object's instances into one
contiguous ``(total_samples, d)`` matrix with an offsets table (the
classic variable-length-rows layout), so a whole candidate set is
gathered with one fancy-index operation and the kernel runs on a dense
``(n, m, d)`` block.

The store is **epoch-aware** and **incrementally maintained**: the
owning :class:`~repro.uncertain.dataset.UncertainDataset` applies every
:meth:`insert` / :meth:`delete` to it in the same mutation (appends are
amortized O(m) via capacity doubling; deletes compact the packed
arrays), and the store records the epoch it is valid for.  A store
built standalone against a dataset that has since mutated refuses to
gather — the same ``check_index_in_sync`` contract the maintained
Step-1 indexes follow.
"""

from __future__ import annotations

import os
import secrets
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .objects import UncertainObject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .dataset import UncertainDataset

__all__ = [
    "GatherBlock",
    "InstanceStore",
    "MappedSnapshot",
    "SharedInstanceStore",
    "SharedStoreHandle",
    "TailRecord",
    "attach_file",
    "attach_shared",
    "encode_tail",
    "image_nbytes",
    "scan_tail",
]

#: First header word of every shared-store segment; an attach that
#: does not find it is pointed at something that is not ours.
_SHM_MAGIC = 0x5245_5052_4F53_544F  # "REPROSTO"
#: Bump when the packed segment layout changes; attaches refuse a
#: mismatch instead of misreading bytes.  Version 2 snapshot files may
#: carry tail records after the base image, which a version-1 reader
#: would silently ignore.
_SHM_LAYOUT_VERSION = 2
#: int64 header words: magic, version, epoch, n, size, dims, 2 spare.
_SHM_HEADER_WORDS = 8
#: First header word of a tail record appended to a snapshot file.
_TAIL_MAGIC = 0x5245_5052_4F54_4149  # "REPROTAI"
#: Tail record frame: body length (u64), CRC32 of length + body (u32),
#: and a zero pad word that keeps the body 8-byte aligned.
_TAIL_FRAME = struct.Struct("<QII")


@dataclass(frozen=True)
class GatherBlock:
    """One candidate set's pdfs as dense padded arrays.

    Objects may carry different instance counts; rows are padded to the
    longest by replicating the object's last instance with **zero
    weight**, which is invisible to every downstream computation
    (padded entries add nothing to cumulative weights or final dot
    products).  ``lengths`` records the true per-object counts.
    """

    #: ``(n, m_max, d)`` padded instance coordinates.
    instances: np.ndarray
    #: ``(n, m_max)`` instance weights; exactly 0.0 on padding.
    weights: np.ndarray
    #: ``(n,)`` true instance counts per object.
    lengths: np.ndarray

    @property
    def uniform(self) -> bool:
        """True when no padding was needed (all objects share one m)."""
        return bool(
            (self.lengths == self.instances.shape[1]).all()
        )


class InstanceStore:
    """Contiguous instance matrix + offsets over one dataset.

    Layout (the ``querytorque`` packed-rows idiom):

    * ``instances`` — ``(total_samples, d)`` float64, all objects'
      pdf sample points back to back in slot order;
    * ``weights`` — ``(total_samples,)`` float64, aligned;
    * ``offsets`` — ``(n_objects + 1,)`` int64, object ``s`` owns rows
      ``offsets[s]:offsets[s + 1]``.

    Appends amortize to O(m) through capacity doubling; deletes shift
    the tail down in one slice move (O(total) worst case, same as any
    compacting array).  ``epoch`` stamps the dataset mutation epoch the
    contents reflect.
    """

    def __init__(
        self,
        dataset: "UncertainDataset",
        *,
        _owned: bool = False,
    ) -> None:
        self._dataset = dataset
        #: True when the dataset itself maintains this store through
        #: its ``insert`` / ``delete`` (then it can never go stale).
        self._owned = _owned
        self._rebuild()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Pack every object from scratch (build and resync path)."""
        ds = self._dataset
        objs = list(ds)
        counts = np.fromiter(
            (o.n_instances for o in objs), dtype=np.int64, count=len(objs)
        )
        total = int(counts.sum())
        self._n = len(objs)
        self._size = total
        self._instances = np.empty((total, ds.dims), dtype=np.float64)
        self._weights = np.empty(total, dtype=np.float64)
        self._offsets = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(counts, out=self._offsets[1:])
        self._slot_of: dict[int, int] = {}
        for slot, obj in enumerate(objs):
            start, end = self._offsets[slot], self._offsets[slot + 1]
            self._instances[start:end] = obj.instances
            self._weights[start:end] = obj.weights
            self._slot_of[obj.oid] = slot
        self._oids: list[int] = [o.oid for o in objs]
        self.epoch = ds.epoch

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def total_samples(self) -> int:
        """Total packed instance rows across all objects."""
        return self._size

    @property
    def dims(self) -> int:
        return self._instances.shape[1]

    @property
    def instances(self) -> np.ndarray:
        """The live ``(total_samples, d)`` packed matrix (read view)."""
        return self._instances[: self._size]

    @property
    def weights(self) -> np.ndarray:
        """The live ``(total_samples,)`` aligned weights (read view)."""
        return self._weights[: self._size]

    @property
    def offsets(self) -> np.ndarray:
        """The live ``(n_objects + 1,)`` offsets table (read view)."""
        return self._offsets[: self._n + 1]

    def slot_of(self, oid: int) -> int:
        """Packed slot of an object (its row range in ``offsets``)."""
        return self._slot_of[oid]

    def nbytes(self) -> int:
        """Allocated bytes of the packed arrays (capacity included)."""
        return (
            self._instances.nbytes
            + self._weights.nbytes
            + self._offsets.nbytes
        )

    # ------------------------------------------------------------------
    # Incremental maintenance (called by UncertainDataset mutation)
    # ------------------------------------------------------------------
    def apply_insert(self, obj: UncertainObject, epoch: int) -> None:
        """Append one object's rows; O(m) amortized via doubling."""
        m = obj.n_instances
        need = self._size + m
        if need > len(self._weights):
            cap = max(need, 2 * len(self._weights), 64)
            grown_i = np.empty((cap, self.dims), dtype=np.float64)
            grown_i[: self._size] = self._instances[: self._size]
            grown_w = np.empty(cap, dtype=np.float64)
            grown_w[: self._size] = self._weights[: self._size]
            self._instances, self._weights = grown_i, grown_w
        self._instances[self._size : need] = obj.instances
        self._weights[self._size : need] = obj.weights
        if self._n + 2 > len(self._offsets):
            grown_o = np.zeros(
                max(self._n + 2, 2 * len(self._offsets)), dtype=np.int64
            )
            grown_o[: self._n + 1] = self._offsets[: self._n + 1]
            self._offsets = grown_o
        self._offsets[self._n + 1] = need
        self._slot_of[obj.oid] = self._n
        self._oids.append(obj.oid)
        self._n += 1
        self._size = need
        self.epoch = epoch

    def apply_delete(self, oid: int, epoch: int) -> None:
        """Remove one object's rows, shifting the tail down once."""
        slot = self._slot_of.pop(oid)
        start = int(self._offsets[slot])
        end = int(self._offsets[slot + 1])
        m = end - start
        self._instances[start : self._size - m] = self._instances[
            end : self._size
        ]
        self._weights[start : self._size - m] = self._weights[
            end : self._size
        ]
        self._offsets[slot : self._n] = self._offsets[slot + 1 : self._n + 1]
        self._offsets[slot : self._n] -= m
        del self._oids[slot]
        for moved in self._oids[slot:]:
            self._slot_of[moved] -= 1
        self._n -= 1
        self._size -= m
        self.epoch = epoch

    # ------------------------------------------------------------------
    # The kernel's entry point
    # ------------------------------------------------------------------
    def gather(self, ids: Sequence[int]) -> GatherBlock:
        """Dense padded ``(n, m_max, d)`` block for a candidate set.

        One fancy-index into the packed matrix replaces per-object
        attribute walks.  Raises when the store no longer reflects the
        dataset (mutated without maintenance) — stale pdfs must never
        feed a probability computation.
        """
        from .dataset import check_index_in_sync

        if not self._owned:
            check_index_in_sync(self.epoch, self._dataset, "InstanceStore")
        slots = np.fromiter(
            (self._slot_of[oid] for oid in ids),
            dtype=np.int64,
            count=len(ids),
        )
        starts = self._offsets[slots]
        lengths = self._offsets[slots + 1] - starts
        m_max = int(lengths.max()) if len(lengths) else 0
        # Padding replicates each object's last row; its weight is
        # zeroed below, making the pad invisible to every consumer.
        span = np.arange(m_max, dtype=np.int64)
        rows = starts[:, None] + np.minimum(span[None, :], lengths[:, None] - 1)
        block = self._instances[rows]
        weights = self._weights[rows]
        if not bool((lengths == m_max).all()):
            weights = weights * (span[None, :] < lengths[:, None])
        return GatherBlock(
            instances=block, weights=weights, lengths=lengths
        )

    def matches_dataset(self) -> bool:
        """Exact content check against a scratch rebuild (test hook)."""
        ds = self._dataset
        if self._n != len(ds) or self._oids != ds.ids:
            return False
        for oid in ds.ids:
            slot = self._slot_of[oid]
            start, end = self._offsets[slot], self._offsets[slot + 1]
            obj = ds[oid]
            if end - start != obj.n_instances:
                return False
            if not (
                np.array_equal(self._instances[start:end], obj.instances)
                and np.array_equal(self._weights[start:end], obj.weights)
            ):
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"InstanceStore(n={self._n}, total={self._size}, "
            f"dims={self.dims}, epoch={self.epoch})"
        )

    # ------------------------------------------------------------------
    # Shared-memory export (the process-pool zero-copy path)
    # ------------------------------------------------------------------
    def export_shared(self) -> "SharedStoreHandle":
        """Publish the packed dataset into a shared-memory segment.

        One ``multiprocessing.shared_memory`` segment carries the whole
        packed view of the dataset — ids, offsets, domain, region
        corners, instance weights, and the ``(total_samples, d)``
        instance matrix — so a worker process attaches by *name* and
        maps every array zero-copy; no instance data is ever pickled.
        The segment is stamped with the dataset epoch; attaching with a
        handle minted for a different epoch is refused, so a worker can
        never silently serve a stale snapshot.

        The caller owns the segment: :meth:`SharedStoreHandle.unlink`
        releases it once every worker has detached (workers only ever
        close their mapping).
        """
        ds = self._dataset
        if self.epoch != ds.epoch:  # pragma: no cover - owned stores
            from .dataset import check_index_in_sync

            check_index_in_sync(self.epoch, ds, "InstanceStore")
        from multiprocessing import shared_memory

        n, size, d = self._n, self._size, self.dims
        layout = _segment_layout(n, size, d)
        shm = shared_memory.SharedMemory(
            create=True,
            size=layout["total_bytes"],
            name=f"repro_{os.getpid():x}_{secrets.token_hex(4)}",
        )
        try:
            self._fill_segment(shm.buf)
            # Drop our local mapping of the buffer; the handle names
            # the segment, which lives until explicitly unlinked.
            shm.close()
        except BaseException:  # pragma: no cover - allocation failures
            shm.close()
            shm.unlink()
            raise
        return SharedStoreHandle(
            name=shm.name, epoch=self.epoch, n=n, size=size, dims=d
        )

    def _fill_segment(self, buf) -> None:
        """Stamp the packed dataset into a segment-layout buffer.

        One writer for both export targets: the shared-memory segment
        (:meth:`export_shared`) and the on-disk snapshot file
        (:meth:`export_file`) carry byte-identical layouts, so the
        attach paths share their validation too.
        """
        ds = self._dataset
        ids, los, his = ds.packed_regions()
        arrays = _segment_arrays(buf, self._n, self._size, self.dims)
        arrays["header"][:] = (
            _SHM_MAGIC,
            _SHM_LAYOUT_VERSION,
            self.epoch,
            self._n,
            self._size,
            self.dims,
            0,
            0,
        )
        arrays["oids"][:] = ids
        arrays["offsets"][:] = self.offsets
        arrays["domain"][0] = ds.domain.lo
        arrays["domain"][1] = ds.domain.hi
        arrays["los"][:] = los
        arrays["his"][:] = his
        arrays["weights"][:] = self.weights
        arrays["instances"][:] = self.instances

    def export_file(self, path: str | os.PathLike) -> int:
        """Snapshot the packed dataset to ``path`` (the durable twin of
        :meth:`export_shared`).

        The file carries the same header layout the shared-memory
        export stamps — magic, layout version, epoch, n, size, dims —
        followed by the same packed blocks, so :func:`attach_file`
        memory-maps it zero-copy.  The write is atomic and durable:
        bytes land in a temporary sibling which is fsynced, renamed
        over ``path``, and the directory entry fsynced — a crash
        mid-export leaves the previous snapshot intact.

        Returns the dataset mutation epoch the snapshot captures.
        """
        ds = self._dataset
        if self.epoch != ds.epoch:  # pragma: no cover - owned stores
            from .dataset import check_index_in_sync

            check_index_in_sync(self.epoch, ds, "InstanceStore")
        path = os.fspath(path)
        layout = _segment_layout(self._n, self._size, self.dims)
        tmp = f"{path}.tmp.{os.getpid()}"
        mm = np.memmap(
            tmp, dtype=np.uint8, mode="w+",
            shape=(layout["total_bytes"],),
        )
        try:
            self._fill_segment(mm)
            mm.flush()
        finally:
            del mm
        fd = os.open(tmp, os.O_RDWR)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
        dirfd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)
        return self.epoch


@dataclass(frozen=True)
class SharedStoreHandle:
    """A by-name reference to one exported shared-store segment.

    Small and picklable — this is the only thing that crosses the
    process boundary; the data stays in the segment.  ``epoch`` is the
    dataset mutation epoch the segment snapshots (also stamped inside
    the segment header; :func:`attach_shared` cross-checks the two).
    """

    name: str
    epoch: int
    n: int
    size: int
    dims: int

    def unlink(self) -> None:
        """Release the segment (owner side; idempotent)."""
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError:
            # Already gone — still clear the creation-time tracker
            # entry so exit-time cleanup does not warn about it.
            _untrack_name(self.name)
            return
        shm.close()
        try:
            # ``unlink()`` also unregisters the name from the resource
            # tracker, balancing the registration this re-open just
            # made (the creation-time entry is the same set member).
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - racing unlink
            pass


def _segment_layout(n: int, size: int, d: int) -> dict:
    """Byte offsets of each packed array inside a segment."""
    offsets = {}
    cursor = 0

    def block(name: str, count: int, itemsize: int) -> None:
        nonlocal cursor
        offsets[name] = cursor
        cursor += count * itemsize

    block("header", _SHM_HEADER_WORDS, 8)
    block("oids", n, 8)
    block("offsets", n + 1, 8)
    block("domain", 2 * d, 8)
    block("los", n * d, 8)
    block("his", n * d, 8)
    block("weights", size, 8)
    block("instances", size * d, 8)
    offsets["total_bytes"] = max(cursor, 1)
    return offsets


def image_nbytes(n: int, size: int, dims: int) -> int:
    """Bytes of a packed image of ``n`` objects with ``size`` instance
    rows in ``dims`` dimensions (what :meth:`InstanceStore.export_file`
    writes), computed without packing anything."""
    return _segment_layout(n, size, dims)["total_bytes"]


def _segment_arrays(buf, n: int, size: int, d: int) -> dict:
    """Numpy views over a segment buffer, keyed like the layout."""
    layout = _segment_layout(n, size, d)

    def view(name: str, count: int, dtype, shape) -> np.ndarray:
        arr = np.frombuffer(
            buf, dtype=dtype, count=count, offset=layout[name]
        )
        return arr.reshape(shape)

    return {
        "header": view("header", _SHM_HEADER_WORDS, np.int64, (-1,)),
        "oids": view("oids", n, np.int64, (n,)),
        "offsets": view("offsets", n + 1, np.int64, (n + 1,)),
        "domain": view("domain", 2 * d, np.float64, (2, d)),
        "los": view("los", n * d, np.float64, (n, d)),
        "his": view("his", n * d, np.float64, (n, d)),
        "weights": view("weights", size, np.float64, (size,)),
        "instances": view("instances", size * d, np.float64, (size, d)),
    }


def _build_objects(oids, offsets, los, his, instances, weights):
    """Objects over packed arrays, zero-copy: each object's region
    corners, instances and weights are views of the arrays."""
    from ..geometry import Rect

    bounds = offsets.tolist()
    return [
        UncertainObject(
            oid=oid,
            region=Rect(los[slot], his[slot]),
            instances=instances[bounds[slot]:bounds[slot + 1]],
            weights=weights[bounds[slot]:bounds[slot + 1]],
        )
        for slot, oid in enumerate(oids.tolist())
    ]


def _untrack(shm) -> None:
    """Unregister a segment from this process's resource tracker.

    On POSIX (Python <= 3.12) every ``SharedMemory`` constructor call
    registers the name — including plain attaches — and the tracker
    unlinks everything it knows at process exit.  A worker that merely
    attached must not take the parent's live segment down with it, so
    attach (and the owner's unlink helper, which re-opens by name)
    deregisters immediately.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    # Defensive: the tracker is private API and has moved before.
    except Exception:  # pragma: no cover  # noqa: BLE001
        pass


def _untrack_name(name: str) -> None:
    """Best-effort tracker cleanup for a segment known only by name."""
    try:
        from multiprocessing import resource_tracker

        tracked = name if name.startswith("/") else "/" + name
        resource_tracker.unregister(tracked, "shared_memory")
    # Defensive: the tracker is private API and has moved before.
    except Exception:  # pragma: no cover  # noqa: BLE001
        pass


class SharedInstanceStore(InstanceStore):
    """A read-only :class:`InstanceStore` over an attached segment.

    Serves :meth:`InstanceStore.gather` (and the packed-array views)
    straight from shared memory.  Mutation is refused — worker
    processes observe mutations through pool-wide fences that attach a
    fresh segment, never by editing a live one.
    """

    def __init__(self, view: "SharedStoreView") -> None:
        # Deliberately no super().__init__ — there is nothing to pack;
        # every array is a read-only view into the attached segment.
        self._view = view
        self._dataset = None  # installed by UncertainDataset.adopt
        self._owned = True
        self._n = view.handle.n
        self._size = view.handle.size
        self._instances = view.instances
        self._weights = view.weights
        self._offsets = view.offsets
        self._oids = [int(oid) for oid in view.oids]
        self._slot_of = {oid: slot for slot, oid in enumerate(self._oids)}
        self.epoch = view.handle.epoch

    @property
    def dims(self) -> int:
        return self._view.handle.dims

    def apply_insert(self, obj: UncertainObject, epoch: int) -> None:
        raise RuntimeError(
            "shared instance store is read-only; mutations reach "
            "workers through a pool fence, not in place"
        )

    def apply_delete(self, oid: int, epoch: int) -> None:
        raise RuntimeError(
            "shared instance store is read-only; mutations reach "
            "workers through a pool fence, not in place"
        )

    def close(self) -> None:
        """Detach from the segment (drops every view)."""
        self._view.close()

    def __repr__(self) -> str:
        return (
            f"SharedInstanceStore(n={self._n}, total={self._size}, "
            f"dims={self.dims}, epoch={self.epoch}, "
            f"segment={self._view.handle.name!r})"
        )


class SharedStoreView:
    """An attached segment: read-only numpy views + the mapping."""

    def __init__(self, handle: SharedStoreHandle, shm) -> None:
        self.handle = handle
        self._shm = shm
        arrays = _segment_arrays(
            shm.buf, handle.n, handle.size, handle.dims
        )
        for name, arr in arrays.items():
            arr.setflags(write=False)
            setattr(self, name, arr)
        self._closed = False

    def close(self) -> None:
        """Drop the views and unmap the segment (never unlinks)."""
        if self._closed:
            return
        self._closed = True
        for name in (
            "header", "oids", "offsets", "domain",
            "los", "his", "weights", "instances",
        ):
            if hasattr(self, name):
                delattr(self, name)
        try:
            self._shm.close()
        except BufferError:
            # Reconstructed objects/engines form reference cycles that
            # keep array views alive past the fence; collect and retry.
            # A still-pinned mapping is merely deferred to process
            # exit — the segment itself is the owner's to unlink.
            import gc

            gc.collect()
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - views still live
                pass

    def build_dataset(self) -> "UncertainDataset":
        """Reconstruct the dataset zero-copy from the shared arrays.

        Every object's region corners, instances, and weights are
        slices of the mapped segment (validated, never copied); the
        dataset adopts a :class:`SharedInstanceStore` over the same
        views and reports the segment's epoch, so engines built on it
        plan and stamp results exactly like the parent at that epoch.
        """
        from ..geometry import Rect
        from .dataset import UncertainDataset

        objects = _build_objects(
            self.oids, self.offsets, self.los, self.his,
            self.instances, self.weights,
        )
        domain = Rect(self.domain[0], self.domain[1])
        dataset = UncertainDataset(objects, domain=domain)
        dataset.adopt_shared_store(
            SharedInstanceStore(self), epoch=self.handle.epoch
        )
        return dataset


def attach_shared(handle: SharedStoreHandle) -> SharedStoreView:
    """Attach a worker-side view of an exported segment by name.

    Refuses anything that is not a current shared-store segment: wrong
    magic, unknown layout version, or an epoch stamp that differs from
    the handle's (a stale handle naming a reused segment).  The view
    is read-only; call :meth:`SharedStoreView.close` to detach.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=handle.name)
    _untrack(shm)
    header = np.frombuffer(
        shm.buf, dtype=np.int64, count=_SHM_HEADER_WORDS
    )
    magic, version, epoch, n, size, dims = (int(x) for x in header[:6])
    if magic != _SHM_MAGIC or version != _SHM_LAYOUT_VERSION:
        del header
        shm.close()
        raise ValueError(
            f"segment {handle.name!r} is not a shared instance store "
            f"(magic/layout mismatch)"
        )
    if (epoch, n, size, dims) != (
        handle.epoch, handle.n, handle.size, handle.dims
    ):
        del header
        shm.close()
        raise ValueError(
            f"stale shared-store attach: handle describes epoch "
            f"{handle.epoch} ({handle.n} objects) but segment "
            f"{handle.name!r} holds epoch {epoch} ({n} objects)"
        )
    del header
    return SharedStoreView(handle, shm)


class MappedSnapshot:
    """A memory-mapped on-disk snapshot (see :meth:`InstanceStore.
    export_file`): read-only numpy views over the packed blocks.

    The durable twin of :class:`SharedStoreView` — same header, same
    layout, but backed by a file instead of a shared-memory segment.
    Objects built from it hold zero-copy views into the mapping, which
    stays alive as long as any view references it (numpy base chain).
    The attributes describe the base image; tail records appended
    after it (:func:`encode_tail`) are read with :meth:`tail`.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        mm = np.memmap(self.path, dtype=np.uint8, mode="r")
        if mm.size < _SHM_HEADER_WORDS * 8:
            raise ValueError(
                f"snapshot {self.path!r} is too short to hold a header"
            )
        header = np.frombuffer(mm, dtype=np.int64, count=_SHM_HEADER_WORDS)
        magic, version, epoch, n, size, dims = (int(x) for x in header[:6])
        if magic != _SHM_MAGIC or version != _SHM_LAYOUT_VERSION:
            raise ValueError(
                f"file {self.path!r} is not an instance-store snapshot "
                f"(magic/layout mismatch)"
            )
        layout = _segment_layout(n, size, dims)
        if mm.size < layout["total_bytes"]:
            raise ValueError(
                f"snapshot {self.path!r} is truncated: header promises "
                f"{layout['total_bytes']} bytes, file holds {mm.size}"
            )
        self.epoch, self.n, self.size, self.dims = epoch, n, size, dims
        self._layout = layout
        self._mm = mm
        arrays = _segment_arrays(mm, n, size, dims)
        self.oids = arrays["oids"]
        self.offsets = arrays["offsets"]
        self.domain = arrays["domain"]
        self.los = arrays["los"]
        self.his = arrays["his"]
        self.weights = arrays["weights"]
        self.instances = arrays["instances"]
        self._slot_of = {
            int(oid): slot for slot, oid in enumerate(self.oids)
        }

    # ------------------------------------------------------------------
    def build_objects(self) -> list[UncertainObject]:
        """Reconstruct every base-image object zero-copy over the mapping."""
        return _build_objects(
            self.oids, self.offsets, self.los, self.his,
            self.instances, self.weights,
        )

    def tail(self, offset: int) -> "TailRecord":
        """The tail record whose body starts at byte ``offset``.

        ``offset`` comes from :func:`scan_tail`, which has already
        checked the record's frame and CRC; the inserted objects are
        zero-copy views of the mapping, like the base image's.
        """
        header = np.frombuffer(
            self._mm, dtype=np.int64, count=_SHM_HEADER_WORDS, offset=offset
        )
        magic, version, epoch_to, k, size, dims, epoch_from, n_deleted = (
            int(x) for x in header
        )
        if (magic, version, dims) != (_TAIL_MAGIC, _SHM_LAYOUT_VERSION,
                                      self.dims):
            raise ValueError(
                f"snapshot {self.path!r}: bytes at {offset} are not a "
                f"{self.dims}-d tail record (magic/layout mismatch)"
            )
        arrays = _segment_arrays(self._mm[offset:], k, size, dims)
        deleted = np.frombuffer(
            self._mm, dtype=np.int64, count=n_deleted,
            offset=offset + image_nbytes(k, size, dims),
        )
        return TailRecord(
            epoch_from=epoch_from,
            epoch_to=epoch_to,
            deleted=deleted.tolist(),
            objects=_build_objects(
                arrays["oids"], arrays["offsets"], arrays["los"],
                arrays["his"], arrays["instances"], arrays["weights"],
            ),
        )

    # ------------------------------------------------------------------
    def read_pages(self, ids: Sequence[int], page_size: int = 4096) -> int:
        """Distinct file pages backing a candidate set's pdfs.

        The *measured* counterpart of the simulated pager counters: how
        many distinct ``page_size``-byte pages of the snapshot file a
        Step-2 gather of these objects' instance rows and weights
        actually touches (each page counted once per call, as a
        buffer pool would).
        """
        pages: set[int] = set()
        for oid in ids:
            slot = self._slot_of[int(oid)]
            start = int(self.offsets[slot])
            end = int(self.offsets[slot + 1])
            for base, itemsize in (
                (self._layout["instances"], self.dims * 8),
                (self._layout["weights"], 8),
            ):
                lo = base + start * itemsize
                hi = base + end * itemsize
                pages.update(range(lo // page_size, (hi - 1) // page_size + 1))
        return len(pages)

    def close(self) -> None:
        """Drop this snapshot's own references to the mapping.

        The underlying mmap survives until the last view (e.g. an
        object's instance array) is garbage-collected; closing is
        bookkeeping, not invalidation.
        """
        for name in (
            "oids", "offsets", "domain", "los", "his",
            "weights", "instances",
        ):
            if hasattr(self, name):
                delattr(self, name)
        self._slot_of = {}
        self._mm = None

    def __repr__(self) -> str:
        return (
            f"MappedSnapshot(path={self.path!r}, epoch={self.epoch}, "
            f"n={self.n}, total={self.size}, dims={self.dims})"
        )


def attach_file(path: str | os.PathLike) -> MappedSnapshot:
    """Memory-map an :meth:`InstanceStore.export_file` snapshot.

    Refuses anything that is not a current snapshot: wrong magic,
    unknown layout version, or a file shorter than the header's
    promised payload (a torn write that escaped the atomic-rename
    discipline).  Bytes past the base image are tail records, read
    one at a time through :meth:`MappedSnapshot.tail`.
    """
    return MappedSnapshot(path)


# ----------------------------------------------------------------------
# Tail records: incremental checkpoints appended to a snapshot file
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TailRecord:
    """The net mutations between two checkpoints, as one record.

    Applying it to the state at ``epoch_from`` — drop every oid in
    ``deleted``, then append ``objects`` in order — gives the state at
    ``epoch_to``, ids order included.
    """

    epoch_from: int
    epoch_to: int
    deleted: list[int]
    objects: list[UncertainObject]


def encode_tail(
    epoch_from: int,
    epoch_to: int,
    deleted: Sequence[int],
    objects: Sequence[UncertainObject],
    domain,
) -> bytes:
    """One framed tail record, ready to append to a snapshot file.

    The body is a packed segment of the inserted objects in the export
    layout (oids, offsets, domain, region corners, weights, instances),
    whose header words read: tail magic, layout version, ``epoch_to``,
    object count, instance rows, dims, ``epoch_from`` and the number of
    deleted oids; the deleted oids (int64) follow the segment.  The
    frame is the body length and a CRC32 over length and body, like a
    WAL record's, so a torn or flipped record is detected.
    """
    k, dims = len(objects), domain.dims
    counts = [o.n_instances for o in objects]
    size = sum(counts)
    segment = image_nbytes(k, size, dims)
    body = bytearray(segment + 8 * len(deleted))
    arrays = _segment_arrays(body, k, size, dims)
    arrays["header"][:] = (
        _TAIL_MAGIC, _SHM_LAYOUT_VERSION, epoch_to, k, size, dims,
        epoch_from, len(deleted),
    )
    arrays["domain"][0] = domain.lo
    arrays["domain"][1] = domain.hi
    if k:
        arrays["oids"][:] = [o.oid for o in objects]
        np.cumsum(counts, out=arrays["offsets"][1:])
        arrays["los"][:] = [o.region.lo for o in objects]
        arrays["his"][:] = [o.region.hi for o in objects]
        np.concatenate([o.weights for o in objects], out=arrays["weights"])
        np.concatenate(
            [o.instances for o in objects], out=arrays["instances"]
        )
    np.frombuffer(body, dtype=np.int64, offset=segment)[:] = deleted
    return _tail_frame(body) + body


def _tail_frame(body) -> bytes:
    length = struct.pack("<Q", len(body))
    crc = zlib.crc32(body, zlib.crc32(length)) & 0xFFFFFFFF
    return _TAIL_FRAME.pack(len(body), crc, 0)


def scan_tail(path: str | os.PathLike) -> tuple[list[int], int, bool]:
    """Find the intact tail records of a snapshot file.

    Returns ``(offsets, valid_bytes, damaged)``: the body offset of
    every intact record in file order, the length up to which the file
    is intact, and whether a torn or CRC-broken record follows it.
    Reads the file without mapping it, so a caller can truncate the
    damage before :func:`attach_file`.  Raises :class:`ValueError`
    when the base image itself is not a current, complete snapshot.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        header = np.frombuffer(
            fh.read(_SHM_HEADER_WORDS * 8), dtype=np.int64
        )
        if len(header) < _SHM_HEADER_WORDS:
            raise ValueError(
                f"snapshot {path!r} is too short to hold a header"
            )
        magic, version, _epoch, n, size, dims = (int(x) for x in header[:6])
        if magic != _SHM_MAGIC or version != _SHM_LAYOUT_VERSION:
            raise ValueError(
                f"file {path!r} is not an instance-store snapshot "
                f"(magic/layout mismatch)"
            )
        pos = image_nbytes(n, size, dims)
        if end < pos:
            raise ValueError(
                f"snapshot {path!r} is truncated: header promises "
                f"{pos} bytes, file holds {end}"
            )
        fh.seek(pos)
        offsets: list[int] = []
        while pos < end:
            frame = fh.read(_TAIL_FRAME.size)
            if len(frame) < _TAIL_FRAME.size:
                return offsets, pos, True
            length, crc, _pad = _TAIL_FRAME.unpack(frame)
            start = pos + _TAIL_FRAME.size
            if start + length > end:
                return offsets, pos, True
            body = fh.read(length)
            if _tail_frame(body) != frame:
                return offsets, pos, True
            offsets.append(start)
            pos = start + length
    return offsets, pos, False
