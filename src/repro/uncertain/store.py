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

:meth:`InstanceStore.export_file` writes the store as one packed
*image* file (header, then oids, offsets, domain, region corners,
weights and instances) and :func:`attach_file` maps it back zero-copy.
Durable snapshots and the process pool's per-epoch images share this
one format; an image is always complete on its own, and what changed
after it lives in the durable store's write-ahead log.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .objects import UncertainObject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .dataset import UncertainDataset

__all__ = [
    "GatherBlock",
    "InstanceStore",
    "MappedInstanceStore",
    "MappedSnapshot",
    "attach_file",
    "image_nbytes",
]

#: First header word of every packed image; an attach that does not
#: find it is pointed at something that is not ours.
_SHM_MAGIC = 0x5245_5052_4F53_544F  # "REPROSTO"
#: Bump when the packed image layout or its meaning changes; attaches
#: refuse a mismatch instead of misreading bytes.  Version 2 snapshot
#: files could carry checkpoint records after the base image, which a
#: version-3 reader would silently drop.
_SHM_LAYOUT_VERSION = 3
#: int64 header words: magic, version, epoch, n, size, dims, 2 spare.
_SHM_HEADER_WORDS = 8


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
    def _row_ranges(
        self, ids: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """First packed row and instance count of each object.

        Raises when the store no longer reflects the dataset (mutated
        without maintenance) — stale pdfs must never feed a
        probability computation.
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
        return starts, self._offsets[slots + 1] - starts

    def rows(
        self, ids: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(instances, weights, starts, lengths)`` for a candidate set.

        The live packed ``(total_samples, d)`` matrix and aligned
        weights, read in place, plus each object's first row and
        instance count: what the compiled Step-2 walk reads instead of
        a padded :meth:`gather` block.  Same sync check as
        :meth:`gather`.
        """
        starts, lengths = self._row_ranges(ids)
        return self.instances, self.weights, starts, lengths

    def gather(self, ids: Sequence[int]) -> GatherBlock:
        """Dense padded ``(n, m_max, d)`` block for a candidate set.

        One fancy-index into the packed matrix replaces per-object
        attribute walks.  Raises when the store no longer reflects the
        dataset, like :meth:`rows`.
        """
        starts, lengths = self._row_ranges(ids)
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
    # Packed image export (snapshot files and the process pool)
    # ------------------------------------------------------------------
    def export_file(self, path: str | os.PathLike) -> int:
        """Write the packed dataset to ``path`` as one image file.

        The image is a header — magic, layout version, epoch, n, size,
        dims — followed by the packed blocks (oids, offsets, domain,
        region corners, weights, instances), so :func:`attach_file`
        memory-maps it zero-copy.  Durable snapshots and the process
        pool's per-epoch images are both written here.  The write is
        atomic and durable: bytes land in a temporary sibling which is
        fsynced, renamed over ``path``, and the directory entry fsynced
        — a crash mid-export leaves the previous image intact.

        Returns the dataset mutation epoch the image captures.
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
            ids, los, his = ds.packed_regions()
            arrays = _segment_arrays(mm, self._n, self._size, self.dims)
            arrays["header"][:] = (
                _SHM_MAGIC, _SHM_LAYOUT_VERSION, self.epoch,
                self._n, self._size, self.dims, 0, 0,
            )
            arrays["oids"][:] = ids
            arrays["offsets"][:] = self.offsets
            arrays["domain"][0] = ds.domain.lo
            arrays["domain"][1] = ds.domain.hi
            arrays["los"][:] = los
            arrays["his"][:] = his
            arrays["weights"][:] = self.weights
            arrays["instances"][:] = self.instances
            del arrays  # the views pin the mapping; drop them with it
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


def _segment_layout(n: int, size: int, d: int) -> dict:
    """Byte offsets of each packed array inside an image."""
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
    """Numpy views over an image buffer, keyed like the layout."""
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


class MappedInstanceStore(InstanceStore):
    """A read-only :class:`InstanceStore` over a mapped image file.

    Serves :meth:`InstanceStore.gather` (and the packed-array views)
    straight from the mapping.  Mutation is refused — worker processes
    observe mutations through pool-wide fences that map a fresh image,
    never by editing a live one.
    """

    def __init__(self, snapshot: "MappedSnapshot") -> None:
        # Deliberately no super().__init__ — there is nothing to pack;
        # every array is a read-only view into the mapped image.
        self._path = snapshot.path
        self._dataset = None  # installed by adopt_mapped_store
        self._owned = True
        self._n = snapshot.n
        self._size = snapshot.size
        self._instances = snapshot.instances
        self._weights = snapshot.weights
        self._offsets = snapshot.offsets
        self._oids = snapshot.oids.tolist()
        self._slot_of = snapshot._slot_of
        self.epoch = snapshot.epoch

    def apply_insert(self, obj: UncertainObject, epoch: int) -> None:
        raise RuntimeError(
            "mapped instance store is read-only; mutations reach "
            "workers through a pool fence, not in place"
        )

    def apply_delete(self, oid: int, epoch: int) -> None:
        raise RuntimeError(
            "mapped instance store is read-only; mutations reach "
            "workers through a pool fence, not in place"
        )

    def __repr__(self) -> str:
        return (
            f"MappedInstanceStore(n={self._n}, total={self._size}, "
            f"dims={self.dims}, epoch={self.epoch}, path={self._path!r})"
        )


class MappedSnapshot:
    """A memory-mapped image file (see :meth:`InstanceStore.
    export_file`): read-only numpy views over the packed blocks.

    The durable store opens its ``snapshot.bin`` this way, and each
    process-pool worker its pool's current image.  Objects built from
    it hold zero-copy views into the mapping, which stays alive as
    long as any view references it (numpy base chain) — so the file
    may be removed while mapped.
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
        if magic != _SHM_MAGIC:
            raise ValueError(
                f"file {self.path!r} is not an instance-store snapshot "
                f"(magic mismatch)"
            )
        if version != _SHM_LAYOUT_VERSION:
            raise ValueError(
                f"snapshot {self.path!r} has layout version {version}; "
                f"this release reads only version {_SHM_LAYOUT_VERSION}"
            )
        layout = _segment_layout(n, size, dims)
        if mm.size < layout["total_bytes"]:
            raise ValueError(
                f"snapshot {self.path!r} is truncated: header promises "
                f"{layout['total_bytes']} bytes, file holds {mm.size}"
            )
        self.epoch, self.n, self.size, self.dims = epoch, n, size, dims
        self._layout = layout
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
        """Reconstruct every object zero-copy: each object's region
        corners, instances and weights are views of the mapping."""
        from ..geometry import Rect

        bounds = self.offsets.tolist()
        return [
            UncertainObject(
                oid=oid,
                region=Rect(self.los[slot], self.his[slot]),
                instances=self.instances[bounds[slot]:bounds[slot + 1]],
                weights=self.weights[bounds[slot]:bounds[slot + 1]],
            )
            for slot, oid in enumerate(self.oids.tolist())
        ]

    def build_dataset(self) -> "UncertainDataset":
        """Reconstruct the base image's dataset zero-copy.

        Every object's region corners, instances, and weights are
        slices of the mapping (validated, never copied); the dataset
        adopts a :class:`MappedInstanceStore` over the same views and
        reports the image's epoch, so engines built on it plan and
        stamp results exactly like the exporting process at that
        epoch.
        """
        from ..geometry import Rect
        from .dataset import UncertainDataset

        dataset = UncertainDataset(
            self.build_objects(),
            domain=Rect(self.domain[0], self.domain[1]),
        )
        dataset.adopt_mapped_store(MappedInstanceStore(self))
        return dataset

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

    def __repr__(self) -> str:
        return (
            f"MappedSnapshot(path={self.path!r}, epoch={self.epoch}, "
            f"n={self.n}, total={self.size}, dims={self.dims})"
        )


def attach_file(path: str | os.PathLike) -> MappedSnapshot:
    """Memory-map an :meth:`InstanceStore.export_file` snapshot.

    Refuses (``ValueError``) anything that is not a current snapshot:
    wrong magic, another layout version (a version-2 file may carry
    checkpoint records this reader would drop), or a file shorter than
    the header's promised payload (a torn write that escaped the
    atomic-rename discipline).
    """
    return MappedSnapshot(path)
