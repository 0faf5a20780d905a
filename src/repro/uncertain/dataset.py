"""The uncertain database ``S``: a container of uncertain objects.

Provides identity lookup, packed corner arrays for vectorized geometry,
and in-place insert/delete used by the incremental-maintenance
experiments (Section VI-B).

Mutation is observable through two mechanisms:

* :attr:`UncertainDataset.epoch` — a monotonically increasing counter
  bumped by every :meth:`insert` / :meth:`delete`.  Anything that
  caches derived state (engine result caches, index retrievers)
  records the epoch it was computed at and invalidates
  itself when the live epoch has moved on.
* :meth:`UncertainDataset.row_of` — a stable integer handle assigned at
  insertion time and never reused, so external structures can key
  per-object state without depending on iteration order.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from ..analysis.locks import make_lock
from ..geometry import Rect
from .objects import UncertainObject
from .store import InstanceStore

__all__ = ["UncertainDataset", "check_index_in_sync"]


def check_index_in_sync(
    index_epoch: int, dataset: "UncertainDataset", index_name: str
) -> None:
    """Raise unless an index's recorded epoch matches its dataset's.

    Incremental maintenance that silently adopted the live epoch would
    launder a mutation the index never absorbed — engines would keep
    trusting it.  Both maintained indexes call this before mutating; an
    out-of-sync index must be rebuilt instead.
    """
    live = getattr(dataset, "epoch", index_epoch)
    if index_epoch != live:
        raise ValueError(
            f"{index_name} is stale: the dataset was mutated without "
            f"it (index epoch {index_epoch}, dataset epoch {live}); "
            "rebuild the index"
        )


class UncertainDataset:
    """A set of uncertain objects sharing one domain.

    Parameters
    ----------
    objects:
        The uncertain objects; ids must be unique and dimensionalities
        must agree with the domain.
    domain:
        The domain rectangle ``D``.  When omitted, a tight bound around
        all uncertainty regions is used.
    """

    def __init__(
        self,
        objects: Iterable[UncertainObject],
        domain: Rect | None = None,
        *,
        epoch: int = 0,
    ) -> None:
        objs = list(objects)
        if not objs:
            raise ValueError("dataset must contain at least one object")
        dims = objs[0].dims
        if any(o.dims != dims for o in objs):
            raise ValueError("all objects must share one dimensionality")
        ids = [o.oid for o in objs]
        if len(set(ids)) != len(ids):
            raise ValueError("object ids must be unique")
        if domain is None:
            domain = Rect.bounding([o.region for o in objs])
        elif domain.dims != dims:
            raise ValueError("domain dimensionality mismatch")
        else:
            for o in objs:
                if not domain.contains_rect(o.region):
                    raise ValueError(
                        f"object {o.oid} lies outside the domain"
                    )
        self.domain = domain
        self._objects: dict[int, UncertainObject] = {o.oid: o for o in objs}
        # Packed regions: capacity-doubling buffers whose first
        # ``_packed_n`` rows mirror ``_objects`` in order, built lazily
        # once and then maintained by every mutation (see
        # :meth:`packed_regions`).
        self._packed_bufs: tuple[np.ndarray, np.ndarray, np.ndarray] | None
        self._packed_bufs = None
        self._packed_n = 0
        self._packed_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None
        self._packed_cache = None
        # ``epoch`` restores a recovered dataset's mutation clock (the
        # WAL's LSN space): snapshot + replay must continue numbering
        # where the crashed process stopped, not restart at zero.
        self._epoch = epoch
        self._rows: dict[int, int] = {o.oid: i for i, o in enumerate(objs)}
        self._next_row = len(objs)
        self._store: InstanceStore | None = None
        self._store_lock = make_lock("dataset.store_lock")
        self._listeners: list = []
        self._log: Callable[[str, UncertainObject, int], None] | None = None

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[UncertainObject]:
        return iter(self._objects.values())

    def __contains__(self, oid: int) -> bool:
        return oid in self._objects

    def __getitem__(self, oid: int) -> UncertainObject:
        return self._objects[oid]

    def get(self, oid: int) -> UncertainObject | None:
        """The object with id ``oid``, or ``None``."""
        return self._objects.get(oid)

    @property
    def dims(self) -> int:
        """Dimensionality of the attribute space."""
        return self.domain.dims

    @property
    def ids(self) -> list[int]:
        """All object ids (insertion order)."""
        return list(self._objects.keys())

    @property
    def objects(self) -> Mapping[int, UncertainObject]:
        """Read-only id -> object view."""
        return dict(self._objects)

    @property
    def epoch(self) -> int:
        """Mutation epoch: bumped by every :meth:`insert` / :meth:`delete`.

        Caches of state derived from the dataset (query results,
        candidate sets, index contents) are valid only for the epoch
        they were computed at.
        """
        return self._epoch

    def row_of(self, oid: int) -> int:
        """Stable row handle of an object: assigned at insertion, never
        reused, independent of later insertions and deletions."""
        return self._rows[oid]

    # ------------------------------------------------------------------
    # Vectorization support
    # ------------------------------------------------------------------
    def packed_regions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, los, his)`` packed corner arrays for all objects.

        Rows follow :attr:`ids` order.  Packed once on first use under
        the store lock (a build racing a mutation would otherwise miss
        the new object for good), then maintained by :meth:`insert`
        (one appended row, amortised O(d) through capacity doubling) and
        :meth:`delete` (fresh arrays without the row).  Hot paths (Step
        1, C-set selection, PV-cell ground truth) use it instead of
        iterating :class:`Rect` objects.

        A returned tuple never changes afterwards: appends write only
        past every view handed out so far, and deletes and growth move
        to new buffers, so callers on other threads may keep reading it.
        """
        packed = self._packed_cache
        if packed is None:
            with self._store_lock:
                if self._packed_bufs is None:
                    objs = list(self._objects.values())
                    self._packed_bufs = (
                        np.array([o.oid for o in objs], dtype=np.int64),
                        np.array([o.region.lo for o in objs], dtype=float),
                        np.array([o.region.hi for o in objs], dtype=float),
                    )
                    self._packed_n = len(objs)
                ids, los, his = (
                    buf[: self._packed_n] for buf in self._packed_bufs
                )
                for view in (ids, los, his):
                    view.flags.writeable = False
                packed = self._packed_cache = (ids, los, his)
        return packed

    def _packed_append(self, obj: UncertainObject) -> None:
        """Append ``obj``'s row to the packed buffers (store lock held)."""
        assert self._packed_bufs is not None
        n = self._packed_n
        if n == len(self._packed_bufs[0]):
            cap = max(2 * n, 64)
            grown = []
            for buf in self._packed_bufs:
                new = np.empty((cap,) + buf.shape[1:], dtype=buf.dtype)
                new[:n] = buf[:n]
                grown.append(new)
            self._packed_bufs = (grown[0], grown[1], grown[2])
        ids, los, his = self._packed_bufs
        ids[n] = obj.oid
        los[n] = obj.region.lo
        his[n] = obj.region.hi
        self._packed_n = n + 1

    def _packed_remove(self, oid: int) -> None:
        """Drop ``oid``'s row into fresh buffers (store lock held)."""
        assert self._packed_bufs is not None
        n = self._packed_n
        ids, los, his = (buf[:n] for buf in self._packed_bufs)
        keep = ids != oid
        self._packed_bufs = (ids[keep], los[keep], his[keep])
        self._packed_n = n - 1

    def means(self) -> np.ndarray:
        """``(n, d)`` array of object mean positions (dataset order)."""
        __, los, his = self.packed_regions()
        return (los + his) / 2.0

    def instance_store(self) -> InstanceStore:
        """The packed pdf store backing the Step-2 kernels.

        Built lazily on first use and thereafter maintained
        incrementally through :meth:`insert` / :meth:`delete`, so it is
        always at the dataset's live epoch — the kernels gather
        candidate pdfs from it without any staleness window.

        The lazy build is once-guarded: concurrent first touches (a
        cold database hammered from many threads) race to the lock,
        one thread packs, and every caller receives the same store —
        never a half-built or duplicate one.
        """
        store = self._store
        if store is None:
            with self._store_lock:
                store = self._store
                if store is None:
                    store = InstanceStore(self, _owned=True)
                    self._store = store
        return store

    def adopt_mapped_store(self, store: InstanceStore) -> None:
        """Install a mapped read-only store as this dataset's own.

        The worker-process reconstruction path: a dataset rebuilt from
        a mapped image adopts the :class:`~repro.uncertain.store.
        MappedInstanceStore` over the same arrays instead of packing a
        private copy, and takes on the image's mutation epoch so plans
        and results stamp exactly like the exporting parent.  Refused
        when a store already exists.
        """
        with self._store_lock:
            if self._store is not None:
                raise RuntimeError(
                    "dataset already has an instance store; adopt is "
                    "only for freshly reconstructed worker datasets"
                )
            self._epoch = store.epoch
            store._dataset = self
            store._owned = True
            self._store = store

    def release_instance_store(self) -> None:
        """Detach the packed store, freeing its arrays.

        The next :meth:`instance_store` call rebuilds from scratch.
        Used by ``Database.close()`` to drop the largest piece of
        derived state along with the index handles.
        """
        with self._store_lock:
            self._store = None

    # ------------------------------------------------------------------
    # Mutation (used by the update experiments)
    # ------------------------------------------------------------------
    def add_mutation_listener(self, listener) -> None:
        """Register ``listener(op, obj, epoch)`` on every mutation.

        Fired *before* the state change, inside the mutation lock, with
        the epoch the mutation will commit at: a listener that raises
        aborts the mutation with the dataset untouched (and, since
        listeners run before the mutation log, with nothing logged).
        ``op`` is
        ``"insert"`` or ``"delete"``; ``obj`` is the full object either
        way (the one being added, or the one about to be removed).
        Listeners run in registration order, all before the mutation
        log (:meth:`set_mutation_log`).
        """
        self._listeners.append(listener)

    def remove_mutation_listener(self, listener) -> None:
        """Unregister a mutation listener (no-op when absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def set_mutation_log(
        self, log: Callable[[str, UncertainObject, int], None]
    ) -> None:
        """Install the durable log: ``log(op, obj, epoch)`` runs on every
        mutation after every listener, still before the state change.

        It is the last step that can abort a mutation, so a record it
        accepts always commits; a listener that vetoes does so before
        anything is logged.  A dataset has at most one log.
        """
        if self._log is not None:
            raise RuntimeError("dataset already has a mutation log")
        self._log = log

    def _notify(self, op: str, obj: UncertainObject, epoch: int) -> None:
        for listener in self._listeners:
            listener(op, obj, epoch)
        if self._log is not None:
            self._log(op, obj, epoch)

    def insert(self, obj: UncertainObject) -> None:
        """Add ``obj``; its id must be fresh and region inside the domain."""
        if obj.oid in self._objects:
            raise ValueError(f"duplicate object id {obj.oid}")
        if obj.dims != self.dims:
            raise ValueError("object dimensionality mismatch")
        if not self.domain.contains_rect(obj.region):
            raise ValueError(f"object {obj.oid} lies outside the domain")
        # Mutations exclude the instance store's lazy build: packing
        # iterates ``_objects``, so a build racing this write would
        # either crash or silently produce an owned store missing the
        # new object (owned stores skip the staleness check forever).
        with self._store_lock:
            self._notify("insert", obj, self._epoch + 1)
            self._objects[obj.oid] = obj
            if self._packed_bufs is not None:
                self._packed_append(obj)
            self._packed_cache = None
            self._rows[obj.oid] = self._next_row
            self._next_row += 1
            self._epoch += 1
            if self._store is not None:
                self._store.apply_insert(obj, self._epoch)

    def delete(self, oid: int) -> UncertainObject:
        """Remove and return the object with id ``oid``."""
        with self._store_lock:  # exclude a racing store build
            try:
                obj = self._objects[oid]
            except KeyError:
                raise KeyError(f"no object with id {oid}") from None
            if len(self._objects) == 1:
                raise ValueError(
                    "cannot delete the last object of a dataset"
                )
            self._notify("delete", obj, self._epoch + 1)
            del self._objects[oid]
            if self._packed_bufs is not None:
                self._packed_remove(oid)
            self._packed_cache = None
            del self._rows[oid]
            self._epoch += 1
            if self._store is not None:
                self._store.apply_delete(oid, self._epoch)
            return obj

    def copy(self) -> "UncertainDataset":
        """A shallow copy (objects are immutable and safely shared)."""
        return UncertainDataset(self._objects.values(), domain=self.domain)

    def __repr__(self) -> str:
        return (
            f"UncertainDataset(n={len(self)}, dims={self.dims}, "
            f"domain={self.domain!r})"
        )
