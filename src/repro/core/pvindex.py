"""The PV-index (Section VI): construction, querying, maintenance.

Two-part structure:

* **Primary index** — a paged octree over the domain.  Each leaf stores
  ``(object id, u(o))`` for every object whose UBR overlaps the leaf's
  region.  Non-leaf nodes occupy a bounded main-memory budget; leaves are
  linked lists of simulated disk pages.
* **Secondary index** — an extensible hash table mapping object id to
  ``(UBR, object)``; consulted for UBRs during maintenance and for pdfs
  during PNNQ Step 2.

A point query descends the octree (free — non-leaves are in memory),
reads the one leaf containing ``q`` (charged I/O), and then prunes the
leaf's candidate list with the min-max distance filter described in
Section VI-A: objects whose ``distmin`` from ``q`` exceed the smallest
``distmax`` among the leaf's candidates cannot have non-zero probability.

Maintenance follows Section VI-B.  On the Lemma 8 conditions: the paper's
scanned text renders conditions (3) and the corresponding Step-2 filters
with an ambiguous =/≠ glyph; by Lemma 2 (``dom(o', o) = ∅`` iff the
uncertainty regions intersect) an object whose region *intersects*
``u(o')`` is unconstrained by ``o'`` and therefore **unaffected** — the
implementation uses that logically forced direction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..engine.cost import CostEstimate
from ..geometry import (
    Rect,
    maxdist_sq_point_rect,
    mindist_sq_point_rect,
)
from ..storage import ExtensibleHashTable, OctreeConfig, PagedOctree, Pager
from ..uncertain import (
    UncertainDataset,
    UncertainObject,
    check_index_in_sync,
)
from .cset import CSetStrategy, IncrementalSelection
from .se import SEConfig, ShrinkExpand

__all__ = ["PVIndex", "PVIndexStats", "SecondaryRecord"]


@dataclass(frozen=True)
class SecondaryRecord:
    """One secondary-index record: the object's UBR and the object."""

    ubr: Rect
    obj: UncertainObject


@dataclass
class PVIndexStats:
    """Construction / maintenance cost counters.

    ``cells_recomputed`` counts every SE UBR derivation (the expensive
    unit of work): a build contributes ``|S|``, an incremental update
    only the new object plus the Lemma 8 affected set — the locality
    the Fig 10(h)/(i) comparison rests on.
    """

    build_seconds: float = 0.0
    se_seconds: float = 0.0
    insert_seconds: float = 0.0
    delete_seconds: float = 0.0
    update_affected: int = 0
    update_examined: int = 0
    cells_recomputed: int = 0

    def reset(self) -> None:
        self.build_seconds = 0.0
        self.se_seconds = 0.0
        self.insert_seconds = 0.0
        self.delete_seconds = 0.0
        self.update_affected = 0
        self.update_examined = 0
        self.cells_recomputed = 0


class PVIndex:
    """The PV-index over an uncertain dataset.

    Build with :meth:`build`; query Step 1 with :meth:`candidates`;
    maintain with :meth:`insert` / :meth:`delete` (incremental, the
    contribution of Section VI-B) or rebuild from scratch.

    The index mutates the dataset it was built over on insert/delete —
    dataset and index evolve together, as in the paper's system model.
    """

    def __init__(
        self,
        dataset: UncertainDataset,
        se: ShrinkExpand,
        pager: Pager,
        primary: PagedOctree,
        secondary: ExtensibleHashTable,
    ) -> None:
        self.dataset = dataset
        self.se = se
        self.pager = pager
        self.primary = primary
        self.secondary = secondary
        self.stats = PVIndexStats()
        #: Dataset epoch the index contents are valid for; kept in sync
        #: by :meth:`insert` / :meth:`delete` so engines can tell a
        #: maintained index from one bypassed by a direct mutation.
        self.dataset_epoch = getattr(dataset, "epoch", 0)

    # ------------------------------------------------------------------
    # Construction (Section VI-A, "Index Construction")
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: UncertainDataset,
        strategy: CSetStrategy | None = None,
        se_config: SEConfig | None = None,
        octree_config: OctreeConfig | None = None,
        pager: Pager | None = None,
    ) -> "PVIndex":
        """Compute every UBR with SE and bulk-insert into the index."""
        t0 = time.perf_counter()
        pager = pager or Pager()
        se = ShrinkExpand(
            strategy=strategy or IncrementalSelection(),
            config=se_config or SEConfig(),
        )
        primary = PagedOctree(
            domain=dataset.domain,
            pager=pager,
            config=octree_config or OctreeConfig(),
        )
        sample_obj = next(iter(dataset))
        secondary = ExtensibleHashTable(
            pager,
            record_size=sample_obj.nbytes() + sample_obj.region.nbytes(),
        )
        index = cls(dataset, se, pager, primary, secondary)

        index._insert_all(list(dataset))
        index.stats.build_seconds += time.perf_counter() - t0
        return index

    def _insert_all(self, objs: list[UncertainObject]) -> None:
        """SE for every object (lockstep chunks), then insert in order."""
        t_se0 = time.perf_counter()
        results = self.se.compute_ubrs(objs, self.dataset)
        self.stats.se_seconds += time.perf_counter() - t_se0
        self.stats.cells_recomputed += len(results)
        for obj, result in zip(objs, results):
            self._insert_entry(obj, result.ubr)

    def _insert_entry(self, obj: UncertainObject, ubr: Rect) -> None:
        """Steps 1–4 of the construction algorithm for one object."""
        self.primary.insert(obj.oid, ubr, payload=obj.region)
        self.secondary.put(obj.oid, SecondaryRecord(ubr=ubr, obj=obj))

    # ------------------------------------------------------------------
    # Query (PNNQ Step 1)
    # ------------------------------------------------------------------
    def candidates(self, query: np.ndarray) -> list[int]:
        """Ids of objects with non-zero probability of being NN of ``query``.

        One octree descent + leaf read, then the min-max pruning filter.
        """
        q = np.asarray(query, dtype=np.float64)
        entries = self.primary.point_query(q)
        if not entries:
            return []
        # Leaf entries are (oid, placement UBR, u(o)); the paper prunes L
        # with the min-max filter only.  Any object whose PV-cell holds q
        # has its UBR over this leaf, so the leaf contains the global
        # minimizer of distmax and the filter below is exact.
        live = [(oid, region) for oid, _ubr, region in entries]
        min_sq = np.array(
            [mindist_sq_point_rect(q, region) for _, region in live]
        )
        max_sq = np.array(
            [maxdist_sq_point_rect(q, region) for _, region in live]
        )
        bound = max_sq.min()
        return [
            oid for (oid, _), m in zip(live, min_sq) if m <= bound
        ]

    def ubr_of(self, oid: int) -> Rect:
        """The stored UBR of an object (one secondary-index probe)."""
        record: SecondaryRecord = self.secondary.get(oid)
        return record.ubr

    def cost_estimate(self) -> CostEstimate:
        """Per-query Step-1 cost from the index's own shape.

        A point query is one in-memory octree descent plus one leaf
        read plus a min-max filter over the leaf's entries, so the
        estimate is calibrated from the primary index's real occupancy:
        mean entries per leaf sets both the Python-level filter cost
        (~1 µs/entry in this implementation) and the pages per leaf
        chain; the descent depth follows from the leaf count and
        fan-out ``2^d``.
        """
        dims = self.dataset.dims
        leaves = max(1, self.primary.n_leaves)
        entries_per_leaf = self.primary.n_entries / leaves
        pages = max(
            1.0,
            math.ceil(
                entries_per_leaf
                * self.primary.entry_bytes
                / self.pager.page_size
            ),
        )
        depth = math.log(leaves, 2**dims) if leaves > 1 else 1.0
        step1_us = 12.0 + 3.0 * depth + 1.1 * entries_per_leaf * dims
        # The leaf's min-max filter keeps a fraction of its entries.
        candidates = max(1.0, entries_per_leaf / 3.0)
        return CostEstimate(
            step1_us=step1_us,
            page_reads=pages,
            candidates=candidates,
            source="index",
        )

    # ------------------------------------------------------------------
    # Incremental maintenance (Section VI-B)
    # ------------------------------------------------------------------
    def _check_in_sync(self) -> None:
        check_index_in_sync(self.dataset_epoch, self.dataset, "PV-index")

    def delete(self, oid: int) -> None:
        """Remove object ``oid``; incrementally refresh affected UBRs."""
        self._check_in_sync()
        t0 = time.perf_counter()
        record: SecondaryRecord = self.secondary.get(oid)
        removed = record.obj
        old_ubr = record.ubr

        # Step 2: candidate affected set from a primary range query.
        affected = self._affected_objects(
            probe_ubr=old_ubr, other=removed, exclude_oid=oid
        )

        # Apply the dataset change before recomputation (SE must see S').
        self.dataset.delete(oid)

        # Step 3: warm-started SE for the whole affected set in one
        # lockstep call — old UBRs become the lower bounds.
        old_ubrs = [self.secondary.get(obj.oid).ubr for obj in affected]
        t_se0 = time.perf_counter()
        results = self.se.compute_ubrs(
            affected, self.dataset, lowers=old_ubrs
        )
        self.stats.se_seconds += time.perf_counter() - t_se0

        # Step 4: refresh the primary and secondary indexes.
        self._remove_primary_entries(oid, old_ubr)
        self.secondary.delete(oid)
        for obj, old, result in zip(affected, old_ubrs, results):
            self._grow_primary_entries(obj, old, result.ubr)
            self.secondary.put(
                obj.oid, SecondaryRecord(ubr=result.ubr, obj=obj)
            )
        self.stats.update_affected += len(affected)
        self.stats.cells_recomputed += len(affected)
        self.dataset_epoch = getattr(self.dataset, "epoch", 0)
        self.stats.delete_seconds += time.perf_counter() - t0

    def insert(self, obj: UncertainObject) -> None:
        """Add ``obj``; incrementally refresh affected UBRs."""
        self._check_in_sync()
        t0 = time.perf_counter()
        self.dataset.insert(obj)

        # Step 1: UBR of the new object via a full SE run on S'.
        t_se0 = time.perf_counter()
        new_obj_ubr = self.se.compute_ubr(obj, self.dataset).ubr
        self.stats.se_seconds += time.perf_counter() - t_se0

        # Step 2: affected set via a range query with B(S', o').
        affected = self._affected_objects(
            probe_ubr=new_obj_ubr, other=obj, exclude_oid=obj.oid
        )

        # Step 3: warm-started SE for the whole affected set in one
        # lockstep call — old UBRs become the upper bounds.
        old_ubrs = [self.secondary.get(o.oid).ubr for o in affected]
        t_se0 = time.perf_counter()
        results = self.se.compute_ubrs(
            affected, self.dataset, uppers=old_ubrs
        )
        self.stats.se_seconds += time.perf_counter() - t_se0

        # Step 4: shrink affected entries, then insert the new object.
        for other, old, result in zip(affected, old_ubrs, results):
            self._shrink_primary_entries(other, old, result.ubr)
            self.secondary.put(
                other.oid, SecondaryRecord(ubr=result.ubr, obj=other)
            )
        self._insert_entry(obj, new_obj_ubr)
        self.stats.update_affected += len(affected)
        self.stats.cells_recomputed += len(affected) + 1
        self.dataset_epoch = getattr(self.dataset, "epoch", 0)
        self.stats.insert_seconds += time.perf_counter() - t0

    # ------------------------------------------------------------------
    def _affected_objects(
        self,
        probe_ubr: Rect,
        other: UncertainObject,
        exclude_oid: int,
    ) -> list[UncertainObject]:
        """Lemma 8 filter: objects whose PV-cell may change.

        Starts from all objects found in leaves overlapping
        ``probe_ubr``, then discards:

        * objects whose uncertainty region intersects ``u(other)``
          (Lemma 2 ⇒ ``dom(other, o) = ∅`` ⇒ unaffected);
        * objects whose stored UBR does not intersect ``probe_ubr``
          (conservative surrogate for disjoint PV-cells, conditions
          (1)/(2) of Lemma 8).
        """
        seen: set[int] = set()
        for leaf in self.primary.range_query_leaves(probe_ubr):
            for oid, _ubr, _region in leaf.read():
                seen.add(oid)
        seen.discard(exclude_oid)
        affected: list[UncertainObject] = []
        for oid in sorted(seen):
            obj = self.dataset.get(oid)
            if obj is None:
                continue
            self.stats.update_examined += 1
            if obj.region.intersects(other.region):
                continue  # condition (3): never constrained by `other`
            stored: SecondaryRecord = self.secondary.get(oid)
            if not stored.ubr.intersects(probe_ubr):
                continue  # conditions (1)/(2) via UBR disjointness
            affected.append(obj)
        return affected

    def _remove_primary_entries(self, oid: int, ubr: Rect) -> None:
        """Drop every primary-index entry of ``oid``."""
        for leaf in self.primary.range_query_leaves(ubr):
            leaf.remove_key(oid)

    def _grow_primary_entries(
        self, obj: UncertainObject, old: Rect, new: Rect
    ) -> None:
        """After deletion: UBR can only grow; add entries to new leaves.

        The paper (Step 4) leaves old entries in place (``N' − N``) so
        non-leaf structure is not churned; entries carry the new UBR in
        freshly covered leaves only.
        """
        for leaf in self.primary.range_query_leaves(new):
            if leaf.region.intersects(old):
                continue  # already holds an entry for obj
            leaf.add_entry(obj.oid, new, payload=obj.region)

    def _shrink_primary_entries(
        self, obj: UncertainObject, old: Rect, new: Rect
    ) -> None:
        """After insertion: UBR can only shrink; drop entries in N − N'."""
        for leaf in self.primary.range_query_leaves(old):
            if leaf.region.intersects(new):
                continue
            leaf.remove_key(obj.oid)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.secondary)

    def __repr__(self) -> str:
        return (
            f"PVIndex(objects={len(self)}, octree={self.primary!r})"
        )
