"""Spatial sharding for scatter-gather Step 1.

The process tier splits the database into a handful of spatial
*shards* — disjoint groups of objects partitioned by region center
through the existing :class:`~repro.storage.octree.PagedOctree`
(hash-by-object-id when the octree degenerates).  Each shard carries
its members' packed corner arrays plus the member MBR, so a query
batch can bound whole shards before touching any member:

* ``B0(q) = min over shards of maxdist(q, MBR_s)`` is an upper bound
  on the exact pruning bound ``B(q) = min over objects of
  maxdist(q, o)`` — each shard's MBR contains its members, so its
  maxdist dominates every member's.
* A shard with ``mindist(q, MBR_s) > B0(q)`` holds no candidate: each
  member's mindist is at least the MBR's, hence strictly above
  ``B(q)``.  Such shards are never dispatched (counted in
  ``shards_pruned``).
* The shard holding the global argmin-maxdist member always survives
  (its MBR mindist is at most that member's maxdist, which is
  ``B(q)`` and therefore at most ``B0(q)``), so the exact bound is
  recoverable from the survivors alone: the min over surviving
  members' maxdist equals ``B(q)`` bit-for-bit — pruned members all
  sit strictly above it, and float ``min`` is exact over any subset
  that retains the argmin.

:class:`ShardedRetriever` runs the brute-force min-max filter per
surviving shard and merges candidates back into global packed order,
so its answers are **bit-identical** to
:class:`~repro.engine.retrievers.BruteForceRetriever` (asserted by
``tests/test_shards.py``): the per-element min/max kernel is
row-independent, so evaluating members shard-by-shard produces the
same floats as one global pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..engine.cost import CostEstimate, expected_candidates, min_max_scan_us
from ..engine.retrievers import minmax_sq_chunks
from ..engine.stats import ExecutionStats
from ..geometry import Rect
from ..storage.octree import OctreeConfig, PagedOctree
from ..storage.pager import Pager
from ..uncertain import UncertainDataset

__all__ = ["Shard", "ShardLayout", "ShardedRetriever", "DEFAULT_SHARDS"]

#: Default shard count: enough for meaningful pruning on clustered
#: workloads while keeping the per-batch shard-bound matrix tiny.
DEFAULT_SHARDS = 8


@dataclass(frozen=True)
class Shard:
    """One spatial partition: member rows of the packed corner arrays."""

    #: Global packed-array row positions of the members (sorted
    #: ascending so merged candidates restore insertion order cheaply).
    positions: np.ndarray
    #: Member object ids, aligned with :attr:`positions`.
    ids: np.ndarray
    #: ``(m, d)`` member region low corners.
    los: np.ndarray
    #: ``(m, d)`` member region high corners.
    his: np.ndarray
    #: Member MBR low corner (bound of member *regions*, not the
    #: octree leaf region — tighter, and correct for the hash layout
    #: where members share no leaf).
    mbr_lo: np.ndarray
    #: Member MBR high corner.
    mbr_hi: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class ShardLayout:
    """A complete disjoint partitioning of one dataset epoch.

    Built once per worker attach (and rebuilt after every mutation
    fence — the shared store is immutable between fences, so a layout
    never needs incremental maintenance).
    """

    shards: tuple[Shard, ...]
    #: Dataset epoch the layout was computed at.
    epoch: int
    #: ``"octree"`` or the ``"hash"`` fallback.
    method: str
    #: ``(S, d)`` stacked shard MBR low corners (the batch bound pass
    #: broadcasts against these).
    mbr_los: np.ndarray = field(repr=False)
    #: ``(S, d)`` stacked shard MBR high corners.
    mbr_his: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: UncertainDataset,
        n_shards: int = DEFAULT_SHARDS,
    ) -> "ShardLayout":
        """Partition ``dataset`` into roughly ``n_shards`` shards.

        The spatial octree split comes first; it splits into ``2^d``
        children at a time, so it can overshoot the target by a small
        factor.  When the octree cannot separate the data (all centers
        coincident, depth limit, or fewer than ``2 * n_shards``
        objects), object ids are hashed instead, into at most
        ``n_shards`` shards.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        ids, los, his = dataset.packed_regions()
        groups: list[np.ndarray] | None = None
        used = "hash"
        if n_shards > 1:
            groups = _octree_partition(dataset, ids, los, his, n_shards)
            if groups is not None:
                used = "octree"
        if groups is None:
            buckets = np.asarray(ids, dtype=np.int64) % n_shards
            groups = [
                np.nonzero(buckets == b)[0] for b in range(n_shards)
            ]
            groups = [g for g in groups if g.size]
        shards = []
        for rows in groups:
            rows = np.sort(np.asarray(rows, dtype=np.int64))
            s_los = los[rows].copy()
            s_his = his[rows].copy()
            shards.append(
                Shard(
                    positions=rows,
                    ids=np.asarray(ids, dtype=np.int64)[rows],
                    los=s_los,
                    his=s_his,
                    mbr_lo=s_los.min(axis=0),
                    mbr_hi=s_his.max(axis=0),
                )
            )
        shards.sort(key=lambda s: int(s.positions[0]))
        return cls(
            shards=tuple(shards),
            epoch=dataset.epoch,
            method=used,
            mbr_los=np.stack([s.mbr_lo for s in shards]),
            mbr_his=np.stack([s.mbr_hi for s in shards]),
        )


def _octree_partition(
    dataset: UncertainDataset,
    ids: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    n_shards: int,
) -> list[np.ndarray] | None:
    """Spatial grouping via the paged octree, or ``None`` when it
    cannot produce at least two groups.

    Region *centers* are inserted as degenerate rectangles so every
    object lands in exactly the leaves containing its center — the
    octree's overlap replication only fires for centers sitting on a
    split plane, which the first-leaf-wins dedup below resolves
    deterministically.  The pager's page size is chosen so one leaf
    page holds roughly ``n / n_shards`` entries: leaves fill, split,
    and the resulting leaf set is the partition.
    """
    n = len(ids)
    if n < 2 * n_shards:
        return None
    d = dataset.dims
    centers = (los + his) / 2.0
    target_leaf = max(2, math.ceil(n / n_shards))
    entry_bytes = OctreeConfig.entry_size(d)
    pager = Pager(page_size=max(64, entry_bytes * target_leaf))
    tree = PagedOctree(
        dataset.domain,
        pager,
        OctreeConfig(memory_budget=64 * 1024 * 1024, max_depth=24),
        entry_bytes=entry_bytes,
    )
    for i in range(n):
        c = centers[i]
        tree.insert(int(ids[i]), Rect(c, c))
    row_of = {int(oid): i for i, oid in enumerate(ids)}
    seen: set[int] = set()
    groups: list[np.ndarray] = []
    for leaf in tree.iter_leaves():
        members = []
        for oid, _rect, _payload in leaf.peek():
            if oid in seen:
                continue
            seen.add(oid)
            members.append(row_of[oid])
        if members:
            groups.append(np.asarray(members, dtype=np.int64))
    if len(groups) < 2:
        return None
    return groups


class ShardedRetriever:
    """Scatter-gather Step 1: the exact min-max filter, shard by shard.

    A drop-in :class:`~repro.engine.retrievers.Retriever` whose
    answers are bit-identical to brute force — the shard pass only
    *skips* members proven non-candidates by their shard MBR, and the
    survivors' bound and filter reproduce the global floats exactly
    (see the module docstring for the argument).  Prune/dispatch
    counts land on ``stats`` when one is attached, so the scatter
    telemetry surfaces through ``db.explain`` and ``ExecutionStats``.
    """

    name = "sharded"

    def __init__(
        self,
        dataset: UncertainDataset,
        layout: ShardLayout | None = None,
        n_shards: int = DEFAULT_SHARDS,
        stats: ExecutionStats | None = None,
    ) -> None:
        self.dataset = dataset
        self._n_shards = n_shards
        self._layout = layout
        self.stats = stats

    # ------------------------------------------------------------------
    @property
    def dataset_epoch(self) -> int:
        """Always the live epoch: the layout is revalidated per call,
        so shard answers can never be stale."""
        return getattr(self.dataset, "epoch", 0)

    @property
    def layout(self) -> ShardLayout:
        """The current shard layout (rebuilt lazily on epoch drift)."""
        layout = self._layout
        if layout is None or layout.epoch != self.dataset.epoch:
            layout = ShardLayout.build(self.dataset, self._n_shards)
            self._layout = layout
        return layout

    def cost_estimate(self) -> CostEstimate:
        """Brute force's linear cost, discounted by expected pruning.

        The discount is a heuristic (half the shards dominated on a
        clustered workload); exactness is unaffected either way.
        """
        n = len(self.dataset)
        d = self.dataset.dims
        s = max(len(self.layout), 1)
        surviving = max(1.0, s / 2.0)
        return CostEstimate(
            step1_us=min_max_scan_us(n * surviving / s, d),
            page_reads=0.0,
            candidates=expected_candidates(n, d),
            source="index",
        )

    # ------------------------------------------------------------------
    def candidates(self, query: np.ndarray) -> list[int]:
        """Step-1 answer for one query point."""
        return self.candidates_batch(
            np.asarray(query, dtype=np.float64)[None, :]
        )[0]

    def candidates_batch(self, queries: np.ndarray) -> list[list[int]]:
        """Step-1 answers for a ``(b, d)`` block of query points.

        Three passes: (1) broadcast the query block against the
        ``(S, d)`` shard MBRs to find surviving shards per query,
        (2) run the shared min/max kernel over each surviving shard's
        members and fold the exact per-query bound, (3) filter each
        shard's members against the final bound and merge candidates
        in global packed order.
        """
        q = np.asarray(queries, dtype=np.float64)
        layout = self.layout
        shards = layout.shards
        b = len(q)
        if b == 0:
            return []
        # (b, S) squared min/max distance to each shard MBR.
        gap = np.maximum(
            np.maximum(
                layout.mbr_los[None, :, :] - q[:, None, :],
                q[:, None, :] - layout.mbr_his[None, :, :],
            ),
            0.0,
        )
        mbr_min = np.einsum("bsd,bsd->bs", gap, gap)
        far = np.maximum(
            np.abs(q[:, None, :] - layout.mbr_los[None, :, :]),
            np.abs(q[:, None, :] - layout.mbr_his[None, :, :]),
        )
        mbr_max = np.einsum("bsd,bsd->bs", far, far)
        survive = mbr_min <= mbr_max.min(axis=1)[:, None]  # (b, S)

        # Per-shard member pass over the surviving query rows only.
        bounds = np.full(b, np.inf)
        pending: list[tuple[np.ndarray, np.ndarray, "Shard"]] = []
        for s_idx, shard in enumerate(shards):
            rows = np.nonzero(survive[:, s_idx])[0]
            if rows.size == 0:
                continue
            parts_min: list[np.ndarray] = []
            for min_sq, max_sq in minmax_sq_chunks(
                q[rows], shard.los, shard.his
            ):
                parts_min.append(min_sq)
                np.minimum.at(
                    bounds,
                    rows[: min_sq.shape[0]],
                    max_sq.min(axis=1),
                )
                rows = rows[min_sq.shape[0]:]
            rows = np.nonzero(survive[:, s_idx])[0]
            pending.append((rows, np.vstack(parts_min), shard))

        if self.stats is not None:
            dispatched = int(survive.sum())
            self.stats.shards_dispatched += dispatched
            self.stats.shards_pruned += b * len(shards) - dispatched

        # Merge: position-tagged survivors, restored to packed order.
        merged: list[list[tuple[np.ndarray, np.ndarray]]]
        merged = [[] for _ in range(b)]
        for rows, min_sq, shard in pending:
            keep = min_sq <= bounds[rows][:, None]
            for local, qi in enumerate(rows):
                row = keep[local]
                if row.any():
                    sel = np.nonzero(row)[0]
                    merged[int(qi)].append(
                        (shard.positions[sel], shard.ids[sel])
                    )
        out: list[list[int]] = []
        for chunks in merged:
            if not chunks:
                out.append([])
                continue
            positions = np.concatenate([c[0] for c in chunks])
            oids = np.concatenate([c[1] for c in chunks])
            order = np.argsort(positions, kind="stable")
            out.append([int(i) for i in oids[order]])
        return out
