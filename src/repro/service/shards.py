"""Spatial sharding for scatter-gather Step 1.

The process tier splits the database into a few dozen spatial
*shards*: sort-tile-recursive (STR) tiles of the region centres
(Leutenegger et al., ICDE 1997).  The rows are sorted by the first
coordinate of their centre and cut into equal-count slabs, each slab
is sorted by the next coordinate and cut again, and so on through the
last dimension.  Equal-count cuts always give a disjoint cover, even
for coincident centres or fewer rows than tiles.  Each shard is a
slice of one permuted copy of the packed corner arrays and carries its
members' MBR, so a query batch can bound whole shards before touching
any member:

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

Both inequalities hold in floating point, not just in exact
arithmetic: the MBR bounds come from the same
:func:`~repro.engine.retrievers.minmax_sq_chunks` kernel as the member
bounds, and every step of it (subtract, max, square, left-to-right
sum) is monotone in the corners.

:class:`ShardedRetriever` runs the brute-force min-max filter per
surviving shard and merges candidates back into global packed order,
so its answers are **bit-identical** to
:class:`~repro.engine.retrievers.BruteForceRetriever` (asserted by
``tests/test_shards.py``): the per-element min/max kernel is
row-independent, so evaluating members shard-by-shard produces the
same floats as one global pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine.retrievers import minmax_sq_chunks
from ..engine.stats import ExecutionStats
from ..uncertain import UncertainDataset

__all__ = ["ShardLayout", "ShardedRetriever", "TARGET_SHARDS"]

#: Target shard count.  STR cuts each dimension into the smallest
#: ``per`` slabs with ``per ** d >= TARGET_SHARDS`` (36 tiles at d=2,
#: 64 at d=3): enough tiles that a clustered query dispatches a small
#: share of the members, few enough that the ``(b, S)`` shard-bound
#: pass stays tiny.
TARGET_SHARDS = 32


@dataclass(frozen=True)
class ShardLayout:
    """A complete disjoint partitioning of one dataset epoch.

    The member arrays hold every packed row once, in shard order;
    shard ``s`` is rows ``starts[s]:starts[s + 1]`` of each.  Built
    once per worker attach (and rebuilt after every mutation fence —
    the shared store is immutable between fences, so a layout never
    needs incremental maintenance).
    """

    #: Dataset epoch the layout was computed at.
    epoch: int
    #: ``(S + 1,)`` shard slice boundaries into the member arrays.
    starts: np.ndarray
    #: Global packed-array row of each member (ascending within a
    #: shard, so merged candidates restore packed order cheaply).
    positions: np.ndarray = field(repr=False)
    #: Member object ids, aligned with :attr:`positions`.
    ids: np.ndarray = field(repr=False)
    #: ``(n, d)`` member region low corners.
    los: np.ndarray = field(repr=False)
    #: ``(n, d)`` member region high corners.
    his: np.ndarray = field(repr=False)
    #: ``(S, d)`` shard MBR low corners.
    mbr_los: np.ndarray = field(repr=False)
    #: ``(S, d)`` shard MBR high corners.
    mbr_his: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.starts) - 1

    def shard(self, s: int) -> slice:
        """Shard ``s``'s rows of the member arrays."""
        return slice(int(self.starts[s]), int(self.starts[s + 1]))

    @classmethod
    def build(cls, dataset: UncertainDataset) -> "ShardLayout":
        """STR-tile ``dataset``'s region centres into shards."""
        ids, los, his = dataset.packed_regions()
        d = los.shape[1]
        per = 1
        while per ** d < TARGET_SHARDS:
            per += 1
        centres = (los + his) / 2.0
        tiles = [np.arange(len(ids))]
        for k in range(d):
            tiles = [
                tile
                for rows in tiles
                for tile in np.array_split(
                    rows[np.argsort(centres[rows, k], kind="stable")], per
                )
            ]
        positions = np.concatenate([np.sort(tile) for tile in tiles])
        starts = np.cumsum([0] + [tile.size for tile in tiles if tile.size])
        m_los, m_his = los[positions], his[positions]
        return cls(
            epoch=dataset.epoch,
            starts=starts,
            positions=positions,
            ids=ids[positions],
            los=m_los,
            his=m_his,
            mbr_los=np.minimum.reduceat(m_los, starts[:-1], axis=0),
            mbr_his=np.maximum.reduceat(m_his, starts[:-1], axis=0),
        )


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
        stats: ExecutionStats | None = None,
    ) -> None:
        self.dataset = dataset
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
            layout = ShardLayout.build(self.dataset)
            self._layout = layout
        return layout

    # ------------------------------------------------------------------
    def candidates(self, query: np.ndarray) -> list[int]:
        """Step-1 answer for one query point."""
        return self.candidates_batch(
            np.asarray(query, dtype=np.float64)[None, :]
        )[0]

    def candidates_batch(self, queries: np.ndarray) -> list[list[int]]:
        """Step-1 answers for a ``(b, d)`` block of query points.

        Three passes: (1) bound the query block against the ``(S, d)``
        shard MBRs to find surviving shards per query, (2) run the
        shared min/max kernel over each surviving shard's members and
        fold the exact per-query bound, (3) filter each shard's
        members against the final bound and merge candidates in
        global packed order.
        """
        q = np.asarray(queries, dtype=np.float64)
        layout = self.layout
        b = len(q)
        if b == 0:
            return []
        # (b, S) squared min/max distance to each shard MBR.
        blocks = list(minmax_sq_chunks(q, layout.mbr_los, layout.mbr_his))
        mbr_min = np.vstack([blk[0] for blk in blocks])
        mbr_max = np.vstack([blk[1] for blk in blocks])
        survive = mbr_min <= mbr_max.min(axis=1)[:, None]  # (b, S)

        # Per-shard member pass over the surviving query rows only.
        bounds = np.full(b, np.inf)
        pending: list[tuple[np.ndarray, np.ndarray, slice]] = []
        for s_idx in range(len(layout)):
            rows = np.nonzero(survive[:, s_idx])[0]
            if rows.size == 0:
                continue
            members = layout.shard(s_idx)
            parts_min: list[np.ndarray] = []
            start = 0
            for min_sq, max_sq in minmax_sq_chunks(
                q[rows], layout.los[members], layout.his[members]
            ):
                stop = start + min_sq.shape[0]
                parts_min.append(min_sq)
                np.minimum.at(bounds, rows[start:stop], max_sq.min(axis=1))
                start = stop
            pending.append((rows, np.vstack(parts_min), members))

        if self.stats is not None:
            dispatched = int(survive.sum())
            self.stats.shards_dispatched += dispatched
            self.stats.shards_pruned += b * len(layout) - dispatched

        # Merge: position-tagged survivors, restored to packed order.
        merged: list[list[tuple[np.ndarray, np.ndarray]]]
        merged = [[] for _ in range(b)]
        for rows, min_sq, members in pending:
            keep = min_sq <= bounds[rows][:, None]
            positions = layout.positions[members]
            ids = layout.ids[members]
            for local, qi in enumerate(rows):
                sel = np.nonzero(keep[local])[0]
                if sel.size:
                    merged[int(qi)].append((positions[sel], ids[sel]))
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
