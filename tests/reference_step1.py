"""Pre-vectorisation Step-1 implementations, kept as test oracles.

These are the min/max squared-distance kernel the brute-force filter
ran before the per-dimension loop replaced it (one ``(b, n, d)``
broadcast with the small ``d`` axis innermost, reduced by ``einsum``),
the per-entry PV-index leaf filter, the per-entry R-tree leaf filter
of ``RTreePNNQ.candidates``, and the per-object Lemma 8 filter of
``PVIndex._affected_objects``.  They are retained verbatim (modulo
imports) so ``tests/test_step1_kernel.py`` and ``tests/test_se_batch.py``
can pin the new paths against them.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.geometry import maxdist_sq_point_rect, mindist_sq_point_rect

__all__ = [
    "reference_minmax_sq",
    "reference_pv_candidates",
    "reference_rtree_candidates",
    "reference_affected_objects",
]


def reference_minmax_sq(queries, los, his):
    """The broadcast ``minmax_sq_chunks`` body for one chunk."""
    chunk = np.asarray(queries, dtype=np.float64)
    gap = np.maximum(
        np.maximum(los[None, :, :] - chunk[:, None, :],
                   chunk[:, None, :] - his[None, :, :]),
        0.0,
    )
    min_sq = np.einsum("bnd,bnd->bn", gap, gap)
    far = np.maximum(
        np.abs(chunk[:, None, :] - los[None, :, :]),
        np.abs(chunk[:, None, :] - his[None, :, :]),
    )
    max_sq = np.einsum("bnd,bnd->bn", far, far)
    return min_sq, max_sq


def reference_pv_candidates(index, query):
    """``PVIndex.candidates`` with one scalar distance call per entry."""
    q = np.asarray(query, dtype=np.float64)
    entries = index.primary.point_query(q)
    if not entries:
        return []
    live = [(oid, region) for oid, _ubr, region in entries]
    min_sq = np.array(
        [mindist_sq_point_rect(q, region) for _, region in live]
    )
    max_sq = np.array(
        [maxdist_sq_point_rect(q, region) for _, region in live]
    )
    bound = max_sq.min()
    return [oid for (oid, _), m in zip(live, min_sq) if m <= bound]


def reference_rtree_candidates(index, query):
    """``RTreePNNQ.candidates`` with one scalar distance call per leaf
    entry."""
    from repro.rtree.node import Entry

    q = np.asarray(query, dtype=np.float64)
    root = index.tree._root
    if root.mbr is None:
        return []
    counter = itertools.count()
    heap = [(mindist_sq_point_rect(q, root.mbr), next(counter), root)]
    best_max_sq = float("inf")
    collected = []
    while heap:
        dist_sq, _, item = heapq.heappop(heap)
        if dist_sq > best_max_sq:
            break  # everything remaining is at least this far
        if isinstance(item, Entry):
            collected.append((dist_sq, item))
            best_max_sq = min(
                best_max_sq, maxdist_sq_point_rect(q, item.rect)
            )
            continue
        node = item
        if node.is_leaf:
            index.tree.charge_leaf_read(node)
            for entry in node.children:
                e_min = mindist_sq_point_rect(q, entry.rect)
                if e_min <= best_max_sq:
                    heapq.heappush(
                        heap, (e_min, next(counter), entry)
                    )
                    best_max_sq = min(
                        best_max_sq,
                        maxdist_sq_point_rect(q, entry.rect),
                    )
        else:
            for child in node.children:
                c_min = mindist_sq_point_rect(q, child.mbr)
                if c_min <= best_max_sq:
                    heapq.heappush(
                        heap, (c_min, next(counter), child)
                    )
    return [
        entry.key
        for dist_sq, entry in collected
        if dist_sq <= best_max_sq
    ]


def reference_affected_objects(self, probe_ubr, other, exclude_oid):
    """``PVIndex._affected_objects`` with one ``Rect.intersects`` and
    one secondary probe per examined object."""
    seen = set()
    for leaf in self.primary.range_query_leaves(probe_ubr):
        for oid, _ubr, _region in leaf.read():
            seen.add(oid)
    seen.discard(exclude_oid)
    affected = []
    for oid in sorted(seen):
        obj = self.dataset.get(oid)
        if obj is None:
            continue
        self.stats.update_examined += 1
        if obj.region.intersects(other.region):
            continue
        stored = self.secondary.get(oid)
        if not stored.ubr.intersects(probe_ubr):
            continue
        affected.append(obj)
    return affected
