"""R-tree baseline for PNNQ Step 1 (branch-and-prune).

Reference [8] (Cheng, Kalashnikov, Prabhakar, TKDE 2004) retrieves the
objects with non-zero qualification probability by a branch-and-prune
traversal of an R-tree over uncertainty regions:

1. Best-first traversal by mindist maintains a running bound
   ``best_maxdist`` — the smallest ``distmax(o, q)`` seen so far; any
   subtree/object with ``mindist > best_maxdist`` can never reach the
   query before some other object certainly does, and is pruned.
2. A second pass over the collected candidates discards those whose
   mindist exceeds the final bound.

The result is exactly the set ``{o : mindist(o, q) <= min_o'
maxdist(o', q)}`` — the same candidate set the PV-index produces after
its leaf-level filter, so Step 2 is identical for both and the
comparison isolates Step-1 cost (the paper's stated goal).
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ..engine.cost import CostEstimate
from ..engine.retrievers import minmax_sq_chunks
from ..geometry import mindist_sq_point_rect
from ..uncertain import UncertainDataset
from .node import Entry
from .rstar import RStarTree

__all__ = ["RTreePNNQ", "build_region_rtree"]


def build_region_rtree(
    dataset: UncertainDataset,
    max_entries: int = 100,
    pager=None,
) -> RStarTree:
    """Index all uncertainty regions of a dataset in an R*-tree."""
    tree = RStarTree(
        dims=dataset.dims, max_entries=max_entries, pager=pager
    )
    for obj in dataset:
        tree.insert(obj.oid, obj.region)
    return tree


class RTreePNNQ:
    """Branch-and-prune Step-1 evaluator over an R*-tree.

    Parameters
    ----------
    tree:
        An R*-tree indexing uncertainty regions keyed by object id.
    """

    def __init__(self, tree: RStarTree) -> None:
        self.tree = tree

    @classmethod
    def build(
        cls, dataset: UncertainDataset, max_entries: int = 100, pager=None
    ) -> "RTreePNNQ":
        """Construct the baseline index for ``dataset``.

        The built index snapshots the dataset's mutation epoch: the
        R-tree has no incremental maintenance, so engines treat it as
        stale (and fall back to brute force) once the dataset mutates.
        """
        index = cls(build_region_rtree(dataset, max_entries, pager))
        index.dataset_epoch = getattr(dataset, "epoch", 0)
        return index

    def cost_estimate(self) -> CostEstimate:
        """Per-query Step-1 cost from the tree's own shape.

        Branch-and-prune visits the root-to-leaf path plus a few extra
        leaves near the query, paying Python-level heap work per entry
        visited (~2 µs each here — the R-tree's handicap against the
        PV-index's single leaf filter); page traffic is the visited
        leaves times the pages one leaf occupies.
        """
        tree = self.tree
        n = max(1, len(tree))
        dims = tree.dims
        fanout = max(2, tree.max_entries // 2)  # typical fill ~50%
        height = max(1, tree.height)
        leaves_read = 2.0  # best-first reads the target leaf + spill
        entries_visited = height * fanout + leaves_read * fanout
        step1_us = 18.0 + 2.0 * entries_visited * max(1.0, dims / 2.0)
        pages = leaves_read * max(1, tree._leaf_pages())
        candidates = max(1.0, min(n, fanout / 3.0))
        return CostEstimate(
            step1_us=step1_us,
            page_reads=pages,
            candidates=candidates,
            source="index",
        )

    def candidates(self, query: np.ndarray) -> list[int]:
        """Object ids with non-zero probability of being the NN of ``query``.

        Implements the branch-and-prune traversal described above;
        returns ids in no particular order.
        """
        q = np.asarray(query, dtype=np.float64)
        root = self.tree._root
        if root.mbr is None:
            return []
        counter = itertools.count()
        heap: list[tuple[float, int, object]] = [
            (mindist_sq_point_rect(q, root.mbr), next(counter), root)
        ]
        best_max_sq = float("inf")
        collected: list[tuple[float, Entry]] = []
        while heap:
            dist_sq, _, item = heapq.heappop(heap)
            if dist_sq > best_max_sq:
                break  # everything remaining is at least this far
            if isinstance(item, Entry):
                # Its maxdist entered the bound when its leaf was read.
                collected.append((dist_sq, item))
                continue
            node = item
            if node.is_leaf:
                # The whole leaf goes through the brute-force kernel,
                # so R-tree, PV-index and brute force round alike.
                self.tree.charge_leaf_read(node)
                entries = node.children
                los = np.array([e.rect.lo for e in entries])
                his = np.array([e.rect.hi for e in entries])
                min_sq, max_sq = next(minmax_sq_chunks(q[None, :], los, his))
                best_max_sq = min(best_max_sq, float(max_sq[0].min()))
                for e_min, entry in zip(min_sq[0].tolist(), entries):
                    if e_min <= best_max_sq:
                        heapq.heappush(heap, (e_min, next(counter), entry))
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
