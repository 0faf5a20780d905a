"""Retriever resolution shared by every engine.

A *retriever* answers PNNQ Step 1: given a query point, the ids of
objects with non-zero probability of being its nearest neighbor.  The
library ships three index-backed retrievers — the PV-index (the paper's
contribution), the R-tree branch-and-prune baseline of Cheng et al.
[8], and the UV-index [9] — plus the :class:`BruteForceRetriever`
fallback defined here, which runs the exact min-max filter over the
whole database in one vectorized pass per query.

:func:`resolve_retriever` maps the ``retriever=None`` default every
engine accepts onto the fallback, so engine code never special-cases
"no index"; :func:`discover_pagers` finds the simulated-disk pagers a
retriever (and secondary index) does I/O through, so the shared
instrumentation can attribute page traffic per query phase.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..storage.pager import Pager
from ..uncertain import UncertainDataset
from .cost import CostEstimate, expected_candidates, min_max_scan_us

__all__ = [
    "Retriever",
    "BruteForceRetriever",
    "resolve_retriever",
    "discover_pagers",
]

#: Maximum query rows per vectorized chunk (an upper bound; the actual
#: chunk also shrinks with database size — see :func:`minmax_sq_chunks`).
BATCH_CHUNK = 256

#: Element budget per broadcasted (chunk, n, d) temporary: ~32 MB of
#: float64, so the two concurrent temporaries stay under ~64 MB
#: regardless of database size.
_CHUNK_ELEMENT_BUDGET = 4_000_000


def minmax_sq_chunks(queries: np.ndarray, los: np.ndarray,
                     his: np.ndarray):
    """Yield ``(min_sq, max_sq)`` blocks for a batch of query points.

    The one min/max squared-distance kernel every Step-1 filter shares
    (brute force, k-PNN, shards and the PV-index leaf filter): for each
    chunk of ``queries`` it yields the ``(chunk, n)`` squared min/max
    distances to every region.  Callers differ only in the pruning
    bound they derive (smallest max for PNNQ, k-th smallest max for
    k-PNN).

    The loop runs over the ``d`` dimensions, each step a dense
    ``(chunk, n)`` block, and adds the per-dimension squares left to
    right (``((t_0 + t_1) + t_2) + ...``, the order of
    :func:`repro.geometry.domination._sum_dims`), so every caller
    rounds identically.  The chunk height is
    ``min(BATCH_CHUNK, element budget / (n * d))`` so peak memory is
    bounded for large databases as well as large batches.
    """
    n, d = los.shape
    rows = max(1, min(BATCH_CHUNK, _CHUNK_ELEMENT_BUDGET // max(n * d, 1)))
    for start in range(0, len(queries), rows):
        chunk = queries[start:start + rows]
        min_sq = max_sq = None
        for k in range(d):
            q_k = chunk[:, k, None]
            below = los[:, k] - q_k  # > 0 where q lies below the region
            above = q_k - his[:, k]  # > 0 where q lies above it
            gap = np.maximum(below, above)
            np.maximum(gap, 0.0, out=gap)
            gap *= gap
            # |q - lo| == |lo - q| exactly, so the far corner reuses
            # the two differences.
            far = np.abs(below, out=below)
            np.maximum(far, np.abs(above, out=above), out=far)
            far *= far
            if min_sq is None:
                min_sq, max_sq = gap, far
            else:
                min_sq += gap
                max_sq += far
        yield min_sq, max_sq


class Retriever(Protocol):
    """Anything that answers PNNQ Step 1 (PV-index, R-tree, UV-index)."""

    def candidates(self, query: np.ndarray) -> list[int]:
        """Ids with non-zero probability of being the NN of ``query``."""
        ...


class BruteForceRetriever:
    """Index-free Step 1: the exact min-max filter over all regions.

    Object ``o`` can be the NN of ``q`` iff ``distmin(o, q)`` is at most
    ``min_x distmax(x, q)`` — the same filter every index applies to its
    leaf candidates, here evaluated against the entire database in one
    numpy pass.  Engines fall back to this when built without an index.
    """

    name = "brute-force"

    def __init__(self, dataset: UncertainDataset) -> None:
        self.dataset = dataset

    @property
    def dataset_epoch(self) -> int:
        """Always the live epoch: the filter reads the dataset directly,
        so brute force can never be stale."""
        return getattr(self.dataset, "epoch", 0)

    def cost_estimate(self) -> CostEstimate:
        """Per-query cost: one min/max kernel pass over all ``n`` regions.

        Pure CPU — no index pages exist to read.  The linear ``n * d``
        term is cheap per element (numpy) but unbounded, which is
        exactly why the planner stops picking brute force once the
        database outgrows an index's near-constant leaf cost.
        """
        n = len(self.dataset)
        d = self.dataset.dims
        return CostEstimate(
            step1_us=min_max_scan_us(n, d),
            page_reads=0.0,
            candidates=expected_candidates(n, d),
            source="index",
        )

    def candidates(self, query: np.ndarray) -> list[int]:
        """Step-1 answer for one query point: one min/max kernel pass
        over every region.

        There is deliberately no batched form: a ``(b, n)`` pass over
        a block of queries costs about twice as much per query as this
        one-row pass at served sizes (n in the thousands).
        """
        ids, los, his = self.dataset.packed_regions()
        if len(ids) == 0:
            return []
        q = np.asarray(query, dtype=np.float64)[None, :]
        min_sq, max_sq = next(minmax_sq_chunks(q, los, his))
        keep = min_sq[0] <= max_sq[0].min()
        return [int(i) for i in ids[keep]]


def resolve_retriever(
    dataset: UncertainDataset, retriever: Retriever | None
) -> Retriever:
    """``retriever`` itself, or the brute-force fallback when ``None``."""
    if retriever is None:
        return BruteForceRetriever(dataset)
    return retriever


def discover_pagers(*sources: object) -> list[Pager]:
    """The distinct pagers the given index objects do I/O through.

    Checks each source (a retriever, a secondary index, ...) for a
    ``pager`` attribute, following one ``tree`` indirection for wrappers
    like ``RTreePNNQ`` that hold their index as ``.tree``.
    """
    pagers: list[Pager] = []
    for source in sources:
        if source is None:
            continue
        pager = getattr(source, "pager", None)
        if pager is None:
            tree = getattr(source, "tree", None)
            pager = getattr(tree, "pager", None)
        if isinstance(pager, Pager) and not any(
            pager is seen for seen in pagers
        ):
            pagers.append(pager)
    return pagers
