"""Bulkloading and compression for the PV-index.

The paper's conclusion lists "other precomputation techniques (e.g.,
bulkloading and compression) for facilitating the access of uncertain
data" as future work.  This module provides both:

* :func:`bulk_build` — construct a PV-index by inserting UBRs in
  Z-order (Morton order) of their centers.  Consecutive insertions then
  touch the same octree subtrees, which keeps page chains warm and
  reduces the re-insertion churn of splits.  The resulting index is
  logically identical to sequential construction (same entries in the
  same leaves) — only the build I/O profile improves.
* :func:`compact` — compress an existing index by rewriting each leaf's
  page chain to the minimal number of pages (construction and
  maintenance can leave partially-filled pages behind) and dropping
  chains left empty by deletions.

Both operations preserve query answers exactly; tests assert this
against sequentially-built indexes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..storage import OctreeConfig, Pager
from ..uncertain import UncertainDataset
from .cset import CSetStrategy
from .pvindex import PVIndex
from .se import SEConfig

__all__ = ["BulkBuildReport", "CompactionReport", "bulk_build", "compact"]


@dataclass(frozen=True)
class BulkBuildReport:
    """Outcome of a bulk build."""

    index: PVIndex
    build_seconds: float
    write_pages: int


@dataclass(frozen=True)
class CompactionReport:
    """Outcome of compacting an index."""

    pages_before: int
    pages_after: int
    rewrite_seconds: float

    @property
    def pages_reclaimed(self) -> int:
        """Disk pages freed by the compaction."""
        return self.pages_before - self.pages_after


def _morton_key(coords: np.ndarray, bits: int = 16) -> int:
    """Morton (Z-order) key of quantized coordinates.

    ``coords`` must already be scaled to ``[0, 2**bits)`` integers.
    """
    key = 0
    for bit in range(bits):
        for j, c in enumerate(coords):
            key |= ((int(c) >> bit) & 1) << (bit * len(coords) + j)
    return key


def z_order(dataset: UncertainDataset, bits: int = 16) -> list[int]:
    """Object ids sorted by the Morton key of their region centers."""
    domain = dataset.domain
    span = np.maximum(domain.hi - domain.lo, 1e-12)
    scale = (1 << bits) - 1
    keyed = []
    for obj in dataset:
        normalized = (obj.region.center - domain.lo) / span
        quantized = np.clip(normalized * scale, 0, scale)
        keyed.append((_morton_key(quantized, bits), obj.oid))
    keyed.sort()
    return [oid for _key, oid in keyed]


def bulk_build(
    dataset: UncertainDataset,
    strategy: CSetStrategy | None = None,
    se_config: SEConfig | None = None,
    octree_config: OctreeConfig | None = None,
    pager: Pager | None = None,
) -> BulkBuildReport:
    """Build a PV-index with Z-order-sorted insertions.

    Same parameters as :meth:`PVIndex.build`; returns the index plus
    build-cost accounting so callers can compare against sequential
    construction.
    """
    t0 = time.perf_counter()
    pager = pager or Pager()
    writes_before = pager.stats.writes
    index = PVIndex._empty(
        dataset, strategy, se_config, octree_config, pager
    )
    index._insert_all([dataset[oid] for oid in z_order(dataset)])
    index.stats.build_seconds += time.perf_counter() - t0
    return BulkBuildReport(
        index=index,
        build_seconds=index.stats.build_seconds,
        write_pages=pager.stats.writes - writes_before,
    )


def compact(index: PVIndex) -> CompactionReport:
    """Rewrite every leaf's page chain to its minimal length.

    Uses the octree's leaf iterator; each non-empty leaf is rewritten
    once (charged as page writes), and pages freed by deletions or
    splits are returned to the pager.
    """
    t0 = time.perf_counter()
    pages_before = index.pager.n_pages
    for leaf in index.primary.iter_leaves():
        leaf.compact()
    report = CompactionReport(
        pages_before=pages_before,
        pages_after=index.pager.n_pages,
        rewrite_seconds=time.perf_counter() - t0,
    )
    return report
