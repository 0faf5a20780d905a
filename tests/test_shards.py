"""Sharded scatter-gather Step 1: layout invariants and bit-identity.

The contract under test: :class:`~repro.service.shards.ShardedRetriever`
answers exactly like :class:`~repro.engine.BruteForceRetriever` —
same candidate sets, same packed-insertion ordering, same floats —
while pruning MBR-dominated shards entirely (the counters prove work
was actually skipped, not just matched).
"""

from __future__ import annotations

import numpy as np

from repro.engine.retrievers import BruteForceRetriever
from repro.engine.stats import ExecutionStats
from repro.geometry import Rect
from repro.service.shards import ShardLayout, ShardedRetriever
from repro.uncertain import (
    UncertainDataset,
    UncertainObject,
    clustered_dataset,
    synthetic_dataset,
    uniform_pdf,
)


def _datasets():
    return [
        ("uniform-2d", synthetic_dataset(n=300, dims=2, seed=1, n_samples=5)),
        ("uniform-3d", synthetic_dataset(n=257, dims=3, seed=2, n_samples=4)),
        ("clustered-2d", clustered_dataset(n=400, dims=2, seed=3, n_samples=5)),
    ]


# ----------------------------------------------------------------------
# Layout invariants
# ----------------------------------------------------------------------
def _coincident_dataset(n: int) -> UncertainDataset:
    """Objects sharing one region: every centre coincides."""
    rng = np.random.default_rng(15)
    region = Rect(np.array([400.0, 400.0]), np.array([600.0, 600.0]))
    objects = []
    for oid in range(n):
        instances, weights = uniform_pdf(region, 4, rng)
        objects.append(UncertainObject(oid, region, instances, weights))
    return UncertainDataset(
        objects, domain=Rect(np.zeros(2), np.full(2, 1000.0))
    )


def _degenerate_datasets():
    """Inputs with nothing to split spatially: all centres coincident,
    fewer objects than tiles, and a single object."""
    return [
        ("coincident", _coincident_dataset(60)),
        ("below-tile-count", synthetic_dataset(n=6, dims=2, seed=4,
                                               n_samples=3)),
        ("below-tile-count-3d", synthetic_dataset(n=40, dims=3, seed=5,
                                                  n_samples=3)),
        ("one-object", synthetic_dataset(n=1, dims=2, seed=8,
                                         n_samples=3)),
    ]


def test_layout_is_a_disjoint_cover():
    for name, ds in _datasets() + _degenerate_datasets():
        layout = ShardLayout.build(ds)
        ids, los, his = ds.packed_regions()
        slices = [layout.shard(s) for s in range(len(layout))]
        # Every packed row sits in exactly one (non-empty) shard slice.
        assert all(sl.stop > sl.start for sl in slices), name
        positions = np.concatenate([layout.positions[sl] for sl in slices])
        assert sorted(positions.tolist()) == list(range(len(ds))), name
        assert np.array_equal(layout.ids, ids[layout.positions]), name
        assert np.array_equal(layout.los, los[layout.positions]), name
        assert np.array_equal(layout.his, his[layout.positions]), name
        for s, sl in enumerate(slices):
            # The shard MBR bounds every member region.
            assert (layout.mbr_los[s] <= layout.los[sl]).all(), name
            assert (layout.mbr_his[s] >= layout.his[sl]).all(), name


def test_tile_count_follows_dimension():
    # ceil(32 ** (1 / d)) slabs per dimension: 36 tiles at d=2 and 64
    # at d=3 once there are enough objects to fill them.
    for name, ds in _datasets():
        want = 36 if ds.dims == 2 else 64
        assert len(ShardLayout.build(ds)) == want, name


def test_single_shard_layout_is_valid():
    ds = synthetic_dataset(n=1, dims=2, seed=9, n_samples=3)
    layout = ShardLayout.build(ds)
    assert len(layout) == 1
    assert layout.shard(0) == slice(0, 1)
    assert layout.ids.tolist() == ds.ids


# ----------------------------------------------------------------------
# Bit-identity against brute force
# ----------------------------------------------------------------------
def test_candidates_bit_identical_to_brute_force():
    rng = np.random.default_rng(11)
    for name, ds in _datasets():
        brute = BruteForceRetriever(ds)
        sharded = ShardedRetriever(ds)
        queries = rng.uniform(
            ds.domain.lo, ds.domain.hi, size=(64, ds.dims)
        )
        want = [brute.candidates(q) for q in queries]
        got = sharded.candidates_batch(queries)
        # Same ids, same order, every query — not set-equality.
        assert got == want, name
        assert sharded.candidates(queries[0]) == brute.candidates(
            queries[0]
        )


def test_bit_identical_on_degenerate_datasets():
    rng = np.random.default_rng(12)
    for name, ds in _degenerate_datasets():
        queries = rng.uniform(
            ds.domain.lo, ds.domain.hi, size=(16, ds.dims)
        )
        brute = BruteForceRetriever(ds)
        sharded = ShardedRetriever(ds)
        assert sharded.candidates_batch(queries) == [
            brute.candidates(q) for q in queries
        ], name


def test_queries_at_domain_corners_and_centers():
    ds = clustered_dataset(n=200, dims=2, seed=6, n_samples=4)
    brute = BruteForceRetriever(ds)
    sharded = ShardedRetriever(ds)
    lo, hi = ds.domain.lo, ds.domain.hi
    queries = np.stack(
        [lo, hi, (lo + hi) / 2.0, np.array([lo[0], hi[1]])]
    )
    assert sharded.candidates_batch(queries) == [
        brute.candidates(q) for q in queries
    ]


# ----------------------------------------------------------------------
# Pruning actually happens, and is observable
# ----------------------------------------------------------------------
def test_prune_counters_accumulate_on_attached_stats():
    ds = clustered_dataset(n=400, dims=2, seed=3, n_samples=5)
    stats = ExecutionStats()
    sharded = ShardedRetriever(ds, stats=stats)
    rng = np.random.default_rng(13)
    queries = rng.uniform(ds.domain.lo, ds.domain.hi, size=(32, 2))
    sharded.candidates_batch(queries)
    n_shards = len(sharded.layout)
    assert stats.shards_dispatched + stats.shards_pruned == 32 * n_shards
    assert stats.shards_pruned > 0, "no shard was ever dominated"
    assert stats.shards_dispatched >= 32, (
        "each query must dispatch at least one shard"
    )


def test_layout_rebuilds_on_epoch_drift():
    ds = synthetic_dataset(n=100, dims=2, seed=7, n_samples=4)
    sharded = ShardedRetriever(ds)
    first = sharded.layout
    assert first.epoch == ds.epoch
    ds.delete(ds.ids[-1])
    second = sharded.layout
    assert second.epoch == ds.epoch
    assert second is not first
    rng = np.random.default_rng(14)
    queries = rng.uniform(ds.domain.lo, ds.domain.hi, size=(8, 2))
    brute = BruteForceRetriever(ds)
    assert sharded.candidates_batch(queries) == [
        brute.candidates(q) for q in queries
    ]
