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
def test_layout_is_a_disjoint_cover():
    for name, ds in _datasets():
        layout = ShardLayout.build(ds, 8)
        positions = np.concatenate([s.positions for s in layout.shards])
        assert len(positions) == len(ds), name
        assert len(set(positions.tolist())) == len(ds), name
        ids, los, his = ds.packed_regions()
        for shard in layout.shards:
            assert np.array_equal(shard.ids, ids[shard.positions])
            assert np.array_equal(shard.los, los[shard.positions])
            # The member MBR bounds every member region.
            assert (shard.mbr_lo <= shard.los).all()
            assert (shard.mbr_hi >= shard.his).all()


def test_octree_method_used_on_separable_data():
    ds = synthetic_dataset(n=300, dims=2, seed=1, n_samples=5)
    layout = ShardLayout.build(ds, 8)
    assert layout.method == "octree"
    assert len(layout) > 1


def _coincident_dataset(n: int) -> UncertainDataset:
    """Objects sharing one region: every center coincides, so the
    octree cannot separate them."""
    rng = np.random.default_rng(15)
    region = Rect(np.array([400.0, 400.0]), np.array([600.0, 600.0]))
    objects = []
    for oid in range(n):
        instances, weights = uniform_pdf(region, 4, rng)
        objects.append(UncertainObject(oid, region, instances, weights))
    return UncertainDataset(
        objects, domain=Rect(np.zeros(2), np.full(2, 1000.0))
    )


def test_hash_fallback_on_tiny_dataset():
    # Fewer than two objects per target shard, or centers the octree
    # cannot separate: object ids are hashed instead.
    tiny = synthetic_dataset(n=6, dims=2, seed=4, n_samples=3)
    for ds, n_shards in ((tiny, 8), (_coincident_dataset(60), 4)):
        layout = ShardLayout.build(ds, n_shards)
        assert layout.method == "hash"
        assert len(layout) == min(n_shards, len(ds))
        positions = np.concatenate([s.positions for s in layout.shards])
        assert len(set(positions.tolist())) == len(ds)


def test_single_shard_layout_is_valid():
    ds = synthetic_dataset(n=50, dims=2, seed=9, n_samples=3)
    layout = ShardLayout.build(ds, 1)
    assert len(layout) == 1
    assert len(layout.shards[0]) == len(ds)


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


def test_bit_identical_under_hash_layout():
    # Fewer than two objects per target shard: the octree is skipped.
    ds = synthetic_dataset(n=40, dims=2, seed=5, n_samples=4)
    layout = ShardLayout.build(ds, 32)
    assert layout.method == "hash"
    rng = np.random.default_rng(12)
    queries = rng.uniform(ds.domain.lo, ds.domain.hi, size=(16, 2))
    brute = BruteForceRetriever(ds)
    sharded = ShardedRetriever(ds, layout=layout)
    assert sharded.candidates_batch(queries) == [
        brute.candidates(q) for q in queries
    ]
    coincident = _coincident_dataset(60)
    sharded = ShardedRetriever(
        coincident, layout=ShardLayout.build(coincident, 4)
    )
    brute = BruteForceRetriever(coincident)
    assert sharded.candidates_batch(queries) == [
        brute.candidates(q) for q in queries
    ]


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
