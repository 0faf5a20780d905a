"""Tests for the unified query-execution layer (repro.engine).

Covers the satellite contract of the execution-layer PR: batch-vs-loop
result equivalence for all seven engines, ``ExecutionStats``
reset/snapshot/delta semantics, and LRU result-cache hit behavior —
plus the brute-force retriever fallback.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro import PVIndex, synthetic_dataset
from repro.core import (
    ExpectedNNEngine,
    GroupNNEngine,
    KNNEngine,
    PNNQEngine,
    ReverseNNEngine,
    TopKEngine,
    VerifierEngine,
)
from repro.core.pvcell import possible_nn_ids
from repro.engine import (
    BruteForceRetriever,
    ExecutionStats,
    LRUCache,
    batched_qualification_probabilities,
)
from repro.storage.pager import IOStats


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(
        n=50, dims=2, u_max=400, n_samples=12, seed=21
    )


@pytest.fixture(scope="module")
def index(dataset):
    return PVIndex.build(dataset.copy())


@pytest.fixture(scope="module")
def queries(dataset):
    rng = np.random.default_rng(5)
    distinct = dataset.domain.sample_points(8, rng)
    # Include exact repeats so the dedup path is exercised.
    return distinct[rng.integers(0, len(distinct), size=14)]


def assert_prob_maps_equal(a, b):
    assert set(a) == set(b)
    for oid in a:
        assert a[oid] == pytest.approx(b[oid], abs=1e-12)


# ----------------------------------------------------------------------
# Batch-vs-loop equivalence for all six engines
# ----------------------------------------------------------------------
class TestBatchLoopEquivalence:
    def test_pnnq(self, dataset, index, queries):
        engine = PNNQEngine(dataset, index)
        singles = [engine.query(q) for q in queries]
        batched = engine.query_batch(queries)
        for s, b in zip(singles, batched):
            assert s.candidate_ids == b.candidate_ids
            assert_prob_maps_equal(s.probabilities, b.probabilities)

    def test_pnnq_brute_force_fallback(self, dataset, queries):
        engine = PNNQEngine(dataset)
        singles = [engine.query(q) for q in queries]
        batched = engine.query_batch(queries)
        for s, b in zip(singles, batched):
            assert s.candidate_ids == b.candidate_ids
            assert_prob_maps_equal(s.probabilities, b.probabilities)

    @pytest.mark.parametrize("k", [1, 3])
    def test_knn(self, dataset, index, queries, k):
        engine = KNNEngine(dataset, retriever=index)
        singles = [engine.query(q, k=k) for q in queries]
        batched = engine.query_batch(queries, k=k)
        for s, b in zip(singles, batched):
            assert s.candidate_ids == b.candidate_ids
            assert_prob_maps_equal(s.probabilities, b.probabilities)

    def test_topk(self, dataset, index, queries):
        engine = TopKEngine(dataset, index)
        singles = [engine.query(q, k=3) for q in queries]
        batched = engine.query_batch(queries, k=3)
        for s, b in zip(singles, batched):
            assert s.ranking == b.ranking
            assert s.pruned == b.pruned

    @pytest.mark.parametrize("aggregate", ["sum", "max", "min"])
    def test_groupnn(self, dataset, index, aggregate):
        engine = GroupNNEngine(dataset, retriever=index)
        rng = np.random.default_rng(9)
        query_sets = [
            dataset.domain.sample_points(3, rng) for _ in range(4)
        ]
        query_sets.append(query_sets[0])  # exact repeat
        singles = [
            engine.query(qs, aggregate=aggregate) for qs in query_sets
        ]
        batched = engine.query_batch(query_sets, aggregate=aggregate)
        for s, b in zip(singles, batched):
            assert s.candidate_ids == b.candidate_ids
            assert_prob_maps_equal(s.probabilities, b.probabilities)

    def test_reversenn(self, dataset):
        engine = ReverseNNEngine(dataset)
        query_objects = [dataset[oid] for oid in dataset.ids[:3]]
        query_objects.append(query_objects[0])  # exact repeat
        singles = [engine.query(q) for q in query_objects]
        batched = engine.query_batch(query_objects)
        for s, b in zip(singles, batched):
            assert s.candidate_ids == b.candidate_ids
            assert_prob_maps_equal(s.probabilities, b.probabilities)

    def test_verifier(self, dataset, index, queries):
        engine = VerifierEngine(dataset, index)
        singles = [engine.query(q, tau=0.2) for q in queries]
        batched = engine.query_batch(queries, tau=0.2)
        assert singles == batched

    def test_expectednn(self, dataset, queries):
        engine = ExpectedNNEngine(dataset)
        singles = [engine.query(q) for q in queries]
        batched = engine.query_batch(queries)
        for s, b in zip(singles, batched):
            assert s.ranking == b.ranking

    def test_batch_counts_dedup(self, dataset, index, queries):
        engine = PNNQEngine(dataset, index)
        engine.query_batch(queries)
        assert engine.stats.batches == 1
        assert engine.stats.queries == len(queries)
        n_distinct = len({q.tobytes() for q in queries})
        assert engine.stats.dedup_hits == len(queries) - n_distinct


# ----------------------------------------------------------------------
# ExecutionStats semantics
# ----------------------------------------------------------------------
class TestExecutionStats:
    def test_reset_zeroes_everything(self):
        stats = ExecutionStats(
            object_retrieval=1.0,
            probability_computation=2.0,
            queries=3,
            batches=1,
            cache_hits=2,
            dedup_hits=1,
            memo_hits=4,
            or_io=IOStats(reads=5, writes=6),
            pc_io=IOStats(reads=7, writes=8),
        )
        stats.reset()
        assert stats == ExecutionStats()
        assert stats.total == 0.0
        assert stats.page_reads == 0

    def test_snapshot_is_independent(self):
        stats = ExecutionStats(queries=2, or_io=IOStats(reads=3))
        snap = stats.snapshot()
        stats.queries += 1
        stats.or_io.reads += 10
        assert snap.queries == 2
        assert snap.or_io.reads == 3

    def test_delta_fieldwise(self):
        stats = ExecutionStats(
            object_retrieval=1.0, queries=2, or_io=IOStats(reads=4)
        )
        earlier = stats.snapshot()
        stats.object_retrieval += 0.5
        stats.queries += 3
        stats.or_io.reads += 6
        stats.pc_io.writes += 2
        delta = stats.delta(earlier)
        assert delta.object_retrieval == pytest.approx(0.5)
        assert delta.queries == 3
        assert delta.or_io.reads == 6
        assert delta.pc_io.writes == 2
        assert delta.probability_computation == 0.0

    def test_capture_delta_since_matches_snapshot_delta(self):
        # capture()/delta_since() are the hot-path twins of
        # snapshot()/delta().  Every field, taken from the dataclass
        # itself so a new counter is covered without editing this
        # test, starts at a distinct value and moves by a distinct
        # amount: any mix-up between two counters shows up.
        fields = dataclasses.fields(ExecutionStats)
        distinct = itertools.count(1)

        def fill(f):
            if f.default_factory is IOStats:
                return IOStats(reads=next(distinct), writes=next(distinct))
            return type(f.default)(next(distinct))

        stats = ExecutionStats(**{f.name: fill(f) for f in fields})
        step = ExecutionStats(**{f.name: fill(f) for f in fields})
        captured = stats.capture()
        snap = stats.snapshot()
        assert snap == stats
        for f in fields:
            now, inc = getattr(stats, f.name), getattr(step, f.name)
            if isinstance(now, IOStats):
                now.reads += inc.reads
                now.writes += inc.writes
            else:
                setattr(stats, f.name, now + inc)
        assert snap != stats  # the snapshot is independent
        delta = stats.delta_since(captured)
        assert delta == stats.delta(snap) == step

    def test_io_properties_combine_phases(self):
        stats = ExecutionStats(
            or_io=IOStats(reads=2, writes=1),
            pc_io=IOStats(reads=3, writes=4),
        )
        assert stats.page_reads == 5
        assert stats.io.reads == 5
        assert stats.io.writes == 5

    def test_engine_reports_phase_io(self, dataset, index):
        engine = PNNQEngine(dataset, index, secondary=index.secondary)
        engine.query(dataset.domain.center)
        assert engine.stats.queries == 1
        assert engine.stats.or_io.reads > 0  # octree leaf read
        assert engine.stats.pc_io.reads > 0  # secondary pdf fetches
        assert engine.stats.object_retrieval > 0
        assert engine.stats.probability_computation > 0

    def test_stats_shared_across_query_and_batch(
        self, dataset, index, queries
    ):
        engine = PNNQEngine(dataset, index)
        engine.query(queries[0])
        engine.query_batch(queries)
        assert engine.stats.queries == 1 + len(queries)
        assert engine.stats.batches == 1


# ----------------------------------------------------------------------
# LRU result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_lru_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("b", LRUCache.MISS) is LRUCache.MISS
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_engine_cache_hits(self, dataset, index):
        engine = PNNQEngine(dataset, index, result_cache_size=8)
        q = dataset.domain.center
        first = engine.query(q)
        again = engine.query(q)
        assert again is first  # served from cache, not recomputed
        assert engine.stats.cache_hits == 1
        assert engine.stats.queries == 2

    def test_cache_respects_params(self, dataset, index):
        engine = TopKEngine(dataset, index, result_cache_size=8)
        q = dataset.domain.center
        r1 = engine.query(q, k=1)
        r3 = engine.query(q, k=3)
        assert engine.stats.cache_hits == 0
        assert r1.k == 1 and r3.k == 3

    def test_cache_spans_batches(self, dataset, index, queries):
        engine = PNNQEngine(dataset, index, result_cache_size=32)
        warm = engine.query_batch(queries)
        engine.stats.reset()
        cached = engine.query_batch(queries)
        assert engine.stats.cache_hits == len(queries)
        for w, c in zip(warm, cached):
            assert w is c

    def test_cached_results_equal_fresh(self, dataset, index, queries):
        cached_engine = PNNQEngine(dataset, index, result_cache_size=4)
        plain_engine = PNNQEngine(dataset, index)
        for q in list(queries) + list(queries):
            a = cached_engine.query(q)
            b = plain_engine.query(q)
            assert a.candidate_ids == b.candidate_ids
            assert_prob_maps_equal(a.probabilities, b.probabilities)
        assert cached_engine.stats.cache_hits > 0


# ----------------------------------------------------------------------
# Retriever fallback
# ----------------------------------------------------------------------
class TestRetrievers:
    def test_brute_force_matches_ground_truth(self, dataset):
        retriever = BruteForceRetriever(dataset)
        rng = np.random.default_rng(3)
        for q in dataset.domain.sample_points(5, rng):
            assert set(retriever.candidates(q)) == possible_nn_ids(
                dataset, q
            )

    def test_batch_chunking_preserves_results(
        self, dataset, monkeypatch
    ):
        from repro.engine import retrievers as retrievers_mod

        from repro.service.shards import ShardedRetriever

        block = dataset.domain.sample_points(
            7, np.random.default_rng(11)
        )
        retriever = ShardedRetriever(dataset)
        whole = retriever.candidates_batch(block)
        assert whole == [retriever.candidates(q) for q in block]
        monkeypatch.setattr(retrievers_mod, "BATCH_CHUNK", 2)
        assert retriever.candidates_batch(block) == whole


# ----------------------------------------------------------------------
# Batched Step-2 kernel
# ----------------------------------------------------------------------
class TestBatchedKernel:
    def test_matches_single_query_step2(self, dataset):
        from repro.core.pnnq import qualification_probabilities

        rng = np.random.default_rng(8)
        block = dataset.domain.sample_points(4, rng)
        ids = sorted(dataset.ids)[:6]
        batched = batched_qualification_probabilities(
            dataset, ids, block
        )
        for q, probs in zip(block, batched):
            assert_prob_maps_equal(
                probs, qualification_probabilities(dataset, ids, q)
            )

    def test_degenerate_candidate_sets(self, dataset):
        block = np.zeros((3, 2))
        assert batched_qualification_probabilities(
            dataset, [], block
        ) == [{}, {}, {}]
        only = dataset.ids[0]
        assert batched_qualification_probabilities(
            dataset, [only], block
        ) == [{only: 1.0}] * 3


# ----------------------------------------------------------------------
# Storage satellite: pager exports match the package re-exports
# ----------------------------------------------------------------------
def test_pager_all_exports_complete():
    from repro.storage import pager

    assert "PageChain" in pager.__all__
    assert "DEFAULT_PAGE_SIZE" in pager.__all__
    for name in pager.__all__:
        assert hasattr(pager, name)


# ----------------------------------------------------------------------
# Epoch-aware invalidation: no engine may serve pre-mutation answers
# ----------------------------------------------------------------------
def _mutable_dataset(n=30, seed=77):
    return synthetic_dataset(n=n, dims=2, u_max=400, n_samples=8, seed=seed)


def _dominating_object(dataset, q, oid=9_999):
    """An object glued to ``q``: certainly the post-insert NN there."""
    from repro.geometry import Rect
    from repro.uncertain import UncertainObject

    lo = np.maximum(q - 1.0, dataset.domain.lo)
    hi = np.minimum(q + 1.0, dataset.domain.hi)
    region = Rect(lo, hi)
    instances = np.stack([region.center, region.center + 0.1])
    return UncertainObject(oid, region, instances, None)


class TestEpochInvalidation:
    def test_result_cache_flushed_on_insert(self):
        dataset = _mutable_dataset()
        engine = PNNQEngine(dataset, result_cache_size=8)
        q = dataset.domain.center
        stale = engine.query(q)
        dataset.insert(_dominating_object(dataset, q))
        fresh = engine.query(q)
        assert engine.stats.invalidations == 1
        assert engine.stats.cache_hits == 0
        assert fresh.best == 9_999
        assert stale.best != 9_999
        # Post-mutation answers re-enter the (flushed) cache normally.
        again = engine.query(q)
        assert engine.stats.cache_hits == 1
        assert again is fresh

    def test_query_batch_cache_and_memo_cannot_serve_stale(self):
        # A batch served through the LRU result cache must reflect a
        # direct ``dataset.insert`` issued between batches.
        dataset = _mutable_dataset(seed=78)
        engine = PNNQEngine(dataset, result_cache_size=16)
        rng = np.random.default_rng(1)
        block = dataset.domain.sample_points(5, rng)
        before = engine.query_batch(block)
        again = engine.query_batch(block)
        assert all(a is b for a, b in zip(again, before))
        assert engine.stats.cache_hits == len(block)

        dataset.insert(_dominating_object(dataset, block[0]))
        after = engine.query_batch(block)
        assert engine.stats.invalidations == 1
        assert engine.stats.cache_hits == len(block)
        # The object glued to block[0] dominates there: a stale cached
        # result would miss it.
        assert after[0].best == 9_999

        reference = PNNQEngine(dataset)
        for got, want, old in zip(
            after, reference.query_batch(block), before
        ):
            assert_prob_maps_equal(got.probabilities, want.probabilities)
            assert got is not old

    def test_unmaintained_index_falls_back_to_brute_force(self):
        from repro.rtree import RTreePNNQ

        dataset = _mutable_dataset(seed=80)
        index = RTreePNNQ.build(dataset)
        engine = PNNQEngine(dataset, index)
        q = dataset.domain.center
        engine.query(q)
        assert engine.has_index

        # Mutating the dataset directly bypasses the R-tree (it has no
        # incremental maintenance): the engine must stop trusting it.
        dataset.insert(_dominating_object(dataset, q))
        result = engine.query(q)
        assert not engine.has_index
        assert isinstance(engine.retriever, BruteForceRetriever)
        assert engine.stats.retriever_fallbacks == 1
        assert result.best == 9_999

    def test_maintained_pv_index_is_kept(self):
        dataset = _mutable_dataset(seed=81)
        index = PVIndex.build(dataset)
        engine = PNNQEngine(dataset, index, result_cache_size=4)
        q = dataset.domain.center
        engine.query(q)
        index.insert(_dominating_object(dataset, q))
        result = engine.query(q)
        assert engine.has_index
        assert engine.retriever is index
        assert engine.stats.invalidations == 1
        assert engine.stats.retriever_fallbacks == 0
        assert result.best == 9_999

    def test_epoch_counters_reported_in_stats(self):
        stats = ExecutionStats()
        stats.invalidations = 3
        stats.retriever_fallbacks = 1
        snap = stats.snapshot()
        assert snap.invalidations == 3
        stats.invalidations = 5
        assert stats.delta(snap).invalidations == 2
        assert stats.delta(snap).retriever_fallbacks == 0
        stats.reset()
        assert stats.invalidations == 0
        assert stats.retriever_fallbacks == 0

    def test_fallback_drops_stale_secondary(self):
        # Code-review regression: an engine wired with an index's
        # secondary (pdf-fetch charging) must drop it together with
        # the stale retriever — otherwise Step 2 KeyErrors on objects
        # inserted after the index was built.
        dataset = _mutable_dataset(seed=82)
        index = PVIndex.build(dataset)
        engine = PNNQEngine(dataset, index, secondary=index.secondary)
        q = dataset.domain.center
        engine.query(q)
        dataset.insert(_dominating_object(dataset, q))
        result = engine.query(q)  # must not raise
        assert result.best == 9_999
        assert engine.secondary is None
        assert engine.stats.retriever_fallbacks == 1

    def test_engine_built_after_bypassing_mutation_distrusts_index(self):
        # Code-review regression: constructing the engine *after* a
        # mutation that bypassed the index must not trust the stale
        # retriever either.
        from repro.rtree import RTreePNNQ

        dataset = _mutable_dataset(seed=83)
        index = RTreePNNQ.build(dataset)
        q = dataset.domain.center
        dataset.insert(_dominating_object(dataset, q))
        engine = PNNQEngine(dataset, index)
        assert not engine.has_index
        assert engine.stats.retriever_fallbacks == 1
        assert engine.query(q).best == 9_999
