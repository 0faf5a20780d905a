"""Tests for top-k probable NN queries (repro.core.topk)."""

import numpy as np
import pytest

from repro import PVIndex, synthetic_dataset
from repro.core import TopKEngine, qualification_probabilities
from repro.core.pvcell import possible_nn_ids


@pytest.fixture(scope="module")
def dense():
    """A dense 2D dataset where queries see several candidates."""
    dataset = synthetic_dataset(
        n=60, dims=2, u_max=2500.0, n_samples=60, seed=11
    )
    index = PVIndex.build(dataset)
    return dataset, index


def brute_force_ranking(dataset, query, k):
    ids = sorted(possible_nn_ids(dataset, query))
    probs = qualification_probabilities(dataset, ids, query)
    ranked = sorted(probs.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


class TestTopKCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_brute_force(self, dense, k):
        dataset, index = dense
        engine = TopKEngine(dataset, index)
        rng = np.random.default_rng(5)
        for query in rng.uniform(0, 10_000, size=(8, 2)):
            result = engine.query(query, k=k)
            expected = brute_force_ranking(dataset, query, k)
            assert list(result.ids) == [oid for oid, _ in expected]
            for (oid, p), (eoid, ep) in zip(result.ranking, expected):
                assert oid == eoid
                assert p == pytest.approx(ep, abs=1e-12)

    def test_k_larger_than_candidates(self, dense):
        dataset, index = dense
        engine = TopKEngine(dataset, index)
        query = np.array([5000.0, 5000.0])
        n_candidates = len(index.candidates(query))
        result = engine.query(query, k=n_candidates + 10)
        assert len(result.ranking) <= n_candidates

    def test_probabilities_descending(self, dense):
        dataset, index = dense
        engine = TopKEngine(dataset, index)
        result = engine.query(np.array([3000.0, 7000.0]), k=5)
        probs = [p for _oid, p in result.ranking]
        assert probs == sorted(probs, reverse=True)

    def test_top1_is_pnnq_best(self, dense):
        dataset, index = dense
        from repro.core import PNNQEngine

        topk = TopKEngine(dataset, index)
        pnnq = PNNQEngine(dataset, index)
        for query in np.random.default_rng(9).uniform(
            0, 10_000, size=(5, 2)
        ):
            top = topk.query(query, k=1)
            full = pnnq.query(query)
            if full.probabilities:
                best_prob = max(full.probabilities.values())
                assert top.ranking[0][1] == pytest.approx(
                    best_prob, abs=1e-12
                )


class TestTopKPruning:
    def test_pruned_candidates_cannot_reach_topk(self, dense):
        """Pruning must never change the returned ranking."""
        dataset, index = dense
        eager = TopKEngine(dataset, index, n_bins=16)
        rng = np.random.default_rng(13)
        for query in rng.uniform(0, 10_000, size=(10, 2)):
            result = eager.query(query, k=2)
            expected = brute_force_ranking(dataset, query, 2)
            assert list(result.ids) == [oid for oid, _ in expected]

    def test_pruned_counter_nonnegative(self, dense):
        dataset, index = dense
        engine = TopKEngine(dataset, index)
        result = engine.query(np.array([1234.0, 5678.0]), k=1)
        assert result.pruned >= 0


class TestTopKValidation:
    def test_k_zero_rejected(self, dense):
        dataset, index = dense
        engine = TopKEngine(dataset, index)
        with pytest.raises(ValueError, match="k must be >= 1"):
            engine.query(np.array([0.0, 0.0]), k=0)

    def test_times_accumulate(self, dense):
        dataset, index = dense
        engine = TopKEngine(dataset, index)
        engine.query(np.array([100.0, 100.0]), k=1)
        engine.query(np.array([200.0, 200.0]), k=1)
        assert engine.stats.queries == 2
        assert engine.stats.total > 0.0
