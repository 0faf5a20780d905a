"""Tests for probabilistic k-NN queries (repro.core.knn)."""

import numpy as np
import pytest

from repro import PVIndex, UncertainObject, synthetic_dataset
from repro.core import KNNEngine, qualification_probabilities
from repro.core.pvcell import possible_nn_ids
from repro.geometry import Rect
from repro.uncertain import UncertainDataset


@pytest.fixture(scope="module")
def dense():
    return synthetic_dataset(
        n=45, dims=2, u_max=2000.0, n_samples=50, seed=31
    )


def point_object(oid, coords):
    p = np.asarray(coords, dtype=np.float64)
    return UncertainObject(
        oid=oid,
        region=Rect.from_point(p),
        instances=p[None, :],
        weights=np.array([1.0]),
    )


class TestKNNStep1:
    def test_k1_equals_pnnq_candidates(self, dense):
        engine = KNNEngine(dense)
        rng = np.random.default_rng(1)
        for q in rng.uniform(0, 10_000, size=(6, 2)):
            assert set(engine.candidates(q, k=1)) == possible_nn_ids(
                dense, q
            )

    def test_k1_uses_retriever(self, dense):
        index = PVIndex.build(dense.copy())
        engine = KNNEngine(dense, retriever=index)
        q = np.array([5000.0, 5000.0])
        assert set(engine.candidates(q, k=1)) == set(
            index.candidates(q)
        )

    def test_candidates_grow_with_k(self, dense):
        engine = KNNEngine(dense)
        q = np.array([5000.0, 5000.0])
        sizes = [len(engine.candidates(q, k=k)) for k in (1, 2, 4, 8)]
        assert sizes == sorted(sizes)

    def test_k_geq_database_returns_everything(self, dense):
        engine = KNNEngine(dense)
        q = np.array([100.0, 100.0])
        ids = engine.candidates(q, k=len(dense) + 5)
        assert set(ids) == set(dense.ids)

    def test_filter_keeps_all_possible_members(self, dense):
        """Monte-Carlo: any sampled top-k member must be a candidate."""
        engine = KNNEngine(dense)
        q = np.array([4800.0, 5100.0])
        k = 3
        ids = set(engine.candidates(q, k=k))
        for trial in range(25):
            rng = np.random.default_rng(trial)
            dists = []
            for obj in dense:
                inst = obj.instances[rng.integers(len(obj.instances))]
                dists.append((np.linalg.norm(inst - q), obj.oid))
            dists.sort()
            for _, oid in dists[:k]:
                assert oid in ids

    def test_invalid_k(self, dense):
        engine = KNNEngine(dense)
        with pytest.raises(ValueError, match="k must be >= 1"):
            engine.candidates(np.array([0.0, 0.0]), k=0)


class TestKNNStep2:
    def test_k1_matches_pnnq_probabilities(self, dense):
        engine = KNNEngine(dense)
        rng = np.random.default_rng(2)
        for q in rng.uniform(2000, 8000, size=(4, 2)):
            result = engine.query(q, k=1)
            expected = qualification_probabilities(
                dense, result.candidate_ids, q
            )
            for oid, p in result.probabilities.items():
                assert p == pytest.approx(expected[oid], abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_probabilities_sum_to_k(self, dense, k):
        """Expected top-k membership count is exactly k."""
        engine = KNNEngine(dense)
        q = np.array([5000.0, 5000.0])
        result = engine.query(q, k=k)
        total = sum(result.probabilities.values())
        assert total == pytest.approx(
            min(k, len(result.candidate_ids)), abs=1e-6
        )

    def test_probabilities_monotone_in_k(self, dense):
        """Pr[in top-(k+1)] >= Pr[in top-k] for every object."""
        engine = KNNEngine(dense)
        q = np.array([4500.0, 5500.0])
        r2 = engine.query(q, k=2)
        r4 = engine.query(q, k=4)
        for oid, p2 in r2.probabilities.items():
            p4 = r4.probabilities.get(oid, 0.0)
            assert p4 >= p2 - 1e-9

    def test_certain_points_deterministic(self):
        """Point pdfs: top-k probabilities are exactly 0/1."""
        domain = Rect.cube(0.0, 100.0, 1)
        objects = [
            point_object(i, [10.0 * (i + 1)]) for i in range(5)
        ]
        dataset = UncertainDataset(objects, domain=domain)
        engine = KNNEngine(dataset)
        result = engine.query(np.array([12.0]), k=2)
        # Positions 10, 20, 30, 40, 50; query at 12 -> NNs are 0, 1.
        assert result.probabilities[0] == pytest.approx(1.0)
        assert result.probabilities[1] == pytest.approx(1.0)
        for oid in (2, 3, 4):
            assert result.probabilities.get(oid, 0.0) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_top_helper_orders_descending(self, dense):
        engine = KNNEngine(dense)
        result = engine.query(np.array([3000.0, 3000.0]), k=3)
        top = result.top()
        probs = [p for _o, p in top]
        assert probs == sorted(probs, reverse=True)
        assert result.top(1) == top[:1]

    def test_times_accumulate(self, dense):
        engine = KNNEngine(dense)
        engine.query(np.array([1.0, 1.0]), k=2)
        assert engine.stats.queries == 1
        assert engine.stats.total > 0
