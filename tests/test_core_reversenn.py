"""Tests for probabilistic reverse NN queries (repro.core.reversenn)."""

import numpy as np
import pytest

from repro import UncertainObject, synthetic_dataset, uniform_pdf
from repro.core import ReverseNNEngine
from repro.geometry import Rect
from repro.uncertain import UncertainDataset


def point_object(oid, coords):
    p = np.asarray(coords, dtype=np.float64)
    return UncertainObject(
        oid=oid,
        region=Rect.from_point(p),
        instances=p[None, :],
        weights=np.array([1.0]),
    )


def box_object(oid, center, half, n_samples=40, seed=0):
    region = Rect.from_center(center, [half] * len(center))
    instances, weights = uniform_pdf(
        region, n_samples, np.random.default_rng(seed)
    )
    return UncertainObject(
        oid=oid, region=region, instances=instances, weights=weights
    )


class TestReverseNNCertainPoints:
    """With point pdfs, PRNN reduces to classic reverse NN."""

    @pytest.fixture()
    def line_dataset(self):
        # Points on a line at 0, 10, 25, 45: classic RNN structure.
        domain = Rect.cube(-10.0, 100.0, 1)
        objects = [
            point_object(0, [0.0]),
            point_object(1, [10.0]),
            point_object(2, [25.0]),
            point_object(3, [45.0]),
        ]
        return UncertainDataset(objects, domain=domain)

    def test_classic_rnn_semantics(self, line_dataset):
        engine = ReverseNNEngine(line_dataset)
        # Query object at position 11: NN of 1 (dist 1) certainly, NN of
        # 2 (dist 14 vs 2's NN which is 3 at dist 20, and 1 at dist 15).
        query = point_object(99, [11.0])
        result = engine.query(query)
        assert result.probabilities.get(1, 0.0) == pytest.approx(1.0)
        # Object 0's NN is 1 (dist 10) not the query (dist 11).
        assert result.probabilities.get(0, 0.0) == 0.0
        # Object 2's NN: 1 at dist 15 vs query at dist 14 -> query wins.
        assert result.probabilities.get(2, 0.0) == pytest.approx(1.0)
        # Object 3's NN: 2 at dist 20 vs query at dist 34 -> not query.
        assert result.probabilities.get(3, 0.0) == 0.0

    def test_query_in_dataset_excluded_from_answers(self, line_dataset):
        engine = ReverseNNEngine(line_dataset)
        member = line_dataset[1]
        result = engine.query(member)
        assert 1 not in result.probabilities
        assert 1 not in result.candidate_ids

    def test_two_object_database_always_answers(self):
        domain = Rect.cube(0.0, 100.0, 2)
        dataset = UncertainDataset(
            [point_object(0, [20.0, 20.0])], domain=domain
        )
        engine = ReverseNNEngine(dataset)
        query = point_object(1, [80.0, 80.0])
        result = engine.query(query)
        # With no competitors, the query is certainly object 0's NN.
        assert result.probabilities[0] == pytest.approx(1.0)


class TestReverseNNFilter:
    def test_filter_is_conservative(self):
        """Step-1 never drops an object with non-zero probability."""
        dataset = synthetic_dataset(
            n=40, dims=2, u_max=1500.0, n_samples=40, seed=8
        )
        engine = ReverseNNEngine(dataset)
        query = box_object(999, [5000.0, 5000.0], 400.0, seed=5)
        candidates = set(engine.candidates(query))
        result = engine.query(query)
        positive = {
            oid for oid, p in result.probabilities.items() if p > 0
        }
        assert positive <= candidates

    def test_filter_prunes_far_objects(self):
        """An object wedged behind a closer one must be pruned."""
        domain = Rect.cube(0.0, 1000.0, 2)
        objects = [
            point_object(0, [500.0, 500.0]),  # near the query
            point_object(1, [504.0, 500.0]),  # o0's certain NN shield
            point_object(2, [900.0, 900.0]),  # far away
        ]
        dataset = UncertainDataset(objects, domain=domain)
        engine = ReverseNNEngine(dataset)
        query = point_object(99, [100.0, 100.0])
        candidates = engine.candidates(query)
        # Object 0's distance to 1 is 4; to the query ~565: never RNN.
        assert 0 not in candidates
        result = engine.query(query)
        assert result.probabilities.get(0, 0.0) == 0.0

    def test_probabilities_in_unit_interval(self):
        dataset = synthetic_dataset(
            n=25, dims=2, u_max=2000.0, n_samples=30, seed=14
        )
        engine = ReverseNNEngine(dataset)
        query = box_object(999, [5000.0, 5000.0], 800.0, seed=6)
        result = engine.query(query)
        for oid, p in result.probabilities.items():
            assert 0.0 <= p <= 1.0, (oid, p)


class TestReverseNNUncertain:
    def test_partial_probability_with_overlap(self):
        """A contested object yields a probability strictly in (0, 1)."""
        domain = Rect.cube(0.0, 100.0, 1)
        # Object 0 uniform on [40, 60]; query at 35; competitor at 65.
        # Positions of 0 below 50 are closer to the query, above 50
        # closer to the competitor -> probability ~0.5.
        objects = [
            box_object(0, [50.0], 10.0, n_samples=400, seed=1),
            point_object(1, [65.0]),
        ]
        dataset = UncertainDataset(objects, domain=domain)
        engine = ReverseNNEngine(dataset)
        query = point_object(99, [35.0])
        result = engine.query(query)
        assert 0.3 < result.probabilities[0] < 0.7

    def test_times_accumulate(self):
        dataset = synthetic_dataset(
            n=15, dims=2, u_max=500.0, n_samples=20, seed=2
        )
        engine = ReverseNNEngine(dataset)
        query = box_object(999, [5000.0, 5000.0], 100.0)
        engine.query(query)
        assert engine.stats.queries == 1
        assert engine.stats.total > 0.0
