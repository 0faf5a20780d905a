"""Tests for expected-distance NN semantics (repro.core.expected)."""

import numpy as np
import pytest

from repro import PNNQEngine, PVIndex, UncertainObject, synthetic_dataset
from repro.core.expected import (
    ExpectedNNEngine,
    expected_distance,
)
from repro.core.pvcell import possible_nn_ids
from repro.geometry import Rect
from repro.uncertain import UncertainDataset


@pytest.fixture(scope="module")
def dense():
    return synthetic_dataset(
        n=40, dims=2, u_max=1800.0, n_samples=50, seed=41
    )


def point_object(oid, coords):
    p = np.asarray(coords, dtype=np.float64)
    return UncertainObject(
        oid=oid,
        region=Rect.from_point(p),
        instances=p[None, :],
        weights=np.array([1.0]),
    )


class TestExpectedDistance:
    def test_point_pdf_is_plain_distance(self):
        domain = Rect.cube(0.0, 100.0, 2)
        dataset = UncertainDataset(
            [point_object(0, [30.0, 40.0])], domain=domain
        )
        assert expected_distance(
            dataset, 0, np.array([0.0, 0.0])
        ) == pytest.approx(50.0)

    def test_bracketed_by_min_max_distance(self, dense):
        from repro.geometry import (
            maxdist_sq_point_rect,
            mindist_sq_point_rect,
        )

        q = np.array([5000.0, 5000.0])
        for oid in dense.ids[:15]:
            e = expected_distance(dense, oid, q)
            region = dense[oid].region
            lo = np.sqrt(mindist_sq_point_rect(q, region))
            hi = np.sqrt(maxdist_sq_point_rect(q, region))
            assert lo - 1e-9 <= e <= hi + 1e-9

    def test_translation_monotone(self, dense):
        """Moving the query toward an object's region shrinks E[dist]."""
        oid = dense.ids[0]
        center = dense[oid].region.center
        far = center + 4000.0
        near = center + 100.0
        assert expected_distance(dense, oid, near) < expected_distance(
            dense, oid, far
        )


class TestExpectedNNEngine:
    def test_candidates_subset_of_pnnq(self, dense):
        engine = ExpectedNNEngine(dense)
        rng = np.random.default_rng(3)
        for q in rng.uniform(0, 10_000, size=(8, 2)):
            assert set(engine.candidates(q)) <= possible_nn_ids(
                dense, q
            ) | set(engine.candidates(q))
            # The filter itself equals the PNNQ Step-1 ground truth.
            assert set(engine.candidates(q)) == possible_nn_ids(
                dense, q
            )

    def test_best_minimizes_expected_distance_globally(self, dense):
        engine = ExpectedNNEngine(dense)
        rng = np.random.default_rng(5)
        for q in rng.uniform(0, 10_000, size=(6, 2)):
            result = engine.query(q)
            brute = min(
                dense.ids,
                key=lambda oid, q=q: expected_distance(dense, oid, q),
            )
            assert result.best == brute

    def test_ranking_ascending(self, dense):
        engine = ExpectedNNEngine(dense)
        result = engine.query(np.array([4000.0, 6000.0]))
        values = [v for _oid, v in result.ranking]
        assert values == sorted(values)

    def test_top_parameter(self, dense):
        engine = ExpectedNNEngine(dense)
        q = np.array([5000.0, 5000.0])
        full = engine.query(q)
        top2 = engine.query(q, top=2)
        assert top2.ranking == full.ranking[:2]

    def test_certain_points_match_plain_nn(self):
        domain = Rect.cube(0.0, 100.0, 2)
        objects = [
            point_object(0, [10.0, 10.0]),
            point_object(1, [60.0, 60.0]),
            point_object(2, [90.0, 10.0]),
        ]
        dataset = UncertainDataset(objects, domain=domain)
        engine = ExpectedNNEngine(dataset)
        assert engine.query(np.array([55.0, 55.0])).best == 1
        assert engine.query(np.array([85.0, 15.0])).best == 2

    def test_expected_nn_can_differ_from_most_probable_nn(self):
        """The divergence motivating probabilistic semantics.

        A tight object at moderate distance beats a spread object on
        expected distance, while the spread object (often closer) wins
        on probability.
        """
        domain = Rect.cube(0.0, 1000.0, 1)
        # Bimodal object: 70% of its mass 50 away from the query, 30%
        # in a far tail 500 away -> E[dist] = 185, yet it is closer
        # than the tight object (distance 120) with probability 0.7.
        spread = UncertainObject(
            oid=0,
            region=Rect([450.0], [1000.0]),
            instances=np.array([[450.0], [1000.0]]),
            weights=np.array([0.7, 0.3]),
        )
        tight = point_object(1, [620.0])
        dataset = UncertainDataset([spread, tight], domain=domain)
        q = np.array([500.0])

        expected = ExpectedNNEngine(dataset).query(q).best
        pnnq = PNNQEngine(dataset, PVIndex.build(dataset.copy()))
        probs = pnnq.query(q).probabilities
        most_probable = max(probs, key=probs.get)

        assert expected == 1, "tight object wins on expected distance"
        assert most_probable == 0, "spread object wins on probability"

    def test_times_accumulate(self, dense):
        engine = ExpectedNNEngine(dense)
        engine.query(np.array([1.0, 1.0]))
        assert engine.stats.queries == 1
