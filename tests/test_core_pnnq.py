"""Tests for PNNQ Step 2 (probability computation) and the engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    PNNQEngine,
    PVIndex,
    Rect,
    RTreePNNQ,
    UncertainDataset,
    UncertainObject,
    synthetic_dataset,
)
from repro.core import qualification_probabilities
from repro.uncertain import point_pdf, uniform_pdf


def make_obj(oid, center, half=5.0, n=30, seed=0):
    region = Rect.from_center(center, half)
    inst, w = uniform_pdf(region, n, np.random.default_rng(seed))
    return UncertainObject(oid, region, inst, w)


def brute_force_probability(dataset, ids, query, oid):
    """O(prod of instance counts is too big) -> pairwise Monte Carlo.

    Samples joint instance assignments and counts how often oid's
    instance is strictly nearest (ties broken half/half).
    """
    rng = np.random.default_rng(99)
    n_trials = 20_000
    dists = {}
    for i in ids:
        obj = dataset[i]
        idx = rng.choice(len(obj.instances), size=n_trials, p=obj.weights)
        dists[i] = obj.distance_samples(query)[idx]
    target = dists[oid]
    others = np.stack([dists[i] for i in ids if i != oid])
    strictly_less = (target[None, :] < others).all(axis=0)
    ties = (target[None, :] == others).any(axis=0) & (
        target[None, :] <= others
    ).all(axis=0)
    return strictly_less.mean() + 0.5 * ties.mean()


class TestProbabilities:
    def test_empty_candidates(self):
        ds = synthetic_dataset(n=5, dims=2, n_samples=3, seed=0)
        assert qualification_probabilities(ds, [], np.zeros(2)) == {}

    def test_single_candidate_certain(self):
        ds = synthetic_dataset(n=5, dims=2, n_samples=3, seed=1)
        out = qualification_probabilities(ds, [ds.ids[0]], np.zeros(2))
        assert out == {ds.ids[0]: 1.0}

    def test_probabilities_sum_to_one(self):
        ds = synthetic_dataset(n=30, dims=2, u_max=500, n_samples=40, seed=2)
        rng = np.random.default_rng(3)
        from repro.core import possible_nn_ids

        for _ in range(10):
            q = ds.domain.sample_points(1, rng)[0]
            ids = sorted(possible_nn_ids(ds, q))
            probs = qualification_probabilities(ds, ids, q)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0 for p in probs.values())

    def test_symmetric_candidates_equal_probability(self):
        a = make_obj(0, [40, 50], half=5, seed=1)
        b = make_obj(1, [60, 50], half=5, seed=1)  # same pdf shape
        ds = UncertainDataset([a, b], domain=Rect.cube(0, 100, 2))
        q = np.array([50.0, 50.0])
        probs = qualification_probabilities(ds, [0, 1], q)
        assert probs[0] == pytest.approx(probs[1], abs=0.15)

    def test_certain_points_winner_takes_all(self):
        inst_a, w_a = point_pdf(np.array([40.0, 50.0]))
        inst_b, w_b = point_pdf(np.array([70.0, 50.0]))
        a = UncertainObject(0, Rect([40, 50], [40, 50]), inst_a, w_a)
        b = UncertainObject(1, Rect([70, 50], [70, 50]), inst_b, w_b)
        ds = UncertainDataset([a, b], domain=Rect.cube(0, 100, 2))
        q = np.array([45.0, 50.0])
        probs = qualification_probabilities(ds, [0, 1], q)
        assert probs[0] == pytest.approx(1.0)
        assert probs[1] == pytest.approx(0.0)

    def test_tie_convention_half_half(self):
        inst_a, w_a = point_pdf(np.array([40.0, 50.0]))
        inst_b, w_b = point_pdf(np.array([60.0, 50.0]))
        a = UncertainObject(0, Rect([40, 50], [40, 50]), inst_a, w_a)
        b = UncertainObject(1, Rect([60, 50], [60, 50]), inst_b, w_b)
        ds = UncertainDataset([a, b], domain=Rect.cube(0, 100, 2))
        q = np.array([50.0, 50.0])  # exactly equidistant
        probs = qualification_probabilities(ds, [0, 1], q)
        assert probs[0] == pytest.approx(0.5)
        assert probs[1] == pytest.approx(0.5)

    def test_matches_monte_carlo(self):
        objs = [
            make_obj(0, [45, 50], half=8, n=25, seed=10),
            make_obj(1, [55, 50], half=8, n=25, seed=11),
            make_obj(2, [50, 58], half=8, n=25, seed=12),
        ]
        ds = UncertainDataset(objs, domain=Rect.cube(0, 100, 2))
        q = np.array([50.0, 50.0])
        probs = qualification_probabilities(ds, [0, 1, 2], q)
        for oid in (0, 1, 2):
            mc = brute_force_probability(ds, [0, 1, 2], q, oid)
            assert probs[oid] == pytest.approx(mc, abs=0.02)

    @given(st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_sum_to_one_property(self, seed):
        ds = synthetic_dataset(
            n=15, dims=2, u_max=800, n_samples=15, seed=seed
        )
        from repro.core import possible_nn_ids

        rng = np.random.default_rng(seed)
        q = ds.domain.sample_points(1, rng)[0]
        ids = sorted(possible_nn_ids(ds, q))
        probs = qualification_probabilities(ds, ids, q)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


class TestEngine:
    def test_engine_with_pv_index(self):
        ds = synthetic_dataset(n=60, dims=2, u_max=300, n_samples=20, seed=4)
        index = PVIndex.build(ds)
        engine = PNNQEngine(ds, index, secondary=index.secondary)
        result = engine.query(ds.domain.center)
        assert result.candidate_ids
        assert sum(result.probabilities.values()) == pytest.approx(1.0)
        assert engine.stats.queries == 1
        assert engine.stats.object_retrieval > 0
        assert engine.stats.probability_computation > 0

    def test_engine_with_rtree(self):
        ds = synthetic_dataset(n=60, dims=2, u_max=300, n_samples=20, seed=5)
        baseline = RTreePNNQ.build(ds)
        engine = PNNQEngine(ds, baseline)
        result = engine.query(ds.domain.center)
        assert sum(result.probabilities.values()) == pytest.approx(1.0)

    def test_engines_agree(self):
        ds = synthetic_dataset(n=80, dims=2, u_max=300, n_samples=15, seed=6)
        pv = PNNQEngine(ds, PVIndex.build(ds))
        rt = PNNQEngine(ds, RTreePNNQ.build(ds))
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = ds.domain.sample_points(1, rng)[0]
            a = pv.query(q)
            b = rt.query(q)
            assert set(a.candidate_ids) == set(b.candidate_ids)
            for oid in a.candidate_ids:
                assert a.probabilities[oid] == pytest.approx(
                    b.probabilities[oid]
                )

    def test_result_best(self):
        ds = synthetic_dataset(n=40, dims=2, n_samples=10, seed=8)
        engine = PNNQEngine(ds, RTreePNNQ.build(ds))
        result = engine.query(ds.domain.center)
        best = result.best
        assert result.probabilities[best] == max(
            result.probabilities.values()
        )

    def test_times_reset(self):
        ds = synthetic_dataset(n=20, dims=2, n_samples=5, seed=9)
        engine = PNNQEngine(ds, RTreePNNQ.build(ds))
        engine.query(ds.domain.center)
        engine.stats.reset()
        assert engine.stats.total == 0.0
