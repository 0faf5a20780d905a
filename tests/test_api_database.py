"""Database session API tests.

Covers the tentpole contract: every query class answers through one
front door with answers identical to the direct engine API, batches
group by template and return in input order, envelopes are frozen,
and mutations route through maintained indexes.
"""

import numpy as np
import pytest

from repro import (
    PNNQEngine,
    ReverseNNEngine,
    UncertainObject,
    synthetic_dataset,
    uniform_pdf,
)
from repro.api import Database, Q, QueryResult, QuerySpec
from repro.core import (
    ExpectedNNEngine,
    GroupNNEngine,
    KNNEngine,
    TopKEngine,
    VerifierEngine,
)
from repro.engine import ExecutionStats
from repro.geometry import Rect


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(
        n=50, dims=2, u_max=400, n_samples=12, seed=21
    )


@pytest.fixture()
def db(dataset):
    return Database(dataset)


@pytest.fixture(scope="module")
def queries(dataset):
    rng = np.random.default_rng(5)
    return dataset.domain.sample_points(6, rng)


def assert_prob_maps_equal(a, b):
    assert set(a) == set(b)
    for oid in a:
        assert a[oid] == pytest.approx(b[oid], abs=1e-12)


# ----------------------------------------------------------------------
# Answers match the direct engine API for every query class
# ----------------------------------------------------------------------
class TestAnswersMatchEngines:
    def test_nn(self, db, dataset, queries):
        engine = PNNQEngine(dataset)
        for q in queries:
            got = db.nn(q, retriever="brute")
            want = engine.query(q)
            assert got.answer.candidate_ids == want.candidate_ids
            assert_prob_maps_equal(got.probabilities, want.probabilities)
            assert got.best == want.best

    def test_knn(self, db, dataset, queries):
        engine = KNNEngine(dataset)
        for q in queries[:3]:
            got = db.knn(q, k=3)
            want = engine.query(q, k=3)
            assert_prob_maps_equal(got.probabilities, want.probabilities)

    def test_topk(self, db, dataset, queries):
        engine = TopKEngine(dataset)
        for q in queries[:3]:
            got = db.topk(q, k=3, retriever="brute")
            assert got.answer.ranking == engine.query(q, k=3).ranking

    def test_threshold(self, db, dataset, queries):
        engine = VerifierEngine(dataset)
        for q in queries[:3]:
            got = db.threshold(q, p=0.2, retriever="brute")
            assert got.answer == engine.query(q, tau=0.2)

    def test_group_nn(self, db, dataset):
        engine = GroupNNEngine(dataset)
        rng = np.random.default_rng(9)
        qs = dataset.domain.sample_points(3, rng)
        for aggregate in ("sum", "max", "min"):
            got = db.group_nn(qs, aggregate, retriever="brute")
            want = engine.query(qs, aggregate=aggregate)
            assert_prob_maps_equal(got.probabilities, want.probabilities)

    def test_reverse_nn(self, db, dataset):
        engine = ReverseNNEngine(dataset)
        obj = dataset[dataset.ids[0]]
        got = db.reverse_nn(obj)
        want = engine.query(obj)
        assert_prob_maps_equal(got.probabilities, want.probabilities)

    def test_expected_nn(self, db, dataset, queries):
        engine = ExpectedNNEngine(dataset)
        for q in queries[:3]:
            got = db.expected_nn(q, retriever="brute")
            assert got.answer.ranking == engine.query(q).ranking
            assert got.best == engine.query(q).best

    def test_indexed_answers_match_brute(self, db, dataset, queries):
        for q in queries:
            via_pv = db.nn(q, retriever="pv")
            via_rt = db.nn(q, retriever="rtree")
            via_bf = db.nn(q, retriever="brute")
            assert set(via_pv.answer.candidate_ids) == set(
                via_bf.answer.candidate_ids
            )
            assert_prob_maps_equal(
                via_pv.probabilities, via_bf.probabilities
            )
            assert_prob_maps_equal(
                via_rt.probabilities, via_bf.probabilities
            )


# ----------------------------------------------------------------------
# Envelope semantics
# ----------------------------------------------------------------------
class TestEnvelopes:
    def test_envelope_fields(self, db, dataset):
        r = db.nn(dataset.domain.center)
        assert isinstance(r, QueryResult)
        assert r.kind == "nn"
        assert isinstance(r.stats, ExecutionStats)
        assert r.stats.queries == 1
        assert r.plan.retriever in r.plan.scores
        assert r.stats.object_retrieval >= 0.0

    def test_envelope_is_frozen(self, db, dataset):
        r = db.nn(dataset.domain.center)
        with pytest.raises(AttributeError):
            r.answer = None
        with pytest.raises(TypeError):
            r.probabilities[999] = 1.0
        with pytest.raises(ValueError):
            r.answer.query[0] = 0.0

    def test_stats_are_per_query_deltas(self, db, dataset, queries):
        first = db.nn(queries[0])
        second = db.nn(queries[1])
        assert first.stats.queries == 1
        assert second.stats.queries == 1  # not cumulative

    def test_topk_probabilities_view(self, db, dataset):
        r = db.topk(dataset.domain.center, k=2)
        assert r.probabilities == dict(r.answer.ranking)
        assert r.best == r.answer.ids[0]

    def test_threshold_has_no_probabilities(self, db, dataset):
        r = db.threshold(dataset.domain.center, p=0.5)
        assert r.probabilities is None
        assert all(isinstance(v, bool) for v in r.answer.values())


# ----------------------------------------------------------------------
# Batch execution
# ----------------------------------------------------------------------
class TestBatch:
    def test_mixed_batch_returns_in_input_order(self, db, dataset, queries):
        specs = [
            Q.nn(queries[0]),
            Q.topk(queries[1], k=2),
            Q.nn(queries[2]),
            Q.threshold(queries[0], p=0.3),
            Q.knn(queries[1], k=2),
        ]
        results = db.batch(specs)
        assert [r.kind for r in results] == [
            "nn", "topk", "nn", "threshold", "knn",
        ]
        # Each result matches its single-query counterpart.
        assert_prob_maps_equal(
            results[0].probabilities, db.nn(queries[0]).probabilities
        )
        assert results[1].answer.ranking == db.topk(
            queries[1], k=2
        ).answer.ranking

    def test_batch_groups_by_template(self, db, queries):
        specs = [Q.nn(q) for q in queries] + [Q.nn(queries[0])]
        results = db.batch(specs)
        # One group: every envelope shares the same plan and delta.
        assert len({id(r.plan) for r in results}) == 1
        assert results[0].stats.queries == len(specs)
        assert results[0].stats.batches == 1
        assert results[-1].stats.dedup_hits >= 1

    def test_batch_rejects_unknown_kind(self, db, queries):
        with pytest.raises(KeyError):
            db.batch([QuerySpec("nearest", queries[0])])

    def test_batch_with_forced_retriever(self, db, queries):
        results = db.batch([Q.nn(q) for q in queries], retriever="pv")
        assert all(r.plan.retriever == "pv" for r in results)
        assert all(r.plan.forced for r in results)


# ----------------------------------------------------------------------
# Mutations through the session
# ----------------------------------------------------------------------
def _object_at(dataset, point, oid):
    region = Rect.from_center(point, half_widths=[2.0, 2.0])
    instances, weights = uniform_pdf(
        region, n_samples=16, rng=np.random.default_rng(int(oid))
    )
    return UncertainObject(
        oid=oid, region=region, instances=instances, weights=weights
    )


class TestMutations:
    def test_insert_changes_answers(self):
        ds = synthetic_dataset(n=40, dims=2, u_max=400, n_samples=8, seed=31)
        db = Database(ds)
        q = ds.domain.center
        before = db.nn(q)
        obj = _object_at(ds, q, oid=7_001)
        db.insert(obj)
        after = db.nn(q)
        assert after.best == 7_001
        assert before.best != 7_001
        assert len(db) == 41

    def test_delete_roundtrip(self):
        ds = synthetic_dataset(n=40, dims=2, u_max=400, n_samples=8, seed=32)
        db = Database(ds)
        obj = _object_at(ds, ds.domain.center, oid=7_002)
        db.insert(obj)
        removed = db.delete(7_002)
        assert removed.oid == 7_002
        assert len(db) == 40
        assert db.nn(ds.domain.center).best != 7_002

    def test_mutation_routes_through_built_pv_index(self):
        ds = synthetic_dataset(n=40, dims=2, u_max=400, n_samples=8, seed=33)
        db = Database(ds)
        q = ds.domain.center
        db.nn(q, retriever="pv")
        pv = db.index("pv")
        obj = _object_at(ds, q, oid=7_003)
        db.insert(obj)
        # Incremental maintenance: the same PVIndex instance absorbed
        # the insert and still answers (correctly) for the new object.
        assert db.index("pv") is pv
        assert pv.dataset_epoch == db.epoch
        assert db.nn(q, retriever="pv").best == 7_003

    def test_results_stay_correct_across_epochs_via_cache(self):
        ds = synthetic_dataset(n=40, dims=2, u_max=400, n_samples=8, seed=34)
        db = Database(ds)  # result_cache_size defaults on
        q = ds.domain.center
        db.nn(q)
        db.nn(q)  # cache hit
        obj = _object_at(ds, q, oid=7_004)
        db.insert(obj)
        assert db.nn(q).best == 7_004  # no stale cached answer


# ----------------------------------------------------------------------
# Misc surface
# ----------------------------------------------------------------------
class TestSurface:
    def test_from_objects(self, dataset):
        db = Database.from_objects(list(dataset), domain=dataset.domain)
        assert len(db) == len(dataset)
        assert db.dims == dataset.dims

    def test_unknown_kind_and_index_raise(self, db):
        with pytest.raises(KeyError):
            db.explain("nearest")
        with pytest.raises(KeyError):
            db.index("btree")

    def test_explain_accepts_specs(self, db, queries):
        spec = Q.knn(queries[0], k=2)
        assert db.explain(spec).retriever == db.explain("knn", k=2).retriever

    @pytest.mark.parametrize(
        "kind",
        ["nn", "knn", "topk", "threshold", "group_nn", "reverse_nn",
         "expected_nn"],
    )
    def test_explain_plans_the_verbs_default_template(
        self, db, dataset, queries, kind
    ):
        query = {
            "group_nn": queries[:3],
            "reverse_nn": dataset[dataset.ids[0]],
        }.get(kind, queries[0])
        executed = getattr(db, kind)(query).plan
        assert db.explain(kind).params == executed.params

    def test_describe_names_the_kernel(self, db, monkeypatch):
        """describe() says whether the compiled loops (C-set selection,
        SE and the Step-2 walk) run: "c" when the library built in this
        process."""
        from repro.core import sekernel

        built = sekernel.load() is not None
        assert db.describe()["kernel"] == ("c" if built else "numpy")
        assert "se_kernel" not in db.describe()
        monkeypatch.setattr(sekernel, "load", lambda: None)
        assert db.describe()["kernel"] == "numpy"

    def test_repr(self, db):
        text = repr(db)
        assert "Database(" in text and "epoch=0" in text
