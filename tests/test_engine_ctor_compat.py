"""Constructor-signature and frozen-result regression tests.

All seven engines share the uniform
``Engine(dataset, retriever=None, *, secondary=None, ...)`` order and
reject a first argument that is not an ``UncertainDataset``; shared
result envelopes are read-only (mutating a cached result raises
instead of corrupting every other holder of the same object).
"""

import dataclasses

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
from repro.engine import FrozenDict


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(
        n=40, dims=2, u_max=400, n_samples=10, seed=17
    )


@pytest.fixture(scope="module")
def index(dataset):
    return PVIndex.build(dataset.copy())


@pytest.fixture(scope="module")
def query(dataset):
    return dataset.domain.center


# ----------------------------------------------------------------------
# Uniform constructor order
# ----------------------------------------------------------------------
class TestConstructorNormalization:
    def test_dataset_is_required_somewhere(self, index):
        with pytest.raises(TypeError, match="UncertainDataset"):
            PNNQEngine(index, index)
        with pytest.raises(TypeError, match="UncertainDataset"):
            KNNEngine(None)

    @pytest.mark.parametrize(
        "engine_cls",
        [
            PNNQEngine,
            KNNEngine,
            TopKEngine,
            VerifierEngine,
            GroupNNEngine,
            ReverseNNEngine,
            ExpectedNNEngine,
        ],
    )
    def test_uniform_signature(self, engine_cls):
        import inspect

        params = list(
            inspect.signature(engine_cls.__init__).parameters.values()
        )[1:]
        assert params[0].name == "dataset"
        assert params[1].name == "retriever"
        assert params[1].default is None
        keyword_only = {
            p.name
            for p in params
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        }
        assert {"secondary", "result_cache_size"} <= keyword_only


# ----------------------------------------------------------------------
# Frozen results: the shared-mutable footgun is closed
# ----------------------------------------------------------------------
class TestFrozenResults:
    def test_mutating_a_cached_result_raises(self, dataset, index, query):
        engine = PNNQEngine(dataset, index, result_cache_size=8)
        result = engine.query(query)
        assert engine.query(query) is result  # shared via the cache
        with pytest.raises(TypeError):
            result.probabilities[123] = 1.0
        with pytest.raises(TypeError):
            result.probabilities.clear()
        with pytest.raises(AttributeError):
            result.candidate_ids.append(123)  # tuples cannot append
        with pytest.raises(ValueError):
            result.query[0] = -1.0  # non-writeable array
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.probabilities = {}
        # The shared copy is intact for the next cache hit.
        assert engine.query(query) is result

    def test_verifier_decision_dicts_are_frozen(self, dataset, query):
        engine = VerifierEngine(dataset, result_cache_size=8)
        decisions = engine.query(query, tau=0.2)
        assert isinstance(decisions, FrozenDict)
        with pytest.raises(TypeError):
            decisions[999] = True
        with pytest.raises(TypeError):
            decisions.update({})
        # Equality with plain dicts (and the documented escape hatch).
        assert decisions == dict(decisions)
        mutable = decisions.copy()
        mutable[999] = True  # plain dict: fine

    def test_batch_shared_results_are_frozen(self, dataset, query):
        engine = PNNQEngine(dataset)
        a, b = engine.query_batch([query, query])
        assert a is b  # deduplicated: one shared object
        with pytest.raises(TypeError):
            a.probabilities[0] = 0.0

    def test_all_result_types_freeze_their_containers(self, dataset, query):
        knn = KNNEngine(dataset).query(query, k=2)
        with pytest.raises(TypeError):
            knn.probabilities[0] = 0.0
        assert isinstance(knn.candidate_ids, tuple)

        group = GroupNNEngine(dataset).query(
            np.stack([query, query + 5.0])
        )
        with pytest.raises(TypeError):
            group.probabilities[0] = 0.0
        with pytest.raises(ValueError):
            group.queries[0, 0] = 0.0

        reverse = ReverseNNEngine(dataset).query(dataset[dataset.ids[0]])
        with pytest.raises(TypeError):
            reverse.probabilities[0] = 0.0

        expected = ExpectedNNEngine(dataset).query(query)
        with pytest.raises(ValueError):
            expected.query[0] = 0.0

        topk = TopKEngine(dataset).query(query, k=2)
        with pytest.raises(ValueError):
            topk.query[0] = 0.0

    def test_results_copy_caller_arrays(self, dataset):
        # Freezing must not flip the writeable flag on the caller's
        # own query array, and later caller mutation must not reach
        # the stored result.
        engine = PNNQEngine(dataset)
        q = np.array(dataset.domain.center)
        result = engine.query(q)
        q[0] += 1.0  # caller's array stays writeable
        assert result.query[0] == pytest.approx(q[0] - 1.0)
