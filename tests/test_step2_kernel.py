"""Differential tests: the Step-2 kernels vs the retained reference.

The packed-store kernel in :mod:`repro.engine.batch` must agree with
the pre-tensorization implementations (``tests/reference_step2.py``)
to 1e-9 across the whole parameter space the engines exercise: 1–50
candidates, batched query blocks, duplicated/tied distances, objects
with differing instance counts (exercising the store's zero-weight
padding), ``evaluate_ids`` subsets, and the degenerate empty/single
candidate cases — and through all seven engines.

The compiled log walk (``engine/step2_kernel.c``) must also agree with
the numpy kernel to 1e-12, and on both paths a row's answer must be
bit-identical whatever other rows share its call (only tied rows take
the tie-aware path).  Without a C compiler (e.g. ``CC=false``) only
the numpy kernel runs and the C-only asserts skip.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_step2 import (
    reference_groupnn_probabilities,
    reference_knn_probabilities,
    reference_probability_bounds,
    reference_qualification_probabilities,
    reference_reverse_instance_probability,
)
from repro import synthetic_dataset
from repro.core import (
    ExpectedNNEngine,
    GroupNNEngine,
    KNNEngine,
    PNNQEngine,
    ReverseNNEngine,
    TopKEngine,
    VerifierEngine,
    probability_bounds,
    qualification_probabilities,
)
from repro.core import sekernel
from repro.engine import (
    batched_qualification_probabilities,
    element_survival_probabilities,
    survival_products,
)
from repro.geometry import Rect
from repro.uncertain import UncertainDataset, UncertainObject

TOL = 1e-9
#: Compiled walk against the numpy kernel: libm and numpy round some
#: ``log``/``exp`` results one ulp apart.
C_TOL = 1e-12

#: The compiled walk builds wherever a C compiler is installed.
HAVE_C = sekernel.load() is not None


def _assert_close(new: dict, ref: dict) -> None:
    assert new.keys() == ref.keys()
    for oid in ref:
        assert new[oid] == pytest.approx(ref[oid], abs=TOL), oid


def variable_m_dataset(seed: int, n: int = 12) -> UncertainDataset:
    """Objects with differing instance counts (forces store padding)."""
    rng = np.random.default_rng(seed)
    objs = []
    for oid in range(n):
        m = int(rng.integers(1, 12))
        center = rng.uniform(0.0, 100.0, 2)
        inst = center + rng.uniform(-4.0, 4.0, (m, 2))
        w = rng.uniform(0.1, 1.0, m)
        w /= w.sum()
        objs.append(
            UncertainObject(
                oid,
                Rect(inst.min(axis=0), inst.max(axis=0)),
                inst,
                w,
            )
        )
    return UncertainDataset(objs, domain=Rect([-20, -20], [120, 120]))


def tied_dataset(seed: int) -> UncertainDataset:
    """Duplicated instances within and across objects (tie paths)."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 10.0, (6, 2))
    base[3] = base[1]  # internal duplicate
    objs = []
    for oid in range(6):
        inst = base if oid < 2 else base + float(oid)
        objs.append(
            UncertainObject(
                oid,
                Rect(inst.min(axis=0), inst.max(axis=0)),
                inst.copy(),
            )
        )
    return UncertainDataset(objs, domain=Rect([-5, -5], [25, 25]))


class TestKernelDifferential:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("b", [1, 3, 8])
    def test_matches_reference(self, seed, b):
        ds = synthetic_dataset(
            n=40, dims=2, u_max=700, n_samples=23, seed=seed
        )
        q = ds.domain.sample_points(b, np.random.default_rng(seed))
        ids = ds.ids[: 10 + 5 * seed]
        new = batched_qualification_probabilities(ds, ids, q)
        ref = reference_qualification_probabilities(ds, ids, q)
        for row_new, row_ref in zip(new, ref):
            _assert_close(row_new, row_ref)

    @pytest.mark.parametrize("n_cand", [1, 2, 3, 50])
    def test_candidate_count_extremes(self, n_cand):
        ds = synthetic_dataset(
            n=60, dims=2, u_max=600, n_samples=15, seed=9
        )
        q = ds.domain.sample_points(2, np.random.default_rng(9))
        ids = ds.ids[:n_cand]
        new = batched_qualification_probabilities(ds, ids, q)
        ref = reference_qualification_probabilities(ds, ids, q)
        for row_new, row_ref in zip(new, ref):
            _assert_close(row_new, row_ref)

    def test_empty_candidates(self):
        ds = synthetic_dataset(n=5, dims=2, n_samples=5, seed=0)
        q = np.zeros((3, 2))
        assert batched_qualification_probabilities(ds, [], q) == [
            {},
            {},
            {},
        ]

    def test_evaluate_subset(self):
        ds = synthetic_dataset(
            n=30, dims=2, u_max=600, n_samples=20, seed=3
        )
        q = ds.domain.sample_points(4, np.random.default_rng(3))
        ids = ds.ids[:14]
        for ev in (ids[2:7], [ids[0]], [ids[9], ids[0]], ids):
            new = batched_qualification_probabilities(
                ds, ids, q, evaluate_ids=ev
            )
            ref = reference_qualification_probabilities(
                ds, ids, q, evaluate_ids=ev
            )
            for row_new, row_ref in zip(new, ref):
                _assert_close(row_new, row_ref)

    def test_evaluate_subset_validation(self):
        ds = synthetic_dataset(n=10, dims=2, n_samples=5, seed=1)
        with pytest.raises(ValueError):
            batched_qualification_probabilities(
                ds, ds.ids[:3], np.zeros((1, 2)), evaluate_ids=[999]
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_tied_distances(self, seed):
        ds = tied_dataset(seed)
        q = np.array([[1.0, 2.0], [5.0, 5.0], [0.0, 0.0]])
        new = batched_qualification_probabilities(ds, ds.ids, q)
        ref = reference_qualification_probabilities(ds, ds.ids, q)
        for row_new, row_ref in zip(new, ref):
            _assert_close(row_new, row_ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_variable_instance_counts(self, seed):
        ds = variable_m_dataset(seed)
        q = ds.domain.sample_points(5, np.random.default_rng(seed))
        new = batched_qualification_probabilities(ds, ds.ids, q)
        ref = reference_qualification_probabilities(ds, ds.ids, q)
        for row_new, row_ref in zip(new, ref):
            _assert_close(row_new, row_ref)

    def test_single_query_view(self):
        ds = synthetic_dataset(
            n=25, dims=3, u_max=500, n_samples=12, seed=5
        )
        q = ds.domain.center
        ids = ds.ids[:8]
        _assert_close(
            qualification_probabilities(ds, ids, q),
            reference_qualification_probabilities(ds, ids, q[None, :])[0],
        )

    def test_coordinates_far_from_the_origin(self):
        """Every coordinate offset by 1e12: squared distances lose the
        low bits of the offset, identically in kernel and reference."""
        ds = synthetic_dataset(n=20, dims=2, u_max=600, n_samples=15, seed=4)
        shift = 1e12
        objs = [
            UncertainObject(
                o.oid,
                Rect(o.region.lo + shift, o.region.hi + shift),
                o.instances + shift,
                o.weights,
            )
            for o in ds
        ]
        far = UncertainDataset(
            objs,
            domain=Rect(ds.domain.lo + shift, ds.domain.hi + shift),
        )
        q = far.domain.sample_points(4, np.random.default_rng(4))
        new = batched_qualification_probabilities(far, far.ids, q)
        ref = reference_qualification_probabilities(far, far.ids, q)
        for row_new, row_ref in zip(new, ref):
            _assert_close(row_new, row_ref)

    def test_many_overlapping_candidates_with_large_m(self):
        """30 candidates over one region with m=3000 each: the survival
        products of the far instances fall far below 1."""
        rng = np.random.default_rng(30)
        region = Rect([40.0, 40.0], [60.0, 60.0])
        objs = []
        for oid in range(30):
            inst = rng.uniform(region.lo, region.hi, (3000, 2))
            w = rng.uniform(0.1, 1.0, 3000)
            w /= w.sum()
            objs.append(UncertainObject(oid, region, inst, w))
        ds = UncertainDataset(objs, domain=Rect([0.0, 0.0], [100.0, 100.0]))
        q = np.array([[50.0, 50.0], [41.0, 58.0], [10.0, 90.0]])
        new = batched_qualification_probabilities(ds, ds.ids, q)
        ref = reference_qualification_probabilities(ds, ds.ids, q)
        for row_new, row_ref in zip(new, ref):
            _assert_close(row_new, row_ref)

    def test_every_object_a_single_instance(self):
        ds = synthetic_dataset(n=25, dims=2, u_max=600, n_samples=1, seed=6)
        q = ds.domain.sample_points(5, np.random.default_rng(6))
        new = batched_qualification_probabilities(ds, ds.ids, q)
        ref = reference_qualification_probabilities(ds, ds.ids, q)
        for row_new, row_ref in zip(new, ref):
            _assert_close(row_new, row_ref)

    @given(st.integers(0, 200))
    @settings(max_examples=12, deadline=None)
    def test_differential_property(self, seed):
        rng = np.random.default_rng(seed)
        ds = variable_m_dataset(seed, n=int(rng.integers(2, 20)))
        b = int(rng.integers(1, 5))
        q = ds.domain.sample_points(b, rng)
        n_cand = int(rng.integers(1, len(ds.ids) + 1))
        ids = list(rng.choice(ds.ids, size=n_cand, replace=False))
        ids = [int(i) for i in ids]
        new = batched_qualification_probabilities(ds, ids, q)
        ref = reference_qualification_probabilities(ds, ids, q)
        for row_new, row_ref in zip(new, ref):
            _assert_close(row_new, row_ref)


class TestEnginesDifferential:
    """All seven engines against the retained reference math."""

    def _queries(self, ds, k=6, seed=11):
        return ds.domain.sample_points(k, np.random.default_rng(seed))

    def test_pnnq_engine(self):
        ds = synthetic_dataset(
            n=50, dims=2, u_max=600, n_samples=25, seed=21
        )
        engine = PNNQEngine(ds)
        for q in self._queries(ds):
            result = engine.query(q)
            ref = reference_qualification_probabilities(
                ds, list(result.candidate_ids), q[None, :]
            )[0]
            _assert_close(dict(result.probabilities), ref)

    def test_knn_engine(self):
        ds = synthetic_dataset(
            n=40, dims=2, u_max=600, n_samples=20, seed=22
        )
        engine = KNNEngine(ds)
        for k in (1, 2, 4):
            for q in self._queries(ds, 3):
                result = engine.query(q, k=k)
                ref = reference_knn_probabilities(
                    ds, list(result.candidate_ids), q, k
                )
                _assert_close(dict(result.probabilities), ref)

    def test_topk_engine(self):
        ds = synthetic_dataset(
            n=60, dims=2, u_max=500, n_samples=20, seed=23
        )
        engine = TopKEngine(ds)
        for q in self._queries(ds):
            result = engine.query(q, k=3)
            ids = engine.retriever.candidates(q)
            ref = reference_qualification_probabilities(
                ds, ids, q[None, :]
            )[0]
            for oid, prob in result.ranking:
                assert prob == pytest.approx(ref[oid], abs=TOL)

    def test_verifier_engine(self):
        ds = synthetic_dataset(
            n=60, dims=2, u_max=500, n_samples=20, seed=24
        )
        engine = VerifierEngine(ds)
        tau = 0.15
        for q in self._queries(ds):
            decisions = engine.query(q, tau=tau)
            ref = reference_qualification_probabilities(
                ds, sorted(decisions), q[None, :]
            )[0]
            for oid, verdict in decisions.items():
                assert verdict == (ref[oid] >= tau)

    def test_verifier_bounds_bracket_and_match(self):
        ds = synthetic_dataset(
            n=40, dims=2, u_max=500, n_samples=30, seed=25
        )
        q = ds.domain.center
        ids = ds.ids[:15]
        new = probability_bounds(ds, ids, q, n_bins=6)
        ref = reference_probability_bounds(ds, ids, q, n_bins=6)
        exact = reference_qualification_probabilities(
            ds, ids, q[None, :]
        )[0]
        for oid in ids:
            lo, hi = ref[oid]
            assert new[oid].lower == pytest.approx(lo, abs=TOL)
            assert new[oid].upper == pytest.approx(hi, abs=TOL)
            assert new[oid].contains(exact[oid])

    def test_groupnn_engine(self):
        ds = synthetic_dataset(
            n=40, dims=2, u_max=600, n_samples=15, seed=26
        )
        Q = ds.domain.sample_points(3, np.random.default_rng(26))
        engine = GroupNNEngine(ds)
        for aggregate in ("sum", "max", "min"):
            result = engine.query(Q, aggregate=aggregate)
            ref = reference_groupnn_probabilities(
                ds, list(result.candidate_ids), Q, aggregate
            )
            _assert_close(dict(result.probabilities), ref)

    def test_reversenn_engine(self):
        ds = synthetic_dataset(
            n=15, dims=2, u_max=800, n_samples=8, seed=27
        )
        engine = ReverseNNEngine(ds)
        query = ds[ds.ids[0]]
        result = engine.query(query)
        for oid in result.candidate_ids:
            ref = reference_reverse_instance_probability(ds, oid, query)
            got = dict(result.probabilities).get(oid, 0.0)
            assert got == pytest.approx(ref, abs=TOL)

    def test_expected_engine(self):
        ds = synthetic_dataset(
            n=40, dims=2, u_max=500, n_samples=20, seed=28
        )
        engine = ExpectedNNEngine(ds)
        for q in self._queries(ds):
            result = engine.query(q)
            for oid, dist in result.ranking:
                obj = ds[oid]
                ref = float(
                    np.dot(obj.weights, obj.distance_samples(q))
                )
                assert dist == pytest.approx(ref, abs=TOL)

    def test_kernel_stats_counters_accumulate(self):
        ds = synthetic_dataset(
            n=60, dims=2, u_max=600, n_samples=30, seed=29
        )
        engine = PNNQEngine(ds)
        for q in self._queries(ds, 4):
            engine.query(q)
        assert engine.stats.kernel_gather_seconds > 0.0
        assert engine.stats.kernel_eval_seconds > 0.0
        # The kernel split is a subset of the Step-2 wall-clock.
        assert (
            engine.stats.kernel_gather_seconds
            + engine.stats.kernel_eval_seconds
            <= engine.stats.probability_computation + 1e-6
        )


# ----------------------------------------------------------------------
# Tied rows take the tie path alone, on both paths
# ----------------------------------------------------------------------
def _two_row_tensor(seed: int = 0):
    """A 2-row distance tensor (n=4, m=50) whose row 1 has one
    cross-candidate tie; row 0 has none."""
    rng = np.random.default_rng(seed)
    D = rng.uniform(0.0, 10.0, (2, 4, 50))
    D[1, 2, 5] = D[1, 0, 7]
    W = rng.uniform(0.1, 1.0, (4, 50))
    W /= W.sum(axis=1, keepdims=True)
    return D, W


@pytest.mark.parametrize("seed", range(4))
def test_element_mode_routes_only_tied_rows(seed):
    D, W = _two_row_tensor(seed)
    both = element_survival_probabilities(D, W)
    assert np.array_equal(both[0], element_survival_probabilities(D[:1], W)[0])
    assert np.array_equal(both[1], element_survival_probabilities(D[1:], W)[0])


@pytest.mark.parametrize("seed", range(4))
def test_radii_mode_routes_only_tied_rows(seed):
    D, W = _two_row_tensor(seed)
    radii = np.random.default_rng(seed + 10).uniform(0.0, 10.0, (2, 30))
    both = survival_products(D, W, radii)
    assert np.array_equal(both[0], survival_products(D[:1], W, radii[:1])[0])
    assert np.array_equal(both[1], survival_products(D[1:], W, radii[1:])[0])


# ----------------------------------------------------------------------
# The compiled walk against the numpy kernel and the reference
# ----------------------------------------------------------------------
def _numpy_path(*args, **kwargs):
    """``batched_qualification_probabilities`` without the library."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sekernel, "load", lambda: None)
        return batched_qualification_probabilities(*args, **kwargs)


@st.composite
def step2_cases(draw):
    """A dataset, candidate ids and a query block covering the walk's
    edge cases: unequal instance counts (store padding), d in 1..3,
    duplicate instances within a candidate, cross-candidate ties (on
    an integer grid every row can tie, or copied instances tie every
    row), single-instance pdfs and coordinates offset by 1e12."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 40))
    d = draw(st.sampled_from([1, 2, 3]))
    single = draw(st.booleans())
    grid = draw(st.booleans())
    dup = draw(st.booleans())
    copy_tie = draw(st.booleans())
    offset = draw(st.sampled_from([0.0, 1e12]))
    b = draw(st.integers(1, 5))
    rng = np.random.default_rng(seed)
    objs = []
    for oid in range(n):
        m = 1 if single else int(rng.integers(1, 10))
        center = rng.uniform(0.0, 20.0, d)
        inst = center + rng.uniform(-3.0, 3.0, (m, d))
        if grid:
            inst = np.round(inst)
        if dup and m > 1:
            inst[-1] = inst[0]
        if copy_tie and oid == 1:
            inst[0] = objs[0].instances[0] - offset
        w = rng.uniform(0.1, 1.0, m)
        w /= w.sum()
        inst = inst + offset
        objs.append(
            UncertainObject(oid, Rect(inst.min(axis=0), inst.max(axis=0)),
                            inst, w)
        )
    domain = Rect(np.full(d, offset - 10.0), np.full(d, offset + 30.0))
    ds = UncertainDataset(objs, domain=domain)
    q = rng.uniform(-5.0, 25.0, (b, d))
    if grid:
        q = np.round(q)
    return ds, q + offset


@pytest.mark.skipif(not HAVE_C, reason="the compiled Step-2 walk did not build")
@given(step2_cases())
@settings(max_examples=60, deadline=None)
def test_compiled_walk_differential(case):
    ds, q = case
    ids = ds.ids
    numpy_rows = _numpy_path(ds, ids, q)
    numpy_alone = [_numpy_path(ds, ids, q[i : i + 1])[0] for i in range(len(q))]
    c_rows = batched_qualification_probabilities(ds, ids, q)
    c_alone = [
        batched_qualification_probabilities(ds, ids, q[i : i + 1])[0]
        for i in range(len(q))
    ]
    ref = reference_qualification_probabilities(ds, ids, q)
    for c, c1, nr, nr1, r in zip(c_rows, c_alone, numpy_rows, numpy_alone,
                                 ref):
        assert c == c1 and nr == nr1  # bit-identical alone and in a batch
        for oid in r:
            assert c[oid] == pytest.approx(nr[oid], abs=C_TOL), oid
            assert c[oid] == pytest.approx(r[oid], abs=TOL), oid


@pytest.mark.skipif(not HAVE_C, reason="the compiled Step-2 walk did not build")
def test_tied_rows_match_the_numpy_path_exactly():
    """Rows the walk flags as tied go through the numpy tie path, so
    they are the numpy kernel's answers bit for bit."""
    ds = tied_dataset(1)
    q = np.array([[1.0, 2.0], [5.0, 5.0], [40.0, -3.0]])
    inst, w, starts, lengths = ds.instance_store().rows(ds.ids)
    _P, tied = sekernel.step2_walk(
        inst, w, starts, lengths, q, np.arange(len(ds.ids)), len(ds.ids)
    )
    assert tied.all()  # objects 0 and 1 share every instance
    assert batched_qualification_probabilities(ds, ds.ids, q) == _numpy_path(
        ds, ds.ids, q
    )


@pytest.mark.skipif(not HAVE_C, reason="the compiled Step-2 walk did not build")
def test_concurrent_calls_match_serial_calls():
    """ctypes drops the GIL during the walk: two threads running it at
    once must get exactly the serial answers (no shared scratch)."""
    ds = synthetic_dataset(n=60, dims=2, u_max=900, n_samples=300, seed=8)
    rng = np.random.default_rng(8)
    blocks = [ds.domain.sample_points(16, rng) for _ in range(2)]
    ids = ds.ids[:30]
    serial = [batched_qualification_probabilities(ds, ids, q) for q in blocks]
    results: list = [None, None]
    errors: list = []
    start = threading.Barrier(2)

    def worker(i: int) -> None:
        try:
            start.wait()
            results[i] = [
                batched_qualification_probabilities(ds, ids, blocks[i])
                for _ in range(4)
            ]
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for i in range(2):
        assert all(run == serial[i] for run in results[i])
