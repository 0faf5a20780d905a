"""Step 1 on arrays: packed regions, the min/max kernel, the PV filter.

* ``UncertainDataset.packed_regions()`` is maintained row by row by
  ``insert`` / ``delete``: after any interleaving it equals a fresh
  pack in ``ids`` order, and no tuple it handed out ever changes.
* ``minmax_sq_chunks`` loops over dimensions and sums left to right;
  at ``d <= 2`` that is bit-identical to the broadcast ``einsum``
  kernel kept in ``tests/reference_step1.py``.
* The PV-index leaf filter runs through the same kernel, so after
  maintenance it returns exactly the brute-force candidates.
* So does the R-tree's: it returns the candidates of the per-entry
  scalar loop and reads the same leaves.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.retrievers as retrievers_module
from reference_step1 import (
    reference_minmax_sq,
    reference_pv_candidates,
    reference_rtree_candidates,
)
from repro import (
    PVIndex,
    Rect,
    RTreePNNQ,
    UncertainDataset,
    UncertainObject,
    synthetic_dataset,
)
from repro.engine.retrievers import BruteForceRetriever, minmax_sq_chunks


def make_obj(oid, rng, dims):
    centre = rng.uniform(10.0, 90.0, dims)
    half = rng.uniform(0.0, 8.0, dims)
    region = Rect(centre - half, centre + half)
    inst = region.sample_points(2, rng)
    return UncertainObject(oid, region, inst, np.full(2, 0.5))


def fresh_pack(ds):
    objs = list(ds)
    return (
        np.array([o.oid for o in objs], dtype=np.int64),
        np.array([o.region.lo for o in objs], dtype=np.float64),
        np.array([o.region.hi for o in objs], dtype=np.float64),
    )


def assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


# ----------------------------------------------------------------------
# Packed regions under mutation
# ----------------------------------------------------------------------
@given(
    seed=st.integers(0, 10_000),
    dims=st.sampled_from([2, 3]),
    n0=st.integers(1, 70),
    steps=st.lists(
        st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=80
    ),
)
@settings(max_examples=40, deadline=None)
def test_packed_regions_follow_interleaved_mutations(seed, dims, n0, steps):
    """After every insert/delete the packed arrays equal a fresh pack,
    and every tuple returned earlier still equals its saved copy."""
    rng = np.random.default_rng(seed)
    ds = UncertainDataset(
        [make_obj(i, rng, dims) for i in range(n0)],
        domain=Rect.cube(0.0, 100.0, dims),
    )
    next_oid = n0
    handed_out = [(ds.packed_regions(), fresh_pack(ds))]
    for insert, look in steps:
        if insert or len(ds) == 1:
            ds.insert(make_obj(next_oid, rng, dims))
            next_oid += 1
        else:
            ds.delete(ds.ids[int(rng.integers(len(ds)))])
        if look:  # mutations may also pile up between two reads
            got = ds.packed_regions()
            assert_same_arrays(got, fresh_pack(ds))
            assert got[0].tolist() == ds.ids
            assert ds.packed_regions() is got  # cached until a mutation
            handed_out.append((got, tuple(a.copy() for a in got)))
    assert_same_arrays(ds.packed_regions(), fresh_pack(ds))
    for got, saved in handed_out:
        assert_same_arrays(got, saved)
        assert not any(a.flags.writeable for a in got)


def test_lazy_first_build_racing_inserts_keeps_every_object():
    """A first ``packed_regions()`` call racing inserts never leaves a
    cache that is missing an object."""
    dims = 2
    rng = np.random.default_rng(5)
    base = [make_obj(i, rng, dims) for i in range(3000)]
    extra = [make_obj(10_000 + i, rng, dims) for i in range(40)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _trial in range(5):
            ds = UncertainDataset(base, domain=Rect.cube(0.0, 100.0, dims))
            start = threading.Barrier(3)

            def write():
                start.wait()
                for obj in extra:
                    ds.insert(obj)

            def read():
                start.wait()
                for _ in range(5):
                    ds.packed_regions()

            threads = [
                threading.Thread(target=write),
                threading.Thread(target=read),
                threading.Thread(target=read),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert_same_arrays(ds.packed_regions(), fresh_pack(ds))
    finally:
        sys.setswitchinterval(old_interval)


# ----------------------------------------------------------------------
# The min/max kernel
# ----------------------------------------------------------------------
def boxes_and_queries(seed, dims, n, b):
    """Random boxes (some degenerate) and queries, many on box faces."""
    rng = np.random.default_rng(seed)
    lo = rng.integers(0, 20, (n, dims)).astype(np.float64)
    lo += rng.uniform(0.0, 1.0, (n, dims)) * rng.integers(0, 2, (n, 1))
    hi = lo + rng.uniform(0.0, 6.0, (n, dims)) * rng.integers(0, 2, (n, 1))
    q = rng.uniform(-2.0, 28.0, (b, dims))
    on_grid = rng.integers(0, 2, (b, dims)).astype(bool)
    q[on_grid] = np.round(q[on_grid])
    return q, lo, hi


@given(
    seed=st.integers(0, 10_000),
    dims=st.sampled_from([1, 2]),
    n=st.integers(1, 60),
    b=st.integers(1, 9),
)
@settings(max_examples=60, deadline=None)
def test_kernel_bit_identical_to_einsum_at_low_dims(seed, dims, n, b):
    q, lo, hi = boxes_and_queries(seed, dims, n, b)
    (min_sq, max_sq), = minmax_sq_chunks(q, lo, hi)
    want_min, want_max = reference_minmax_sq(q, lo, hi)
    assert np.array_equal(min_sq, want_min)
    assert np.array_equal(max_sq, want_max)


@given(
    seed=st.integers(0, 10_000),
    dims=st.sampled_from([3, 4, 6]),
    n=st.integers(1, 60),
    b=st.integers(1, 9),
)
@settings(max_examples=40, deadline=None)
def test_kernel_sums_dimensions_left_to_right(seed, dims, n, b):
    """At ``d >= 3`` the defined order is ``((t0 + t1) + t2) + ...``;
    the einsum it replaced differs by at most a few ulp."""
    q, lo, hi = boxes_and_queries(seed, dims, n, b)
    (min_sq, max_sq), = minmax_sq_chunks(q, lo, hi)
    gap = np.maximum(np.maximum(lo - q[:, None], q[:, None] - hi), 0.0)
    far = np.maximum(np.abs(q[:, None] - lo), np.abs(q[:, None] - hi))
    want_min, want_max = gap[..., 0] ** 2, far[..., 0] ** 2
    for k in range(1, dims):
        want_min = want_min + gap[..., k] ** 2
        want_max = want_max + far[..., k] ** 2
    assert np.array_equal(min_sq, want_min)
    assert np.array_equal(max_sq, want_max)
    ref_min, ref_max = reference_minmax_sq(q, lo, hi)
    np.testing.assert_allclose(min_sq, ref_min, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(max_sq, ref_max, rtol=1e-15, atol=0.0)


def test_kernel_chunking_is_invisible(monkeypatch):
    q, lo, hi = boxes_and_queries(3, 2, 50, 23)
    (whole_min, whole_max), = minmax_sq_chunks(q, lo, hi)
    monkeypatch.setattr(retrievers_module, "_CHUNK_ELEMENT_BUDGET", 400)
    parts = list(minmax_sq_chunks(q, lo, hi))
    assert len(parts) == 6  # 4 query rows per chunk
    assert np.array_equal(np.vstack([p[0] for p in parts]), whole_min)
    assert np.array_equal(np.vstack([p[1] for p in parts]), whole_max)


# ----------------------------------------------------------------------
# The PV-index leaf filter after maintenance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dims", [2, 3])
def test_pv_candidates_equal_brute_force_after_churn(dims):
    u_max = 300 if dims == 2 else 400
    ds = synthetic_dataset(n=50, dims=dims, u_max=u_max, n_samples=2,
                           seed=31 + dims)
    index = PVIndex.build(ds)
    extra = synthetic_dataset(n=24, dims=dims, u_max=u_max, n_samples=2,
                              seed=41 + dims)
    order = list(ds.ids)
    for i, o in enumerate(extra):
        index.insert(
            UncertainObject(10_000 + i, o.region, o.instances, o.weights)
        )
        if i % 3 == 2:
            index.delete(order.pop(0))
    assert len(ds) == 50 + 24 - 8
    brute = BruteForceRetriever(ds)
    rng = np.random.default_rng(dims)
    queries = ds.domain.sample_points(60, rng)
    batch = brute.candidates_batch(queries)
    for q, want in zip(queries, batch):
        got = index.candidates(q)
        assert sorted(got) == sorted(want)
        if dims == 2:  # the scalar filter rounds identically at d=2
            assert got == reference_pv_candidates(index, q)


# ----------------------------------------------------------------------
# The R-tree leaf filter
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dims", [2, 3])
def test_rtree_candidates_equal_scalar_loop_after_churn(dims):
    from repro.storage import Pager

    u_max = 300 if dims == 2 else 400
    ds = synthetic_dataset(n=150, dims=dims, u_max=u_max, n_samples=2,
                           seed=51 + dims)
    extra = synthetic_dataset(n=60, dims=dims, u_max=u_max, n_samples=2,
                              seed=61 + dims)
    order = list(ds.ids)
    for i, o in enumerate(extra):
        ds.insert(UncertainObject(10_000 + i, o.region, o.instances, o.weights))
        if i % 3 == 2:
            ds.delete(order.pop(0))
    pager = Pager()
    index = RTreePNNQ.build(ds, max_entries=16, pager=pager)
    brute = BruteForceRetriever(ds)
    rng = np.random.default_rng(dims)
    queries = ds.domain.sample_points(80, rng)
    for q, want in zip(queries, brute.candidates_batch(queries)):
        before = pager.stats.reads
        got = index.candidates(q)
        kernel_reads = pager.stats.reads - before
        ref = reference_rtree_candidates(index, q)
        assert kernel_reads > 0
        assert pager.stats.reads - before == 2 * kernel_reads
        assert sorted(got) == sorted(ref) == sorted(want)
