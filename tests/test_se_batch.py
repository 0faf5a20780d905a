"""Differential tests: lockstep batched SE vs the retained serial SE.

``ShrinkExpand.refine_many`` runs Algorithm 1 for many objects at once
and must reproduce the one-object loop of ``tests/reference_se.py``
exactly: the same UBRs, lower bounds and iteration counts, bit for bit,
and the same SE counters.  The batched emptiness test is pinned row by
row against the scalar ``DominationTester`` it replaced, and a seeded
PV-index churn run is replayed through the reference to check that
maintenance ends with identical UBRs and counters.  The same churn
pins the packed Lemma 8 filter against the per-object loop it replaced
(``tests/reference_step1.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pvindex as pvindex_module
import repro.core.se as se_module
from reference_se import (
    ReferenceDominationTester,
    ReferenceShrinkExpand,
    RTreeFixedSelection,
    RTreeIncrementalSelection,
)
from reference_step1 import reference_affected_objects
from repro import (
    FixedSelection,
    IncrementalSelection,
    PVIndex,
    Rect,
    SEConfig,
    ShrinkExpand,
    UncertainObject,
    synthetic_dataset,
)
from repro.core.cset import CSet
from repro.geometry.domination import intersects_nondominated_batch

COUNTERS = ("runs", "iterations", "emptiness_tests", "shrinks", "expands")


def assert_same_result(got, want):
    assert np.array_equal(got.ubr.lo, want.ubr.lo)
    assert np.array_equal(got.ubr.hi, want.ubr.hi)
    assert np.array_equal(got.lower.lo, want.lower.lo)
    assert np.array_equal(got.lower.hi, want.lower.hi)
    assert got.iterations == want.iterations
    assert got.cset_size == want.cset_size


def assert_same_counters(got, want):
    for name in COUNTERS:
        assert getattr(got, name) == getattr(want, name), name
    assert got.mean_cset_size == pytest.approx(want.mean_cset_size)


# ----------------------------------------------------------------------
# The batched emptiness test, row by row
# ----------------------------------------------------------------------
@given(
    seed=st.integers(0, 10_000),
    dims=st.sampled_from([2, 3]),
    m_max=st.sampled_from([1, 2, 5, 10]),
    rows=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_emptiness_rows_match_scalar_tester(seed, dims, m_max, rows):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 12))
    r_lo = rng.uniform(0, 80, (rows, dims))
    r_hi = r_lo + rng.uniform(0, 40, (rows, dims)) * (
        rng.random((rows, 1)) > 0.1  # some degenerate (point) regions
    )
    b_lo = rng.uniform(30, 60, (rows, dims))
    b_hi = b_lo + rng.uniform(0, 5, (rows, dims))
    a_lo = rng.uniform(0, 100, (rows, n, dims))
    a_hi = a_lo + rng.uniform(0, 6, (rows, n, dims))
    valid = rng.random((rows, n)) < 0.8
    hit, _ = intersects_nondominated_batch(
        r_lo, r_hi, a_lo, a_hi, valid, b_lo, b_hi, m_max
    )
    for i in range(rows):
        ref = ReferenceDominationTester(m_max=m_max)
        want = ref.region_intersects_nondominated(
            Rect(r_lo[i], r_hi[i]),
            a_lo[i][valid[i]],
            a_hi[i][valid[i]],
            Rect(b_lo[i], b_hi[i]),
        )
        assert bool(hit[i]) == want


# ----------------------------------------------------------------------
# refine_many vs the serial loop
# ----------------------------------------------------------------------
def _warm_start_batch(seed, dims, rng):
    """Objects with mixed warm starts and their per-row C-sets.

    Kinds: a cold run (``u(o)``, ``D``); a deletion warm start (the old
    UBR from before another object was removed is the lower bound); an
    insertion warm start (the old UBR from before an object was added
    is the upper bound); a stale lower bound sticking out of its upper
    bound; and an empty C-set.
    """
    full = synthetic_dataset(
        n=45, dims=dims, u_max=500, n_samples=2, seed=seed
    )
    small = full.copy()
    small.delete(full.ids[-1])
    strategy = IncrementalSelection(kpartition=3, kglobal=30)
    before = ReferenceShrinkExpand(
        RTreeIncrementalSelection(kpartition=3, kglobal=30),
        SEConfig(delta=4.0),
    )
    objs, csets, lowers, uppers = [], [], [], []
    for oid in full.ids[: int(rng.integers(4, 10))]:
        obj = full[oid]
        kind = int(rng.integers(0, 5))
        if kind == 0:
            cset, lower, upper = (
                strategy.choose(obj, full), obj.region, full.domain,
            )
        elif kind == 1:  # deletion: S' = small
            old = before.compute_ubr(obj, full).ubr
            cset, lower, upper = strategy.choose(obj, small), old, full.domain
        elif kind == 2:  # insertion: S' = full
            old = before.compute_ubr(obj, small).ubr
            cset, lower, upper = strategy.choose(obj, full), obj.region, old
        elif kind == 3:  # a stale lower bound
            old = before.compute_ubr(obj, full).ubr
            lower = Rect(obj.region.lo - 700.0, obj.region.hi + 700.0)
            cset, upper = strategy.choose(obj, full), old
        else:
            cset = CSet.empty(full.dims)
            lower, upper = obj.region, full.domain
        objs.append(obj)
        csets.append(cset)
        lowers.append(lower)
        uppers.append(upper)
    return full, objs, csets, lowers, uppers


@given(
    seed=st.integers(0, 10_000),
    dims=st.sampled_from([2, 3]),
    m_max=st.sampled_from([1, 3, 10]),
    delta=st.sampled_from([1.0, 8.0, 60.0]),
)
@settings(max_examples=25, deadline=None)
def test_refine_many_matches_serial_refine(seed, dims, m_max, delta):
    rng = np.random.default_rng(seed)
    ds, objs, csets, lowers, uppers = _warm_start_batch(seed, dims, rng)
    config = SEConfig(delta=delta, m_max=m_max)
    batched = ShrinkExpand(config=config)
    serial = ReferenceShrinkExpand(config=config)
    got = batched.refine_many(objs, csets, lowers, uppers)
    want = [
        serial.refine(o, c, ds.domain, lo, up)
        for o, c, lo, up in zip(objs, csets, lowers, uppers)
    ]
    for g, w in zip(got, want):
        assert_same_result(g, w)
    for name in COUNTERS[1:]:
        assert getattr(batched.stats, name) == getattr(serial.stats, name)


def test_batch_rows_stop_at_different_iterations():
    """The lockstep loop keeps each row's own stopping point."""
    ds = synthetic_dataset(n=60, dims=2, u_max=300, n_samples=2, seed=3)
    se = ShrinkExpand(IncrementalSelection(kpartition=3, kglobal=30))
    cold = se.compute_ubrs([ds[o] for o in ds.ids[:6]], ds)
    # Warm rows start from their converged UBR and stop almost at once;
    # cold rows run the whole descent from D.
    objs = [ds[o] for o in ds.ids[:6]]
    csets = [se.strategy.choose(o, ds) for o in objs]
    lowers = [o.region for o in objs]
    uppers = [
        r.ubr if i % 2 else ds.domain for i, r in enumerate(cold)
    ]
    got = se.refine_many(objs, csets, lowers, uppers)
    assert len({r.iterations for r in got}) > 1
    serial = ReferenceShrinkExpand(
        RTreeIncrementalSelection(kpartition=3, kglobal=30)
    )
    for g, o, c, lo, up in zip(got, objs, csets, lowers, uppers):
        assert_same_result(g, serial.refine(o, c, ds.domain, lo, up))


@pytest.mark.parametrize("dims", [2, 3])
def test_compute_ubrs_matches_reference_and_ignores_chunking(
    dims, monkeypatch
):
    ds = synthetic_dataset(n=50, dims=dims, u_max=400, n_samples=2,
                           seed=11 + dims)
    objs = list(ds)
    ref = ReferenceShrinkExpand(RTreeFixedSelection(k=20))
    want = ref.compute_ubrs(objs, ds)
    whole = ShrinkExpand(FixedSelection(k=20))
    got = whole.compute_ubrs(objs, ds)
    # A bound of one row per chunk must not change a single bit.
    monkeypatch.setattr(se_module, "CHUNK_ELEMENTS", 1)
    tiny = ShrinkExpand(FixedSelection(k=20))
    chunked = tiny.compute_ubrs(objs, ds)
    for g, c, w in zip(got, chunked, want):
        assert_same_result(g, w)
        assert_same_result(c, w)
    assert_same_counters(whole.stats, ref.stats)
    assert_same_counters(tiny.stats, ref.stats)


def test_se_stats_stay_bounded():
    """The C-set size mean is a running sum, not a per-run list."""
    ds = synthetic_dataset(n=40, dims=2, n_samples=2, seed=12)
    se = ShrinkExpand(FixedSelection(k=7))
    for _ in range(3):
        se.compute_ubrs(list(ds), ds)
    assert se.stats.runs == 120
    assert se.stats.mean_cset_size == 7.0
    assert not any(isinstance(v, list) for v in vars(se.stats).values())


# ----------------------------------------------------------------------
# PV-index maintenance vs sequential maintenance through the reference
# ----------------------------------------------------------------------
def _churn(index, extra, n_deletes):
    """60 inserts, with a delete of the oldest object after every third."""
    order = list(index.dataset.ids)
    deleted = 0
    for i, o in enumerate(extra):
        index.insert(
            UncertainObject(10_000 + i, o.region, o.instances, o.weights)
        )
        if i % 3 == 2 and deleted < n_deletes:
            index.delete(order.pop(0))
            deleted += 1


def test_churn_matches_sequential_reference(monkeypatch):
    config = SEConfig(delta=25.0, m_max=6)

    def run(se_class, strategy):
        monkeypatch.setattr(pvindex_module, "ShrinkExpand", se_class)
        ds = synthetic_dataset(n=30, dims=2, u_max=300, n_samples=2,
                               seed=21)
        index = PVIndex.build(ds, strategy=strategy, se_config=config)
        extra = synthetic_dataset(n=60, dims=2, u_max=300, n_samples=2,
                                  seed=22)
        _churn(index, extra, n_deletes=20)
        return index

    ref = run(
        ReferenceShrinkExpand,
        RTreeIncrementalSelection(kpartition=2, kglobal=16),
    )
    new = run(ShrinkExpand, IncrementalSelection(kpartition=2, kglobal=16))
    assert new.dataset.ids == ref.dataset.ids
    assert len(new.dataset) == 30 + 60 - 20
    for oid in ref.dataset.ids:
        a, b = new.ubr_of(oid), ref.ubr_of(oid)
        assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
    assert_same_counters(new.se.stats, ref.se.stats)
    assert new.stats.cells_recomputed == ref.stats.cells_recomputed
    assert new.stats.insert_seconds > 0 and new.stats.delete_seconds > 0


@pytest.mark.parametrize("dims", [2, 3])
def test_affected_filter_matches_per_object_reference(dims, monkeypatch):
    """The packed Lemma 8 filter examines, probes and selects exactly
    what the per-object loop did: same UBRs, counters and page I/O."""
    config = SEConfig(delta=25.0, m_max=6)
    packed = PVIndex._affected_objects

    def run(affected):
        monkeypatch.setattr(PVIndex, "_affected_objects", affected)
        ds = synthetic_dataset(n=30, dims=dims, u_max=300, n_samples=2,
                               seed=21)
        index = PVIndex.build(
            ds,
            strategy=IncrementalSelection(kpartition=2, kglobal=16),
            se_config=config,
        )
        extra = synthetic_dataset(n=60, dims=dims, u_max=300, n_samples=2,
                                  seed=22)
        _churn(index, extra, n_deletes=20)
        return index

    ref = run(reference_affected_objects)
    new = run(packed)
    assert new.dataset.ids == ref.dataset.ids
    for oid in ref.dataset.ids:
        a, b = new.ubr_of(oid), ref.ubr_of(oid)
        assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
    for name in ("update_examined", "update_affected", "cells_recomputed"):
        assert getattr(new.stats, name) == getattr(ref.stats, name), name
    assert new.stats.update_affected > 0
    assert new.pager.stats.reads == ref.pager.stats.reads
    assert new.pager.stats.writes == ref.pager.stats.writes
