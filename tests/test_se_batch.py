"""Differential tests: lockstep batched SE vs the retained serial SE.

``ShrinkExpand.refine_many`` runs Algorithm 1 for many objects at once
and must reproduce the one-object loop of ``tests/reference_se.py``
exactly: the same UBRs, lower bounds and iteration counts, bit for bit,
and the same SE counters.  It has two row loops, the compiled one
(``core/se_kernel.c``) and the numpy one it falls back to; the tests
run both explicitly, side by side, and a subprocess whose compiler
fails checks that the fallback is taken with identical results.  The
batched emptiness test is pinned row by row against the scalar
``DominationTester`` it replaced, and a seeded
PV-index churn run is replayed through the reference to check that
maintenance ends with identical UBRs and counters.  The same churn
pins the packed Lemma 8 filter against the per-object loop it replaced
(``tests/reference_step1.py``).
"""

import contextlib
import hashlib
import os
import subprocess
import sys

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
    UncertainDataset,
    UncertainObject,
    synthetic_dataset,
)
from repro.core import sekernel
from repro.core.cset import CSet
from repro.geometry.domination import intersects_nondominated_batch

COUNTERS = ("runs", "iterations", "emptiness_tests", "shrinks", "expands")

#: The compiled loop builds wherever a C compiler is installed; without
#: one (e.g. ``CC=false``) only the numpy loop runs and the C-vs-numpy
#: comparisons skip.
HAVE_C = sekernel.load() is not None
PATHS = ("c", "numpy")
RUNNABLE = PATHS if HAVE_C else ("numpy",)


@contextlib.contextmanager
def se_path(name):
    """Run every SE call inside on the named row loop."""
    if name == "c" and not HAVE_C:
        pytest.skip("the compiled SE loop did not build here")
    saved = se_module.kernel_name
    se_module.kernel_name = lambda: name
    try:
        yield
    finally:
        se_module.kernel_name = saved


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
    serial = ReferenceShrinkExpand(config=config)
    want = [
        serial.refine(o, c, ds.domain, lo, up)
        for o, c, lo, up in zip(objs, csets, lowers, uppers)
    ]
    for path in RUNNABLE:
        batched = ShrinkExpand(config=config)
        with se_path(path):
            got = batched.refine_many(objs, csets, lowers, uppers)
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
    for path in RUNNABLE:
        with se_path(path):
            whole = ShrinkExpand(FixedSelection(k=20))
            got = whole.compute_ubrs(objs, ds)
            # A bound of one row per chunk must not change a single bit.
            with monkeypatch.context() as patch:
                patch.setattr(se_module, "CHUNK_ELEMENTS", 1)
                tiny = ShrinkExpand(FixedSelection(k=20))
                chunked = tiny.compute_ubrs(objs, ds)
        for g, c, w in zip(got, chunked, want):
            assert_same_result(g, w)
            assert_same_result(c, w)
        assert_same_counters(whole.stats, ref.stats)
        assert_same_counters(tiny.stats, ref.stats)


# ----------------------------------------------------------------------
# The compiled row loop vs the numpy one, bit for bit
# ----------------------------------------------------------------------
def _on_both_paths(objs, csets, lowers, uppers, config):
    """``refine_many`` on each row loop that builds here; checks they
    agree bit for bit and returns the results and stats of the numpy
    one."""
    out = {}
    for path in RUNNABLE:
        se = ShrinkExpand(config=config)
        with se_path(path):
            out[path] = se.refine_many(objs, csets, lowers, uppers), se.stats
    want, want_stats = out["numpy"]
    if "c" in out:
        got, got_stats = out["c"]
        for g, w in zip(got, want):
            assert_same_result(g, w)
        assert_same_counters(got_stats, want_stats)
    return want, want_stats


@pytest.mark.parametrize("m_max", [1, 3, 10])
@pytest.mark.parametrize("dims", [1, 2, 3, 4, 7, 9])
def test_paths_match_each_other_and_reference(dims, m_max):
    """Cold and warm rows, a stale lower bound clipped into its upper
    bound and an empty C-set, at every d the numpy path takes: d > 6
    uses the center witness only, d >= 8 sums margins pairwise."""
    ds = synthetic_dataset(n=14, dims=dims, u_max=900, n_samples=2,
                           seed=dims * 7 + m_max)
    config = SEConfig(delta=2.0 if dims <= 4 else 150.0, m_max=m_max)
    strategy = FixedSelection(k=8)
    objs = list(ds)[:7]
    csets, lowers, uppers = [], [], []
    for i, obj in enumerate(objs):
        kind = i % 4
        lower, upper = obj.region, ds.domain
        if kind == 1:  # an insertion-style warm start: a tighter upper
            upper = ds.domain.intersection(obj.region.expanded(2500.0))
        elif kind == 2:  # a stale lower bound poking out of its upper
            upper = ds.domain.intersection(obj.region.expanded(1200.0))
            lower = obj.region.expanded(2000.0)
        csets.append(
            CSet.empty(dims) if kind == 3 else strategy.choose(obj, ds)
        )
        lowers.append(lower)
        uppers.append(upper)
    got, stats = _on_both_paths(objs, csets, lowers, uppers, config)
    serial = ReferenceShrinkExpand(config=config)
    for g, o, c, lo, up in zip(got, objs, csets, lowers, uppers):
        assert_same_result(g, serial.refine(o, c, ds.domain, lo, up))
    for name in COUNTERS[1:]:
        assert getattr(stats, name) == getattr(serial.stats, name), name


def test_paths_match_on_zero_width_regions():
    """Point objects and a flat domain dimension: slabs and regions of
    zero width in that dimension, and every C-set empty in one batch."""
    objects = synthetic_dataset(n=20, dims=3, u_max=500, n_samples=2,
                                seed=8)
    flat = []
    for o in objects:
        lo, hi = o.region.lo.copy(), o.region.hi.copy()
        lo[2] = hi[2] = 0.0
        if o.oid % 3 == 0:
            hi[:2] = lo[:2]  # a point object
        flat.append(UncertainObject(
            o.oid, Rect(lo, hi), np.clip(o.instances, lo, hi), o.weights,
        ))
    domain = objects.domain
    domain = Rect(np.append(domain.lo[:2], 0.0), np.append(domain.hi[:2], 0.0))
    ds = UncertainDataset(flat, domain=domain)
    config = SEConfig(delta=1.0, m_max=4)
    strategy = FixedSelection(k=6)
    objs = list(ds)
    csets = [strategy.choose(o, ds) for o in objs]
    lowers = [o.region for o in objs]
    uppers = [ds.domain] * len(objs)
    got, _ = _on_both_paths(objs, csets, lowers, uppers, config)
    serial = ReferenceShrinkExpand(config=config)
    for g, o, c in zip(got, objs, csets):
        assert g.ubr.lo[2] == g.ubr.hi[2] == 0.0
        assert_same_result(g, serial.refine(o, c, ds.domain, o.region,
                                            ds.domain))
    empty = [CSet.empty(3)] * len(objs)
    got, stats = _on_both_paths(objs, empty, lowers, uppers, config)
    assert stats.shrinks == 0 and stats.expands == stats.emptiness_tests


@given(seed=st.integers(0, 10_000), rounded=st.booleans())
@settings(max_examples=40, deadline=None)
def test_row_loops_match_on_random_packs(seed, rounded):
    """The two row loops on raw packed tensors: random bounds, padding
    and budgets, with coordinates rounded to integers half the time so
    margins and witness distances tie exactly."""
    if not HAVE_C:
        return
    rng = np.random.default_rng(seed)
    r = np.round if rounded else (lambda x: x)
    k, n = int(rng.integers(1, 6)), int(rng.integers(0, 12))
    d, m_max = int(rng.integers(1, 10)), int(rng.integers(1, 11))
    b_lo = r(rng.uniform(20, 80, (k, d)))
    b_hi = b_lo + r(rng.uniform(0, 5, (k, d)))
    h_lo = np.minimum(b_lo, r(rng.uniform(0, 40, (k, d))))
    h_hi = np.maximum(b_hi, r(rng.uniform(60, 100, (k, d))))
    l_lo = np.clip(b_lo - r(rng.uniform(-3, 20, (k, d))), h_lo, h_hi)
    l_hi = np.maximum(
        l_lo, np.clip(b_hi + r(rng.uniform(-3, 20, (k, d))), h_lo, h_hi)
    )
    a_lo = r(rng.uniform(0, 100, (k, n, d)))
    a_hi = a_lo + r(rng.uniform(0, 6, (k, n, d)))
    valid = rng.random((k, n)) < 0.85
    delta = float(rng.choice([0.5, 1.0, 7.0]))
    outs = []
    for rows in (se_module.refine_rows_numpy, sekernel.refine_rows):
        bounds = [a.copy() for a in (h_lo, h_hi, l_lo, l_hi)]
        outs.append((rows(b_lo, b_hi, *bounds, a_lo, a_hi, valid, delta,
                          m_max), bounds))
    (iters_n, counts_n), bounds_n = outs[0]
    (iters_c, counts_c), bounds_c = outs[1]
    assert np.array_equal(iters_c, iters_n) and counts_c == counts_n
    for c, w in zip(bounds_c, bounds_n):
        assert np.array_equal(c, w)


def fallback_report():
    """What one SE build computes, as strings: the row loop in use, the
    one ``Database.describe`` names, a digest of every UBR, lower bound
    and iteration count, and the SE counters."""
    from repro.api import Database

    ds = synthetic_dataset(n=30, dims=2, u_max=400, n_samples=2, seed=4)
    se = ShrinkExpand(FixedSelection(k=10), SEConfig(m_max=5))
    digest = hashlib.sha256()
    for r in se.compute_ubrs(list(ds), ds):
        for a in (r.ubr.lo, r.ubr.hi, r.lower.lo, r.lower.hi):
            digest.update(a.tobytes())
        digest.update(str(r.iterations).encode())
    counters = [str(getattr(se.stats, name)) for name in COUNTERS]
    kernel = se_module.kernel_name()
    return [kernel, Database(ds).describe()["kernel"],
            digest.hexdigest(), *counters]


def _report_in_subprocess(**env):
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = (
        f"import sys; sys.path[:0] = [{here!r}, {src!r}]; "
        "import test_se_batch as t; print(*t.fallback_report())"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, **env),
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_failed_build_falls_back_to_numpy():
    """A compiler that exits 1 leaves the numpy loop in use, with the
    same results as either loop in this process."""
    report = _report_in_subprocess(CC="false")
    assert report[:2] == ["numpy", "numpy"]
    for path in RUNNABLE:
        with se_path(path):
            assert fallback_report()[2:] == report[2:]


def test_build_leaves_no_files(tmp_path):
    if not HAVE_C:
        pytest.skip("the compiled SE loop did not build here")
    report = _report_in_subprocess(TMPDIR=str(tmp_path))
    assert report[:2] == ["c", "c"]
    assert os.listdir(tmp_path) == []


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
    for path in RUNNABLE:
        with se_path(path):
            new = run(
                ShrinkExpand, IncrementalSelection(kpartition=2, kglobal=16)
            )
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
