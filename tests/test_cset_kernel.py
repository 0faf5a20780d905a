"""Differential tests: the compiled FS/IS C-set selection vs numpy.

``cset_kernel.c`` picks the C-sets of a whole block of objects in one
call; the numpy strategies in ``repro.core.cset`` pick one object at a
time and are its oracle.  Every C-set must be the numpy one bit for
bit: the same ids in the same order and the same corner arrays.  The
generated datasets put centres on a coarse integer grid, so many
objects share a centre or a distance and ties must fall in row order;
they mix regions that overlap the object (skipped by Lemma 2) with
point regions, cap the examined prefix below and above n (the partial
selection and the full sort), make ``kpartition`` unreachable, and
choose for dataset members (left out of their own C-set) and for an
object whose oid is not in the dataset.  The numpy side is pinned
through the module global ``repro.core.cset.kernel_name``.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.cset as cset_module
from repro import (
    FixedSelection,
    IncrementalSelection,
    Rect,
    UncertainDataset,
    UncertainObject,
)
from repro.core import sekernel

pytestmark = pytest.mark.skipif(
    sekernel.load() is None, reason="the compiled selection did not build"
)


@contextlib.contextmanager
def selection(name):
    """Run every FS/IS choice inside on the named implementation."""
    saved = cset_module.kernel_name
    cset_module.kernel_name = lambda: name
    try:
        yield
    finally:
        cset_module.kernel_name = saved


def point_object(oid, lo, hi):
    """An object with its region ``[lo, hi]`` and one central instance."""
    region = Rect(np.asarray(lo, float), np.asarray(hi, float))
    return UncertainObject(oid, region, region.center[None, :], np.ones(1))


def grid_dataset(rng, n, dims, grid, max_half):
    """``n`` objects with integer centres in ``[0, grid]^dims`` and
    integer half widths up to ``max_half`` (0: a point region)."""
    centres = rng.integers(0, grid + 1, (n, dims)).astype(float)
    halves = rng.integers(0, max_half + 1, (n, dims)).astype(float)
    oids = rng.permutation(10 * n)[:n]  # ids unrelated to row order
    objs = [
        point_object(int(oid), c - h, c + h)
        for oid, c, h in zip(oids, centres, halves)
    ]
    return UncertainDataset(objs)


def assert_same_csets(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.ids.tolist() == w.ids.tolist()
        assert g.los.shape == w.los.shape and g.his.shape == w.his.shape
        assert np.array_equal(g.los, w.los)
        assert np.array_equal(g.his, w.his)


def both_ways(strategy, objs, ds):
    """The compiled block choice, checked against numpy object by
    object and against compiled choices of one object each."""
    with selection("c"):
        got = strategy.choose_many(objs, ds)
        singles = [strategy.choose(o, ds) for o in objs]
    with selection("numpy"):
        want = [strategy.choose(o, ds) for o in objs]
    assert_same_csets(got, want)
    assert_same_csets(singles, want)
    return got


@given(
    seed=st.integers(0, 10_000),
    dims=st.sampled_from([1, 2, 3, 4]),
    n=st.integers(1, 300),
    grid=st.sampled_from([1, 3, 12, 1000]),
    max_half=st.sampled_from([0, 1, 4]),
    limit_scale=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
    kpartition=st.sampled_from([1, 2, 5, None]),
)
@settings(max_examples=80, deadline=None)
def test_compiled_selection_matches_numpy(
    seed, dims, n, grid, max_half, limit_scale, kpartition
):
    rng = np.random.default_rng(seed)
    ds = grid_dataset(rng, n, dims, grid, max_half)
    limit = max(1, int(n * limit_scale))  # below n, at n, above n
    if kpartition is None:  # more members per quadrant than exist
        kpartition = n + 1
    members = [ds[oid] for oid in rng.permutation(ds.ids)[:6].tolist()]
    centre = rng.integers(0, grid + 1, dims).astype(float)
    outsider = point_object(-1, centre - 1.0, centre + 1.0)
    objs = [*members, outsider]
    fs = both_ways(FixedSelection(k=limit), objs, ds)
    is_ = both_ways(
        IncrementalSelection(kpartition=kpartition, kglobal=limit), objs, ds
    )
    for obj, f, i in zip(objs, fs, is_):
        eligible = n - (obj.oid in ds)
        assert len(f) == min(limit, eligible)
        assert obj.oid not in f.ids and obj.oid not in i.ids


def test_ties_fall_in_row_order():
    """Every centre coincides: the whole ranking is a tie, so both
    strategies return rows in dataset order, through the partial
    selection (k below n) and the full sort."""
    objs = [point_object(100 - i, [i % 3, 0.0], [6 - i % 3, 6.0])
            for i in range(40)]
    ds = UncertainDataset(objs)
    probe = point_object(-1, [2.0, 20.0], [4.0, 22.0])
    for k in (5, 17, 40, 80):
        fs = both_ways(FixedSelection(k=k), [probe], ds)[0]
        assert fs.ids.tolist() == list(ds.ids)[: min(k, 40)]
    is_ = both_ways(IncrementalSelection(kpartition=50, kglobal=25),
                    [probe], ds)[0]
    assert is_.ids.tolist() == list(ds.ids)[:25]


def test_members_are_left_out_and_overlaps_skipped():
    """A member never selects itself; IS skips every region overlapping
    the object's (Lemma 2) while FS keeps them."""
    objs = [point_object(0, [10.0, 10.0], [14.0, 14.0])]
    objs += [point_object(i, [11.0 + i, 11.0], [13.0 + i, 13.0])
             for i in range(1, 4)]  # overlap object 0
    objs += [point_object(i, [20.0 + i, 30.0], [21.0 + i, 31.0])
             for i in range(4, 30)]
    ds = UncertainDataset(objs)
    obj = ds[0]
    fs = both_ways(FixedSelection(k=10), [obj], ds)[0]
    assert fs.ids.tolist()[:3] == [1, 2, 3] and 0 not in fs.ids
    is_ = both_ways(IncrementalSelection(kpartition=2, kglobal=10),
                    [obj], ds)[0]
    assert not {0, 1, 2, 3} & set(is_.ids.tolist())
    assert len(is_) == 7  # the rest of the first ten ranked rows


@pytest.mark.parametrize("dims", [5, 9])
def test_ranking_rounds_like_einsum_in_more_dimensions(dims):
    """Off-grid centres at d >= 5, where einsum's two-lane order decides
    the last bits of a distance."""
    rng = np.random.default_rng(dims)
    lo = rng.uniform(0, 100, (120, dims))
    objs = [point_object(i, lo[i], lo[i] + rng.uniform(0, 3, dims))
            for i in range(120)]
    ds = UncertainDataset(objs)
    probes = [ds[i] for i in range(0, 120, 13)]
    both_ways(FixedSelection(k=30), probes, ds)
    both_ways(IncrementalSelection(kpartition=1, kglobal=60), probes, ds)


def test_selection_follows_insert_and_delete():
    """The compiled selection reads the packed regions in place, which
    inserts append to and deletes replace."""
    rng = np.random.default_rng(3)
    ds = grid_dataset(rng, 60, 2, 30, 1)
    strategy = IncrementalSelection(kpartition=2, kglobal=20)
    probes = [ds[oid] for oid in list(ds.ids)[:5]]
    both_ways(strategy, probes, ds)
    ds.insert(point_object(10_000, [14.0, 14.0], [15.0, 15.0]))
    ds.delete(list(ds.ids)[7])
    got = both_ways(strategy, probes, ds)
    assert any(10_000 in c.ids for c in got)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_overflowing_centres_rank_like_numpy():
    """Regions near the float64 limit: their centres overflow to inf, so
    distances are inf or NaN (inf - inf), which both selections rank
    after every finite distance, NaN last, in row order."""
    big = [1.5e308, 1.6e308]
    objs = [
        UncertainObject(i, Rect(np.array(big), np.array(big)) if i % 3 else
                        Rect(np.full(2, float(i)), np.full(2, i + 1.0)),
                        np.array([big if i % 3 else [float(i)] * 2]),
                        np.ones(1))
        for i in range(30)
    ]
    ds = UncertainDataset(objs)
    probes = [ds[1], ds[3], point_object(-1, [0.0, 0.0], [1.0, 1.0])]
    for k in (4, 12, 40):
        both_ways(FixedSelection(k=k), probes, ds)
        both_ways(IncrementalSelection(kpartition=2, kglobal=k), probes, ds)
