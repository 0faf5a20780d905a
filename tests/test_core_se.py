"""Tests for the Shrink-and-Expand algorithm.

The central invariant (conservativeness) is checked against the exact
Lemma 4 membership predicate: every sampled point of the PV-cell must
lie inside the UBR returned by SE, for every C-set strategy and every
warm start.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AllCSet,
    FixedSelection,
    IncrementalSelection,
    Rect,
    SEConfig,
    ShrinkExpand,
    UncertainDataset,
    UncertainObject,
    synthetic_dataset,
)
from repro.core import monte_carlo_mbr, pv_cell_contains_many
from repro.uncertain import uniform_pdf


def make_obj(oid, center, half=2.0, seed=0):
    region = Rect.from_center(center, half)
    inst, w = uniform_pdf(region, 2, np.random.default_rng(seed))
    return UncertainObject(oid, region, inst, w)


def assert_conservative(ds, oid, ubr, n=4000, seed=0):
    """Every sampled PV-cell point must be inside the UBR."""
    rng = np.random.default_rng(seed)
    pts = ds.domain.sample_points(n, rng)
    inside_cell = pv_cell_contains_many(ds, oid, pts)
    in_ubr = np.array([ubr.contains_point(p) for p in pts[inside_cell]])
    assert in_ubr.all() if len(in_ubr) else True


class TestSEConfig:
    def test_validation(self):
        for delta in (-1, 0.0):
            with pytest.raises(ValueError):
                SEConfig(delta=delta)
        with pytest.raises(ValueError):
            SEConfig(m_max=0)


class TestSEBasics:
    def test_two_point_objects_halfplane(self):
        # Certain points at x=20 and x=80: V(o0) is the half-plane
        # x <= 50, so B(o0) must converge to ~[0,50] x [0,100].
        a = UncertainObject(
            0, Rect([20, 50], [20, 50]), np.array([[20.0, 50.0]])
        )
        b = UncertainObject(
            1, Rect([80, 50], [80, 50]), np.array([[80.0, 50.0]])
        )
        ds = UncertainDataset([a, b], domain=Rect.cube(0, 100, 2))
        se = ShrinkExpand(AllCSet(), SEConfig(delta=0.1, m_max=10))
        result = se.compute_ubr(a, ds)
        assert result.ubr.lo[0] == pytest.approx(0.0, abs=0.2)
        assert result.ubr.hi[0] == pytest.approx(50.0, abs=0.5)
        assert result.ubr.lo[1] == pytest.approx(0.0, abs=0.2)
        assert result.ubr.hi[1] == pytest.approx(100.0, abs=0.2)

    def test_ubr_contains_uncertainty_region(self):
        ds = synthetic_dataset(n=40, dims=2, u_max=300, n_samples=2, seed=1)
        se = ShrinkExpand(IncrementalSelection(), SEConfig())
        for oid in ds.ids[:10]:
            result = se.compute_ubr(ds[oid], ds)
            assert result.ubr.contains_rect(ds[oid].region)

    def test_ubr_within_domain(self):
        ds = synthetic_dataset(n=40, dims=2, u_max=300, n_samples=2, seed=2)
        se = ShrinkExpand(IncrementalSelection(), SEConfig())
        for oid in ds.ids[:10]:
            result = se.compute_ubr(ds[oid], ds)
            assert ds.domain.contains_rect(result.ubr)

    def test_lower_bound_inside_ubr(self):
        ds = synthetic_dataset(n=40, dims=2, u_max=300, n_samples=2, seed=3)
        se = ShrinkExpand(FixedSelection(k=20), SEConfig())
        for oid in ds.ids[:10]:
            result = se.compute_ubr(ds[oid], ds)
            assert result.ubr.contains_rect(result.lower)

    def test_gap_below_delta(self):
        ds = synthetic_dataset(n=60, dims=2, u_max=200, n_samples=2, seed=4)
        delta = 5.0
        se = ShrinkExpand(AllCSet(), SEConfig(delta=delta))
        for oid in ds.ids[:5]:
            r = se.compute_ubr(ds[oid], ds)
            gap = np.maximum(
                r.lower.lo - r.ubr.lo, r.ubr.hi - r.lower.hi
            )
            assert np.max(gap) < delta

    def test_stats_accumulate(self):
        ds = synthetic_dataset(n=30, dims=2, n_samples=2, seed=5)
        se = ShrinkExpand(IncrementalSelection(), SEConfig())
        se.compute_ubr(ds[ds.ids[0]], ds)
        assert se.stats.runs == 1
        assert se.stats.iterations > 0
        assert se.stats.ubr_seconds > 0
        se.stats.reset()
        assert se.stats.runs == 0
        assert se.stats.mean_cset_size == 0.0


class TestConservativeness:
    @pytest.mark.parametrize(
        "strategy",
        [
            AllCSet(),
            FixedSelection(k=15),
            IncrementalSelection(kpartition=4, kglobal=60),
        ],
        ids=["ALL", "FS", "IS"],
    )
    def test_ubr_contains_cell_2d(self, strategy):
        ds = synthetic_dataset(n=50, dims=2, u_max=400, n_samples=2, seed=6)
        se = ShrinkExpand(strategy, SEConfig(delta=1.0))
        for oid in ds.ids[:8]:
            result = se.compute_ubr(ds[oid], ds)
            assert_conservative(ds, oid, result.ubr, seed=oid)

    def test_ubr_contains_cell_3d(self):
        ds = synthetic_dataset(n=40, dims=3, u_max=800, n_samples=2, seed=7)
        se = ShrinkExpand(IncrementalSelection(), SEConfig(delta=2.0))
        for oid in ds.ids[:5]:
            result = se.compute_ubr(ds[oid], ds)
            assert_conservative(ds, oid, result.ubr, n=3000, seed=oid)

    def test_ubr_contains_monte_carlo_mbr(self):
        ds = synthetic_dataset(n=40, dims=2, u_max=400, n_samples=2, seed=8)
        se = ShrinkExpand(AllCSet(), SEConfig(delta=0.5))
        for oid in ds.ids[:5]:
            result = se.compute_ubr(ds[oid], ds)
            mc = monte_carlo_mbr(ds, oid, n_samples=5000)
            # The MC MBR is an inner approximation of M(o) ⊆ B(o).
            assert result.ubr.expanded(1e-6).contains_rect(mc)

    @given(st.integers(0, 300))
    @settings(max_examples=8, deadline=None)
    def test_conservative_property(self, seed):
        ds = synthetic_dataset(
            n=30, dims=2, u_max=500, n_samples=2, seed=seed
        )
        se = ShrinkExpand(
            IncrementalSelection(kpartition=3, kglobal=25),
            SEConfig(delta=2.0),
        )
        oid = ds.ids[seed % len(ds)]
        result = se.compute_ubr(ds[oid], ds)
        assert_conservative(ds, oid, result.ubr, n=2500, seed=seed)


class TestTightness:
    def test_small_delta_tighter_than_large(self):
        ds = synthetic_dataset(n=80, dims=2, u_max=200, n_samples=2, seed=9)
        tight = ShrinkExpand(AllCSet(), SEConfig(delta=0.5))
        loose = ShrinkExpand(AllCSet(), SEConfig(delta=200.0))
        vol_tight = 0.0
        vol_loose = 0.0
        for oid in ds.ids[:10]:
            vol_tight += tight.compute_ubr(ds[oid], ds).ubr.volume
            vol_loose += loose.compute_ubr(ds[oid], ds).ubr.volume
        assert vol_tight <= vol_loose

    def test_bad_cset_gives_loose_ubr(self):
        # Section V-A's example: a C-set of one overlapping object
        # cannot shrink h(o) at all -> UBR stays the domain.
        o = make_obj(0, [50, 50], half=5)
        o1 = make_obj(1, [52, 52], half=5)  # overlaps o
        o2 = make_obj(2, [80, 50], half=2)
        ds = UncertainDataset([o, o1, o2], domain=Rect.cube(0, 100, 2))

        class OnlyOverlapping(AllCSet):
            def choose_many(self, objs, dataset):
                from repro.core.cset import CSet

                return [CSet.from_objects([dataset[1]]) for _ in objs]

        se = ShrinkExpand(OnlyOverlapping(), SEConfig(delta=1.0))
        result = se.compute_ubr(o, ds)
        assert result.ubr == ds.domain


class TestIncrementalVariants:
    def _dataset(self, seed=10):
        return synthetic_dataset(
            n=60, dims=2, u_max=300, n_samples=2, seed=seed
        )

    def test_deletion_warm_start_conservative(self):
        ds = self._dataset()
        se = ShrinkExpand(AllCSet(), SEConfig(delta=1.0))
        victim = ds.ids[-1]
        old_ubrs = {
            oid: se.compute_ubr(ds[oid], ds).ubr for oid in ds.ids[:6]
        }
        ds.delete(victim)
        for oid in ds.ids[:6]:
            [result] = se.compute_ubrs(
                [ds[oid]], ds, lowers=[old_ubrs[oid]]
            )
            assert_conservative(ds, oid, result.ubr, seed=oid)
            # Lemma 9: the cell cannot shrink, so the new UBR must still
            # contain the old lower bound.
            assert result.ubr.expanded(1e-9).contains_rect(old_ubrs[oid])

    def test_insertion_warm_start_conservative(self):
        ds = self._dataset(seed=11)
        se = ShrinkExpand(AllCSet(), SEConfig(delta=1.0))
        old_ubrs = {
            oid: se.compute_ubr(ds[oid], ds).ubr for oid in ds.ids[:6]
        }
        new_obj = make_obj(9999, [5000, 5000], half=30)
        ds.insert(new_obj)
        for oid in ds.ids[:6]:
            [result] = se.compute_ubrs(
                [ds[oid]], ds, uppers=[old_ubrs[oid]]
            )
            assert_conservative(ds, oid, result.ubr, seed=oid)
            # Lemma 9: the cell cannot grow.
            assert old_ubrs[oid].expanded(1e-9).contains_rect(result.ubr)

    def test_refine_reconciles_stale_lower(self):
        ds = self._dataset(seed=12)
        se = ShrinkExpand(AllCSet(), SEConfig(delta=1.0))
        obj = ds[ds.ids[0]]
        cset = AllCSet().choose(obj, ds)
        # Lower bound sticking out of the upper bound must not crash.
        weird_lower = Rect(
            obj.region.lo - 1000.0, obj.region.hi + 1000.0
        )
        upper = ds.domain
        result = se.refine(obj, cset, ds.domain, weird_lower, upper)
        assert ds.domain.contains_rect(result.ubr)
