"""Tests for the chooseCSet strategies (ALL / FS / IS)."""

import numpy as np
import pytest

from repro import (
    AllCSet,
    FixedSelection,
    IncrementalSelection,
    Rect,
    UncertainDataset,
    UncertainObject,
    synthetic_dataset,
)
from repro.core.cset import CSet, rank_by_mean
from reference_se import RTreeFixedSelection, RTreeIncrementalSelection
from repro.uncertain import uniform_pdf


def make_obj(oid, center, half=2.0, seed=0):
    region = Rect.from_center(center, half)
    inst, w = uniform_pdf(region, 2, np.random.default_rng(seed))
    return UncertainObject(oid, region, inst, w)


class TestCSetContainer:
    def test_from_objects(self):
        objs = [make_obj(3, [5, 5]), make_obj(7, [9, 9])]
        cset = CSet.from_objects(objs)
        assert len(cset) == 2
        assert cset.ids.tolist() == [3, 7]
        assert cset.los.shape == (2, 2)

    def test_empty(self):
        cset = CSet.empty(3)
        assert len(cset) == 0
        assert cset.los.shape == cset.his.shape == (0, 3)
        with pytest.raises(ValueError):
            CSet.from_objects([])


class TestAllCSet:
    def test_returns_everything_but_self(self):
        ds = synthetic_dataset(n=30, dims=2, n_samples=2, seed=0)
        strategy = AllCSet()
        obj = ds[ds.ids[5]]
        cset = strategy.choose(obj, ds)
        assert len(cset) == 29
        assert obj.oid not in cset.ids


class TestFixedSelection:
    def test_returns_k_nearest_means(self):
        ds = synthetic_dataset(n=60, dims=2, n_samples=2, seed=1)
        strategy = FixedSelection(k=10)
        obj = ds[ds.ids[0]]
        cset = strategy.choose(obj, ds)
        assert len(cset) == 10
        assert obj.oid not in cset.ids
        # Matches brute-force mean distances.
        means = {o.oid: o.mean for o in ds}
        brute = sorted(
            (oid for oid in ds.ids if oid != obj.oid),
            key=lambda oid: float(
                np.linalg.norm(means[oid] - obj.mean)
            ),
        )[:10]
        got_d = sorted(
            float(np.linalg.norm(means[oid] - obj.mean))
            for oid in cset.ids
        )
        want_d = sorted(
            float(np.linalg.norm(means[oid] - obj.mean)) for oid in brute
        )
        assert np.allclose(got_d, want_d)

    def test_k_capped_by_database(self):
        ds = synthetic_dataset(n=5, dims=2, n_samples=2, seed=2)
        cset = FixedSelection(k=50).choose(ds[ds.ids[0]], ds)
        assert len(cset) == 4

    def test_k_validation(self):
        with pytest.raises(ValueError):
            FixedSelection(k=0)


class TestIncrementalSelection:
    def test_skips_overlapping_regions(self):
        # o overlaps o1; o1 must not appear in the C-set (Lemma 2).
        o = make_obj(0, [50, 50], half=5)
        o1 = make_obj(1, [52, 52], half=5)   # overlaps o
        o2 = make_obj(2, [70, 50], half=2)
        o3 = make_obj(3, [30, 50], half=2)
        ds = UncertainDataset(
            [o, o1, o2, o3], domain=Rect.cube(0, 100, 2)
        )
        cset = IncrementalSelection(kpartition=1, kglobal=10).choose(o, ds)
        assert 1 not in cset.ids
        assert len(cset) >= 1

    def test_quadrant_balance(self):
        # Four objects, one per quadrant, plus a distant cluster in one
        # quadrant; IS must pick at least one object in every quadrant.
        objs = [make_obj(0, [50, 50], half=1)]
        positions = [(30, 30), (70, 30), (30, 70), (70, 70)]
        for i, pos in enumerate(positions, start=1):
            objs.append(make_obj(i, list(pos), half=1))
        # A near cluster in the lower-left quadrant that would saturate
        # a pure k-NN selection.
        for j in range(5, 10):
            objs.append(make_obj(j, [45 - j, 45 - j], half=0.5))
        ds = UncertainDataset(objs, domain=Rect.cube(0, 100, 2))
        cset = IncrementalSelection(kpartition=1, kglobal=50).choose(
            objs[0], ds
        )
        chosen = set(cset.ids.tolist())
        assert {2, 3, 4} <= chosen  # one object in each other quadrant

    def test_kglobal_caps_examination(self):
        ds = synthetic_dataset(n=200, dims=2, n_samples=2, seed=3)
        cset = IncrementalSelection(kpartition=50, kglobal=20).choose(
            ds[ds.ids[0]], ds
        )
        assert len(cset) <= 20

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            IncrementalSelection(kpartition=0)
        with pytest.raises(ValueError):
            IncrementalSelection(kglobal=0)

    def test_touched_partitions_straddling(self):
        mean = np.array([50.0, 50.0])
        cand = make_obj(1, [50, 70], half=5)  # straddles x-split plane
        parts = IncrementalSelection._touched_partitions(cand, mean, 2)
        # Above the y plane (bit 1 set), both sides of x plane.
        assert sorted(parts) == [2, 3]

    def test_touched_partitions_single(self):
        mean = np.array([50.0, 50.0])
        cand = make_obj(1, [70, 70], half=1)
        parts = IncrementalSelection._touched_partitions(cand, mean, 2)
        assert parts == [3]

    def test_choose_follows_insert_and_delete(self):
        """The ranking reads the live dataset: a new neighbour is chosen
        right after its insertion and is gone right after its deletion,
        and every choice equals one over a fresh copy of the dataset."""
        ds = synthetic_dataset(n=40, dims=2, n_samples=2, seed=4)
        strategy = IncrementalSelection(kpartition=2, kglobal=30)
        obj = ds[ds.ids[0]]
        strategy.choose(obj, ds)
        new = make_obj(999, obj.mean + 40.0, half=1)
        ds.insert(new)
        cset = strategy.choose(obj, ds)
        assert 999 in cset.ids
        fresh = UncertainDataset(list(ds), domain=ds.domain)
        assert cset.ids.tolist() == strategy.choose(obj, fresh).ids.tolist()
        ds.delete(999)
        cset2 = strategy.choose(obj, ds)
        assert 999 not in cset2.ids
        fresh = UncertainDataset(list(ds), domain=ds.domain)
        assert cset2.ids.tolist() == strategy.choose(obj, fresh).ids.tolist()


class TestRanking:
    def test_ranks_each_dataset_it_is_given(self):
        """One strategy object serves unrelated datasets in turn."""
        ds1 = synthetic_dataset(n=20, dims=2, n_samples=2, seed=5)
        ds2 = synthetic_dataset(n=25, dims=2, n_samples=2, seed=6)
        strategy = FixedSelection(k=5)
        for ds in (ds1, ds2, ds1):
            obj = ds[ds.ids[0]]
            cset = strategy.choose(obj, ds)
            brute = sorted(
                (o for o in ds if o.oid != obj.oid),
                key=lambda o: float(np.sum((o.mean - obj.mean) ** 2)),
            )[:5]
            assert cset.ids.tolist() == [o.oid for o in brute]
            assert set(cset.ids.tolist()) <= set(ds.ids)

    @pytest.mark.parametrize("dims", [2, 3])
    def test_order_matches_rtree_browse(self, dims):
        """On tie-free data the numpy ranking is the R*-tree's
        distance-browsing order, and FS/IS pick what the tree-backed
        strategies picked."""
        ds = synthetic_dataset(n=120, dims=dims, u_max=400, n_samples=2,
                               seed=7 + dims)
        ref_is = RTreeIncrementalSelection(kpartition=4, kglobal=60)
        ref_fs = RTreeFixedSelection(k=25)
        new_is = IncrementalSelection(kpartition=4, kglobal=60)
        new_fs = FixedSelection(k=25)
        ids = np.asarray(ds.ids)
        for oid in ds.ids[:15]:
            obj = ds[oid]
            assert (
                ids[rank_by_mean(obj, ds)].tolist()
                == ref_is.browse(obj, ds)
            )
            for new, ref in ((new_is, ref_is), (new_fs, ref_fs)):
                got, want = new.choose(obj, ds), ref.choose(obj, ds)
                assert got.ids.tolist() == want.ids.tolist()
                assert np.array_equal(got.los, want.los)
                assert np.array_equal(got.his, want.his)
