"""Tests for the packed InstanceStore and its incremental maintenance."""

import numpy as np
import pytest

from repro import synthetic_dataset
from repro.geometry import Rect
from repro.uncertain import InstanceStore, UncertainDataset, UncertainObject


def _make_object(oid: int, rng, m: int | None = None) -> UncertainObject:
    m = m if m is not None else int(rng.integers(1, 9))
    center = rng.uniform(10.0, 90.0, 2)
    inst = center + rng.uniform(-3.0, 3.0, (m, 2))
    w = rng.uniform(0.1, 1.0, m)
    w /= w.sum()
    return UncertainObject(
        oid, Rect(inst.min(axis=0), inst.max(axis=0)), inst, w
    )


def _variable_dataset(seed: int, n: int = 10) -> UncertainDataset:
    rng = np.random.default_rng(seed)
    objs = [_make_object(oid, rng) for oid in range(n)]
    return UncertainDataset(objs, domain=Rect([-20, -20], [120, 120]))


class TestLayout:
    def test_packed_layout_matches_objects(self):
        ds = _variable_dataset(0)
        store = ds.instance_store()
        assert len(store) == len(ds)
        assert store.total_samples == sum(
            o.n_instances for o in ds
        )
        assert store.matches_dataset()
        # Offsets delimit each object's rows in slot order.
        offsets = store.offsets
        assert offsets[0] == 0
        assert offsets[-1] == store.total_samples
        for oid in ds.ids:
            slot = store.slot_of(oid)
            lo, hi = offsets[slot], offsets[slot + 1]
            np.testing.assert_array_equal(
                store.instances[lo:hi], ds[oid].instances
            )
            np.testing.assert_array_equal(
                store.weights[lo:hi], ds[oid].weights
            )

    def test_store_is_cached_on_the_dataset(self):
        ds = _variable_dataset(1)
        assert ds.instance_store() is ds.instance_store()

    def test_gather_uniform(self):
        ds = synthetic_dataset(n=12, dims=2, n_samples=7, seed=2)
        block = ds.instance_store().gather(ds.ids[:5])
        assert block.instances.shape == (5, 7, 2)
        assert block.uniform
        for i, oid in enumerate(ds.ids[:5]):
            np.testing.assert_array_equal(
                block.instances[i], ds[oid].instances
            )
            np.testing.assert_array_equal(
                block.weights[i], ds[oid].weights
            )

    def test_gather_padding_weighs_zero(self):
        ds = _variable_dataset(3)
        ids = ds.ids
        block = ds.instance_store().gather(ids)
        m_max = max(ds[oid].n_instances for oid in ids)
        assert block.instances.shape == (len(ids), m_max, 2)
        for i, oid in enumerate(ids):
            m = ds[oid].n_instances
            assert block.lengths[i] == m
            np.testing.assert_array_equal(
                block.instances[i, :m], ds[oid].instances
            )
            # Padding replicates the last row with weight exactly 0.
            assert (block.weights[i, m:] == 0.0).all()
            np.testing.assert_array_equal(
                block.instances[i, m:],
                np.broadcast_to(
                    ds[oid].instances[-1], (m_max - m, 2)
                ),
            )
            # Weight mass is exactly the object's.
            assert block.weights[i].sum() == pytest.approx(1.0)


class TestIncrementalMaintenance:
    def test_insert_matches_scratch_rebuild(self):
        ds = _variable_dataset(4)
        store = ds.instance_store()
        rng = np.random.default_rng(40)
        for oid in range(100, 106):
            ds.insert(_make_object(oid, rng))
            assert store.epoch == ds.epoch
            assert store.matches_dataset()

    def test_delete_matches_scratch_rebuild(self):
        ds = _variable_dataset(5, n=12)
        store = ds.instance_store()
        rng = np.random.default_rng(50)
        for _ in range(8):
            victim = int(rng.choice(ds.ids))
            ds.delete(victim)
            assert store.epoch == ds.epoch
            assert store.matches_dataset()
            assert victim not in [
                oid for oid in ds.ids
            ] and victim not in ds

    def test_interleaved_churn(self):
        ds = _variable_dataset(6, n=8)
        store = ds.instance_store()
        rng = np.random.default_rng(60)
        next_oid = 1000
        for step in range(40):
            if rng.random() < 0.5 or len(ds) <= 2:
                ds.insert(_make_object(next_oid, rng))
                next_oid += 1
            else:
                ds.delete(int(rng.choice(ds.ids)))
        assert store.matches_dataset()
        assert store.epoch == ds.epoch
        # Gathers reflect the live contents.
        ids = ds.ids[:5]
        block = store.gather(ids)
        for i, oid in enumerate(ids):
            m = ds[oid].n_instances
            np.testing.assert_array_equal(
                block.instances[i, :m], ds[oid].instances
            )

    def test_lazy_store_not_built_by_mutation(self):
        ds = _variable_dataset(7)
        rng = np.random.default_rng(70)
        # No store requested yet: mutations must not create one.
        ds.insert(_make_object(500, rng))
        assert ds._store is None
        store = ds.instance_store()
        assert store.matches_dataset()


class TestEpochInvalidation:
    def test_detached_store_raises_after_bypassed_mutation(self):
        ds = _variable_dataset(8)
        detached = InstanceStore(ds)  # standalone, not dataset-owned
        assert detached.gather(ds.ids[:2]).instances.shape[0] == 2
        ds.insert(_make_object(900, np.random.default_rng(80)))
        with pytest.raises(ValueError, match="stale"):
            detached.gather(ds.ids[:2])

    def test_detached_rows_raise_after_bypassed_mutation(self):
        ds = _variable_dataset(8)
        detached = InstanceStore(ds)
        detached.rows(ds.ids[:2])
        ds.insert(_make_object(902, np.random.default_rng(81)))
        with pytest.raises(ValueError, match="stale"):
            detached.rows(ds.ids[:2])

    def test_rows_are_the_packed_ranges_gather_pads(self):
        ds = _variable_dataset(11)
        store = ds.instance_store()
        ids = ds.ids[3:9]
        instances, weights, starts, lengths = store.rows(ids)
        block = store.gather(ids)
        np.testing.assert_array_equal(lengths, block.lengths)
        for i, oid in enumerate(ids):
            lo, hi = starts[i], starts[i] + lengths[i]
            np.testing.assert_array_equal(instances[lo:hi], ds[oid].instances)
            np.testing.assert_array_equal(weights[lo:hi], ds[oid].weights)
            np.testing.assert_array_equal(
                block.instances[i, : lengths[i]], instances[lo:hi]
            )

    def test_owned_store_never_goes_stale(self):
        ds = _variable_dataset(9)
        store = ds.instance_store()
        ds.insert(_make_object(901, np.random.default_rng(90)))
        block = store.gather([901])
        np.testing.assert_array_equal(
            block.instances[0, : ds[901].n_instances],
            ds[901].instances,
        )

    def test_engine_answers_track_mutations_through_store(self):
        # End to end: kernel answers over the maintained store equal
        # answers over a freshly-built dataset with the same contents.
        from repro.core import qualification_probabilities

        ds = _variable_dataset(10)
        ds.instance_store()  # build before the churn
        rng = np.random.default_rng(100)
        for oid in range(2000, 2004):
            ds.insert(_make_object(oid, rng))
        ds.delete(ds.ids[0])
        fresh = UncertainDataset(list(ds), domain=ds.domain)
        q = np.array([50.0, 50.0])
        ids = ds.ids[:8]
        a = qualification_probabilities(ds, ids, q)
        b = qualification_probabilities(fresh, ids, q)
        assert a.keys() == b.keys()
        for oid in a:
            assert a[oid] == pytest.approx(b[oid], abs=1e-12)
