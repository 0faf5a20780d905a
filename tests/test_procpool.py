"""Process-pool serving tier: image lifecycle, fences, death, cleanup.

Covers the pool's image plumbing end to end: export/map round trips
of the packed instance store, scatter-gather answers matching the
direct database bit-for-bit, mutation fences re-exporting the image
pool-wide, and — the regression this file exists for —
``Database.close()`` removing every pool image and directory and
terminating every worker even when a worker died mid-query.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from _leaks import pool_entries
from repro.api import Database
from repro.service import ProcessPoolServer, procpool
from repro.testing import FaultPlan, FaultRule
from repro.uncertain import (
    UncertainObject,
    attach_file,
    synthetic_dataset,
    uniform_pdf,
)


def _make_db(n: int = 60, **kwargs) -> Database:
    return Database(
        synthetic_dataset(n=n, dims=2, seed=21, n_samples=4), **kwargs
    )


def _export(ds, directory) -> tuple[str, int]:
    path = os.path.join(directory, "image.bin")
    return path, ds.instance_store().export_file(path)


# ----------------------------------------------------------------------
# Pool image: export / map round trip
# ----------------------------------------------------------------------
def test_shared_store_round_trip_is_bit_identical(tmp_path):
    ds = synthetic_dataset(n=40, dims=3, seed=7, n_samples=6)
    image = _export(ds, tmp_path)
    snapshot = procpool._map_image(image)
    rebuilt = snapshot.build_dataset()
    assert len(rebuilt) == len(ds)
    assert rebuilt.epoch == ds.epoch == image[1]
    ids_a, los_a, his_a = ds.packed_regions()
    ids_b, los_b, his_b = rebuilt.packed_regions()
    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(los_a, los_b)
    assert np.array_equal(his_a, his_b)
    for oid in ds.ids:
        assert np.array_equal(ds[oid].instances, rebuilt[oid].instances)
        assert np.array_equal(ds[oid].weights, rebuilt[oid].weights)
    block_a = ds.instance_store().gather(ds.ids[:5])
    block_b = rebuilt.instance_store().gather(ds.ids[:5])
    assert np.array_equal(block_a.instances, block_b.instances)
    assert np.array_equal(block_a.weights, block_b.weights)
    snapshot.close()


def test_shared_store_is_read_only_in_the_attacher(tmp_path):
    ds = synthetic_dataset(n=10, dims=2, seed=8, n_samples=3)
    rebuilt = attach_file(_export(ds, tmp_path)[0]).build_dataset()
    store = rebuilt.instance_store()
    with pytest.raises(RuntimeError, match="read-only"):
        store.apply_insert(None, 1)
    with pytest.raises(RuntimeError, match="read-only"):
        store.apply_delete(ds.ids[0], 1)


def test_stale_attach_is_refused_by_epoch_stamp(tmp_path):
    ds = synthetic_dataset(n=10, dims=2, seed=8, n_samples=3)
    path, epoch = _export(ds, tmp_path)
    with pytest.raises(ValueError, match="stale image attach"):
        procpool._map_image((path, epoch + 1))


def test_unlink_is_idempotent(tmp_path):
    ds = synthetic_dataset(n=10, dims=2, seed=8, n_samples=3)
    path, _ = _export(ds, tmp_path)
    procpool._remove(path)
    procpool._remove(path)  # second call: file already gone, no raise
    assert not os.path.exists(path)


# ----------------------------------------------------------------------
# Pool execution
# ----------------------------------------------------------------------
def test_process_pool_answers_match_direct_database():
    before = pool_entries()
    db = _make_db()
    reference = _make_db()
    try:
        db.serve(workers=2, mode="process")
        rng = np.random.default_rng(31)
        queries = rng.uniform(
            db.dataset.domain.lo, db.dataset.domain.hi, size=(12, 2)
        )
        for q in queries:
            got = db.nn(q)
            want = reference.nn(q, retriever="brute")
            assert dict(got.probabilities) == dict(want.probabilities)
            assert got.plan.retriever == "sharded"
        ranked = db.topk(queries[0], k=3)
        assert (
            ranked.answer.ranking
            == reference.topk(queries[0], k=3).answer.ranking
        )
    finally:
        db.close()
        reference.close()
    assert pool_entries() == before


def test_mutation_fence_reexports_the_segment():
    before = pool_entries()
    db = _make_db()
    try:
        server = db.serve(workers=2, mode="process")
        assert isinstance(server, ProcessPoolServer)
        first_image = db.explain("nn").scaleout["image"]
        rng = np.random.default_rng(32)
        target = rng.uniform(
            db.dataset.domain.lo, db.dataset.domain.hi, size=2
        )
        instances, weights = uniform_pdf(
            db.dataset[db.dataset.ids[0]].region, 4, rng
        )
        obj = UncertainObject(
            990001,
            db.dataset[db.dataset.ids[0]].region,
            instances,
            weights,
        )
        db.insert(obj)
        assert db.epoch == 1
        plan = db.explain("nn")
        assert plan.scaleout["image"] != first_image
        assert plan.scaleout["image_epoch"] == 1
        # The fence removed the epoch-0 image once every worker acked.
        assert not os.path.exists(first_image)
        # Post-fence reads see the inserted object.
        result = db.threshold(target, p=0.0)
        assert result.epoch == 1
        removed = db.delete(990001)
        assert removed.oid == 990001
        assert db.epoch == 2
    finally:
        db.close()
    assert pool_entries() == before


def test_forced_index_retriever_is_rejected_in_process_mode():
    db = _make_db()
    try:
        db.serve(workers=1, mode="process")
        q = np.asarray([500.0, 500.0])
        with pytest.raises(Exception, match="not available in process"):
            db.nn(q, retriever="pv")
    finally:
        db.close()


def test_scaleout_telemetry_reaches_stats_and_explain():
    db = _make_db(n=120)
    try:
        db.serve(workers=2, mode="process")
        rng = np.random.default_rng(33)
        queries = rng.uniform(
            db.dataset.domain.lo, db.dataset.domain.hi, size=(24, 2)
        )
        results = [db.nn(q) for q in queries]
        delta = results[0].stats
        assert delta.shards_dispatched > 0
        assert delta.worker_busy_seconds > 0.0
        scaleout = db.explain("nn").scaleout
        assert scaleout["mode"] == "process"
        assert scaleout["workers"] == 2
        assert scaleout["shards_dispatched"] > 0
        assert scaleout["shards_pruned"] >= 0
        assert any(
            float(v) > 0 for v in scaleout["worker_busy_seconds"].values()
        )
    finally:
        db.close()


# ----------------------------------------------------------------------
# Worker death and the close() regression
# ----------------------------------------------------------------------
def test_worker_death_retries_the_chunk_and_respawns():
    """A killed worker no longer fails the query: the chunk is
    re-dispatched to the respawned replacement (or runs inline) and
    the retry is counted on the result's stats and the pool's
    recovery snapshot."""
    db = _make_db()
    try:
        server = db.serve(workers=1, mode="process")
        q = np.asarray([500.0, 500.0])
        db.nn(q)  # warm: the worker has attached and served
        victim = server._procs[0]
        victim.proc.kill()
        victim.proc.join(10)
        healed = db.nn(q)
        reference = _make_db()
        try:
            want = reference.nn(q, retriever="brute")
        finally:
            reference.close()
        assert dict(healed.probabilities) == dict(want.probabilities)
        assert healed.stats.retries >= 1
        recovery = server.recovery_snapshot()
        assert recovery["retries"] >= 1
        assert recovery["worker_restarts"] >= 1
        # The pool respawned a replacement; service continues.
        again = db.nn(q)
        assert again.plan.retriever == "sharded"
    finally:
        db.close()


def _fresh_object(db: Database, oid: int) -> UncertainObject:
    rng = np.random.default_rng(oid)
    region = db.dataset[db.dataset.ids[0]].region
    instances, weights = uniform_pdf(region, 4, rng)
    return UncertainObject(oid, region, instances, weights)


def test_fence_worker_kill_is_leak_free_and_reentrant():
    """The satellite-1 regression: a worker killed mid-fence must not
    orphan the freshly exported image or wedge the fence.  The dead
    worker is respawned at the new epoch, the mutation succeeds, and
    a second fence runs cleanly afterwards."""
    before = pool_entries()
    db = _make_db()
    try:
        plan = FaultPlan([FaultRule("proc.fence", "kill", wid=0)])
        server = db.serve(
            workers=2,
            mode="process",
            fault_plan=plan,
            stall_timeout=10.0,
        )
        q = np.asarray([500.0, 500.0])
        db.nn(q)
        db.insert(_fresh_object(db, 990100))  # worker 0 dies mid-fence
        assert db.epoch == 1
        live = pool_entries() - before
        assert len(live) == 1, f"fence leaked pool directories: {live}"
        (pool_dir,) = live
        images = os.listdir(pool_dir)
        assert images == ["image-1.bin"], f"fence leaked images: {images}"
        assert server.recovery_snapshot()["worker_restarts"] >= 1
        result = db.threshold(q, p=0.0)
        assert result.epoch == 1
        db.delete(990100)  # re-entrancy: the next fence runs clean
        assert db.epoch == 2
    finally:
        db.close()
    assert pool_entries() == before


def test_close_unlinks_segments_even_after_worker_death():
    """The finally-path regression: a dead worker must not leak pool
    images or zombie processes through close()."""
    before = pool_entries()
    db = _make_db()
    server = db.serve(workers=2, mode="process")
    q = np.asarray([500.0, 500.0])
    db.nn(q)
    procs = list(server._procs)
    for handle in procs:
        handle.proc.kill()
    for handle in procs:
        handle.proc.join(10)
    db.close()
    assert pool_entries() == before, "pool images leaked"
    for handle in procs:
        assert not handle.proc.is_alive()
    # Respawned replacements (if any) are terminated too.
    for handle in server._procs:
        assert not handle.proc.is_alive()


def test_close_is_idempotent_and_serve_refuses_after_close():
    before = pool_entries()
    db = _make_db()
    db.serve(workers=1, mode="process")
    db.nn(np.asarray([500.0, 500.0]))
    db.close()
    db.close()
    with pytest.raises(RuntimeError, match="closed"):
        db.serve(workers=1, mode="process")
    assert pool_entries() == before


def test_unknown_serve_mode_is_rejected():
    db = _make_db()
    try:
        with pytest.raises(ValueError, match="unknown serve mode"):
            db.serve(workers=1, mode="fiber")
    finally:
        db.close()


def test_pool_without_dev_shm_serves_from_the_temp_directory(monkeypatch):
    """Where the platform has no ``/dev/shm``, the pool keeps its
    images in the default temp directory: same answers across a fence,
    nothing left behind."""
    real_isdir = os.path.isdir
    monkeypatch.setattr(
        os.path, "isdir",
        lambda path: path != "/dev/shm" and real_isdir(path),
    )
    before = pool_entries()
    db = _make_db()
    reference = _make_db()
    try:
        db.serve(workers=2, mode="process")
        image = db.explain("nn").scaleout["image"]
        pool_dir = os.path.dirname(image)
        assert os.path.dirname(pool_dir) == tempfile.gettempdir()
        rng = np.random.default_rng(34)
        queries = rng.uniform(
            db.dataset.domain.lo, db.dataset.domain.hi, size=(16, 2)
        )
        for epoch in (0, 1):
            assert db.epoch == epoch
            for q in queries:
                got = db.nn(q)
                want = reference.nn(q, retriever="brute")
                assert got.plan.retriever == "sharded"
                assert got.epoch == want.epoch == epoch
                assert dict(got.probabilities) == dict(want.probabilities)
            if epoch == 0:
                db.insert(_fresh_object(db, 990200))
                reference.insert(_fresh_object(reference, 990200))
        assert os.listdir(pool_dir) == ["image-1.bin"]
    finally:
        db.close()
        reference.close()
    assert not os.path.exists(pool_dir)
    assert pool_entries() == before
