"""The deterministic fault-injection harness and its storage wiring.

Covers the harness itself (trigger windows, wid scoping, seeded
coins, pickling semantics, arm/disarm) and the WAL / durable-store
hook points: an injected append failure aborts the mutation and heals
the log to the last record boundary, a torn append never hides later
records, and the ``on_wal_error="read_only"`` policy degrades the
store instead of failing hard.  Also the checkpoint-vs-close race
regression (both now serialize on one lock inside DurableStore).
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.api import Database
from repro.storage import DurableStore, StoreReadOnly, WriteAheadLog
from repro.testing import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    arm,
    check,
    disarm,
    injected,
)
from repro.testing.faults import active
from repro.uncertain import UncertainObject, synthetic_dataset, uniform_pdf


@pytest.fixture(autouse=True)
def _always_disarm():
    yield
    disarm()


def _make_obj(db: Database, oid: int, seed: int) -> UncertainObject:
    rng = np.random.default_rng(seed)
    region = db.dataset[db.dataset.ids[0]].region
    instances, weights = uniform_pdf(region, 4, rng)
    return UncertainObject(oid, region, instances, weights)


def _open_db(path, **kwargs) -> Database:
    ds = synthetic_dataset(n=24, dims=2, seed=13, n_samples=4)
    return Database.open(str(path), dataset=ds, indexes=(), **kwargs)


# ----------------------------------------------------------------------
# The harness itself
# ----------------------------------------------------------------------
def test_rule_validation_rejects_bad_values():
    with pytest.raises(ValueError, match="unknown fault action"):
        FaultRule("wal.append", "explode")
    with pytest.raises(ValueError, match="after must be"):
        FaultRule("wal.append", "eio", after=-1)
    with pytest.raises(ValueError, match="after must be"):
        FaultRule("wal.append", "eio", count=0)
    with pytest.raises(ValueError, match="probability"):
        FaultRule("wal.append", "eio", probability=0.0)


def test_unarmed_check_is_a_no_op():
    assert active() is None
    assert check("wal.append", epoch=1) is None


def test_arm_rejects_unregistered_sites():
    """A typo'd site used to arm successfully and then silently never
    fire — the chaos test "passed" while testing nothing."""
    from repro.testing import SITES

    plan = FaultPlan([FaultRule("wal.apend", "eio")])  # the typo
    with pytest.raises(ValueError, match="unregistered site"):
        arm(plan)
    assert active() is None  # nothing was armed
    assert "wal.append" in SITES and len(SITES) >= 6
    # Every registered site arms fine.
    arm(FaultPlan([FaultRule(site, "eio") for site in SITES]))
    disarm()


def test_trigger_window_fires_exactly_count_times_after_skip():
    plan = arm(FaultPlan([FaultRule("wal.append", "eio", after=2, count=2)]))
    outcomes = []
    for _ in range(6):
        try:
            check("wal.append")
            outcomes.append("ok")
        except FaultInjected:
            outcomes.append("eio")
    assert outcomes == ["ok", "ok", "eio", "eio", "ok", "ok"]
    assert [site for site, _, _ in plan.fired] == ["wal.append", "wal.append"]


def test_wid_scoping_only_counts_matching_hits():
    arm(FaultPlan([FaultRule("proc.chunk", "fail", wid=1)]))
    # Hits from other workers neither fire nor consume the window.
    for _ in range(3):
        assert check("proc.chunk", wid=0) is None
    with pytest.raises(FaultInjected):
        check("proc.chunk", wid=1)
    assert check("proc.chunk", wid=1) is None  # window consumed


def test_torn_rule_is_returned_to_the_caller():
    arm(FaultPlan([FaultRule("wal.append", "torn", arg=7)]))
    rule = check("wal.append", epoch=1)
    assert rule is not None and rule.action == "torn" and rule.arg == 7


def test_plan_pickles_schedule_but_not_runtime_state():
    plan = FaultPlan([FaultRule("wal.fsync", "eio")], seed=42)
    with injected(plan):
        with pytest.raises(FaultInjected):
            check("wal.fsync")
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.seed == 42 and clone.rules == plan.rules
    assert clone.fired == []  # counters replay from zero per process
    with injected(clone):
        with pytest.raises(FaultInjected):
            check("wal.fsync")


def test_seeded_probability_replays_identically():
    def schedule(plan: FaultPlan) -> list[bool]:
        fired = []
        with injected(plan):
            for _ in range(32):
                try:
                    check("durable.checkpoint")
                    fired.append(False)
                except FaultInjected:
                    fired.append(True)
        return fired

    rule = FaultRule("durable.checkpoint", "eio", count=32, probability=0.5)
    a = schedule(FaultPlan([rule], seed=7))
    b = schedule(FaultPlan([rule], seed=7))
    assert a == b
    assert any(a) and not all(a)  # the coin actually flips both ways


def test_injected_context_manager_disarms_on_exit():
    with injected(FaultPlan([FaultRule("proc.attach", "eio")])) as plan:
        assert active() is plan
    assert active() is None


# ----------------------------------------------------------------------
# WAL hook points
# ----------------------------------------------------------------------
def test_injected_append_failure_aborts_mutation_and_heals(tmp_path):
    db = _open_db(tmp_path / "db")
    try:
        n0, epoch0 = len(db.dataset), db.epoch
        with injected(FaultPlan([FaultRule("wal.append", "eio")])):
            with pytest.raises(OSError):
                db.insert(_make_obj(db, 70_001, 1))
        # Log-before-apply: the aborted mutation never touched memory.
        assert len(db.dataset) == n0 and db.epoch == epoch0
        # The log healed: the next mutation logs and applies cleanly.
        db.insert(_make_obj(db, 70_002, 2))
        assert db.epoch == epoch0 + 1
    finally:
        db.close()
    db2 = Database.open(str(tmp_path / "db"), indexes=())
    try:
        assert len(db2.dataset) == n0 + 1
        assert 70_002 in db2.dataset.ids and 70_001 not in db2.dataset.ids
    finally:
        db2.close()


def test_torn_append_never_hides_later_records(tmp_path):
    db = _open_db(tmp_path / "db")
    wal_path = db._durable.wal_path
    try:
        with injected(FaultPlan([FaultRule("wal.append", "torn", arg=9)])):
            with pytest.raises(OSError):
                db.insert(_make_obj(db, 70_010, 3))
        # The tear was truncated back to the record boundary: the file
        # scans clean, so records appended after it are all visible.
        _, _, damaged = WriteAheadLog.scan(wal_path)
        assert not damaged
        db.insert(_make_obj(db, 70_011, 4))
        records, _, damaged = WriteAheadLog.scan(wal_path)
        assert not damaged and len(records) == 1
    finally:
        db.close()


def test_fsync_fault_heals_the_written_record(tmp_path):
    db = _open_db(tmp_path / "db")
    wal_path = db._durable.wal_path
    try:
        with injected(FaultPlan([FaultRule("wal.fsync", "eio")])):
            with pytest.raises(OSError):
                db.insert(_make_obj(db, 70_020, 5))
        # The record was fully written but could not be made durable:
        # it must not survive in the log ahead of later appends.
        records, _, damaged = WriteAheadLog.scan(wal_path)
        assert records == [] and not damaged
    finally:
        db.close()


# ----------------------------------------------------------------------
# Read-only degradation (on_wal_error="read_only")
# ----------------------------------------------------------------------
def test_read_only_policy_degrades_instead_of_failing(tmp_path):
    db = _open_db(tmp_path / "db", on_wal_error="read_only")
    try:
        db.insert(_make_obj(db, 70_030, 6))  # accepted before the fault
        n_accepted, epoch_accepted = len(db.dataset), db.epoch
        with injected(FaultPlan([FaultRule("wal.append", "eio")])):
            with pytest.raises(StoreReadOnly):
                db.insert(_make_obj(db, 70_031, 7))
        # Degradation latches even with the plan disarmed.
        with pytest.raises(StoreReadOnly):
            db.insert(_make_obj(db, 70_032, 8))
        assert len(db.dataset) == n_accepted and db.epoch == epoch_accepted
        # Reads keep working; describe() reports the degradation.
        result = db.nn(np.asarray([500.0, 500.0]))
        assert result.answer is not None
        info = db.describe()
        assert info["degraded_mode"] is True
        with pytest.raises(StoreReadOnly):
            db.checkpoint()
    finally:
        db.close()  # skips the checkpoint, seals the store
    db2 = Database.open(str(tmp_path / "db"), indexes=())
    try:
        # Everything accepted before the fault recovered; nothing after.
        assert db2.epoch == epoch_accepted
        assert 70_030 in db2.dataset.ids
        assert 70_031 not in db2.dataset.ids
    finally:
        db2.close()


def test_fail_stop_policy_keeps_retrying(tmp_path):
    db = _open_db(tmp_path / "db")  # default on_wal_error="fail_stop"
    try:
        with injected(FaultPlan([FaultRule("wal.append", "eio")])):
            with pytest.raises(OSError):
                db.insert(_make_obj(db, 70_040, 9))
        # No latch: the next attempt logs and applies.
        db.insert(_make_obj(db, 70_041, 10))
        assert db.describe()["degraded_mode"] is False
    finally:
        db.close()


# ----------------------------------------------------------------------
# Checkpoint vs close: the satellite-2 race regression
# ----------------------------------------------------------------------
def test_concurrent_checkpoints_and_close_serialize(tmp_path):
    """A checkpoint racing ``close()`` (as a pool fence's checkpoint
    races ``Database.close()``) must serialize on the store's lock —
    no double WAL reset, no WAL closed under a checkpoint's feet."""
    path = str(tmp_path / "db")
    ds = synthetic_dataset(n=24, dims=2, seed=13, n_samples=4)
    store = DurableStore(path)
    store.initialize(ds)
    store.attach(ds)
    rng = np.random.default_rng(17)
    region = ds[ds.ids[0]].region
    for i in range(5):
        instances, weights = uniform_pdf(region, 4, rng)
        ds.insert(UncertainObject(80_000 + i, region, instances, weights))
    final_epoch = ds.epoch

    errors: list[BaseException] = []
    started = threading.Barrier(2)

    def churn() -> None:
        try:
            started.wait()
            for _ in range(200):
                try:
                    store.checkpoint()
                except StoreReadOnly:
                    raise
                except RuntimeError:
                    return  # closed mid-loop: the guarded path
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    thread = threading.Thread(target=churn)
    thread.start()
    started.wait()
    store.close()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert not errors, errors

    recovered = DurableStore(path).recover()
    assert recovered.epoch == final_epoch
    assert len(recovered) == len(ds)
