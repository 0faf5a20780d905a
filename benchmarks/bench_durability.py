"""Durability: WAL append throughput, checkpoint cost, replay speed.

Runs the insert/delete workload through a :class:`~repro.storage.
DurableStore` under both fsync policies, then times a cold recovery
(snapshot mmap + full WAL replay) and cross-checks that the recovered
dataset is bit-identical to the uninterrupted one — the same contract
the kill-and-recover oracle enforces under SIGKILL.

Writes ``benchmarks/results/BENCH_durability.json`` and enforces the
durability acceptance gate (also run by the CI perf-smoke job):

* recovery replays the WAL at >= 200 mutations/s (a deliberately
  generous floor — regressions of interest are order-of-magnitude,
  e.g. accidentally rebuilding an index per record);
* the recovered dataset matches the live one bit-for-bit (ids,
  epochs, instance and weight arrays, and a probe PNNQ answer).
"""

from __future__ import annotations

import json
import pathlib
import shutil
import time

import numpy as np

from repro.api import Database
from repro.geometry import Rect
from repro.storage import DurableStore
from repro.uncertain import UncertainObject, synthetic_dataset, uniform_pdf

RESULTS = pathlib.Path(__file__).parent / "results"

#: Floor on cold-recovery WAL replay speed, mutations per second.
REQUIRED_REPLAY_RATE = 200.0

SMOKE = {"n_objects": 2_000, "n_samples": 4, "mutations": 300}
FULL = {"n_objects": 8_000, "n_samples": 4, "mutations": 1_000}

_INSERT_BASE_OID = 1_000_000


def make_dataset(params: dict):
    return synthetic_dataset(
        n=params["n_objects"],
        dims=2,
        seed=17,
        n_samples=params["n_samples"],
    )


def apply_mutation(dataset, i: int) -> None:
    """Deterministic mutation ``i``: ~1/3 deletes, 2/3 fresh inserts."""
    rng = np.random.default_rng(40_000 + i)
    live = dataset.ids
    if rng.random() < 0.33 and len(live) > 2:
        dataset.delete(live[int(rng.integers(len(live)))])
        return
    lo = rng.uniform(500.0, 9_000.0, size=2)
    region = Rect(lo, lo + rng.uniform(20.0, 120.0, size=2))
    instances, weights = uniform_pdf(region, 4, rng)
    dataset.insert(
        UncertainObject(
            oid=_INSERT_BASE_OID + i,
            region=region,
            instances=instances,
            weights=weights,
        )
    )


def run_policy(tmp_path, params: dict, fsync: str) -> dict:
    """One fsync policy: WAL throughput, checkpoint cost, recovery."""
    n = params["mutations"]
    path = tmp_path / f"db-{fsync}"
    dataset = make_dataset(params)
    store = DurableStore(path, fsync=fsync)
    store.initialize(dataset)
    store.attach(dataset)

    t0 = time.perf_counter()
    for i in range(n):
        apply_mutation(dataset, i)
    wal_seconds = time.perf_counter() - t0
    store._wal.flush()  # fsync="off": make the tail durable for replay
    # Recover a copy: the live store holds the directory's single-writer
    # lock, so a second DurableStore on ``path`` raises StoreLocked.
    replica = tmp_path / f"db-{fsync}-replica"
    shutil.copytree(path, replica)

    t0 = time.perf_counter()
    recovered = DurableStore(replica).recover()
    recovery_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    checkpoint_epoch = store.checkpoint()
    checkpoint_seconds = time.perf_counter() - t0
    store.close()

    # Bit-identity: recovery reproduced the uninterrupted run exactly.
    assert recovered.epoch == dataset.epoch == checkpoint_epoch
    assert recovered.ids == dataset.ids
    for oid in dataset.ids:
        assert np.array_equal(
            recovered[oid].instances, dataset[oid].instances
        )
        assert np.array_equal(
            recovered[oid].weights, dataset[oid].weights
        )
    probe = [5_000.0, 5_000.0]
    want = Database(dataset).nn(probe)
    got = Database(recovered).nn(probe)
    assert dict(got.answer.probabilities) == dict(
        want.answer.probabilities
    )

    return {
        "fsync": fsync,
        "mutations": n,
        "wal_seconds": wal_seconds,
        "wal_mutations_per_s": n / wal_seconds,
        "checkpoint_seconds": checkpoint_seconds,
        "recovery_seconds": recovery_seconds,
        "replay_mutations_per_s": n / max(recovery_seconds, 1e-9),
    }


def test_durability(profile, record_figure, tmp_path):
    from repro.bench.figures import FigureResult

    params = SMOKE if profile == "smoke" else FULL
    rows = [
        run_policy(tmp_path, params, fsync)
        for fsync in ("off", "always")
    ]

    RESULTS.mkdir(exist_ok=True)
    payload = {
        "benchmark": "durability",
        "profile": profile,
        "required_replay_rate": REQUIRED_REPLAY_RATE,
        "params": params,
        "rows": rows,
    }
    (RESULTS / "BENCH_durability.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    result = FigureResult(
        figure="BENCH durability",
        title="WAL throughput, checkpoint cost, and replay speed",
        columns=(
            "fsync", "mutations", "wal_mutations_per_s",
            "checkpoint_seconds", "recovery_seconds",
            "replay_mutations_per_s",
        ),
        notes=(
            "snapshot mmap + contiguous WAL replay; bit-identity with "
            "the uninterrupted run is asserted per row."
        ),
    )
    for row in rows:
        result.add(**{k: row[k] for k in result.columns})
    record_figure(result)

    for row in rows:
        assert row["replay_mutations_per_s"] >= REQUIRED_REPLAY_RATE, (
            f"replay too slow under fsync={row['fsync']}: "
            f"{row['replay_mutations_per_s']:.0f} < {REQUIRED_REPLAY_RATE}"
        )
