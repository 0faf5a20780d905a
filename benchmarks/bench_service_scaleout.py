"""Scale-out serving: process pool vs thread workers.

M concurrent sessions issue a clustered PNNQ workload against a large
dataset through ``db.serve()`` twice per worker count — once with the
thread tier (brute-force Step 1, parallelism limited by the GIL) and
once with the process tier (``mode="process"``: workers memory-map
one packed image of the instance store, kept in ``/dev/shm`` where the
platform has it, and run sharded scatter-gather Step 1, pruning MBR-dominated shards before
touching a single instance).  Queries are jittered object centers:
every query is distinct, so coalescing dedup and the result cache
(disabled anyway) cannot help either tier and the comparison isolates
execution, not reuse.

Writes ``benchmarks/results/BENCH_service_scaleout.json`` and
enforces the scale-out acceptance gate (also run by the CI perf-smoke
job):

* process-tier answers match thread-tier answers bit-for-bit;
* process QPS >= 1.8x thread QPS at 4 workers;
* the shard pruner actually pruned (counters are non-zero).

On single-core machines the win comes from shard pruning alone; on
multi-core machines process workers add true CPU parallelism on top.
The JSON records ``cpus`` so results are interpretable either way.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time

import numpy as np

from repro.api import Database
from repro.uncertain import clustered_dataset

RESULTS = pathlib.Path(__file__).parent / "results"

#: The acceptance bar: process QPS >= 1.8x thread QPS at 4 workers.
REQUIRED_SPEEDUP = 1.8

WORKER_COUNTS = (1, 2, 4)
GATE_WORKERS = 4

SMOKE = {"n_objects": 16_000, "n_samples": 8, "sessions": 4,
         "queries_per_session": 96, "repeats": 2}
FULL = {"n_objects": 24_000, "n_samples": 8, "sessions": 6,
        "queries_per_session": 128, "repeats": 3}


def make_db(n_objects: int, n_samples: int) -> Database:
    dataset = clustered_dataset(
        n=n_objects, dims=2, seed=5, n_samples=n_samples
    )
    # Cache off and no single-process indexes: the thread tier runs
    # brute-force Step 1, the process tier its sharded counterpart.
    return Database(dataset, indexes=(), result_cache_size=0)


def make_workload(
    db: Database, sessions: int, queries_per_session: int
) -> list[np.ndarray]:
    """Per-session arrays of distinct jittered object-center queries.

    Clustered centers keep the workload CPU-bound and prunable (most
    shards are MBR-dominated per query); the jitter keeps every query
    unique so in-flight dedup never fires.
    """
    ids, los, his = db.dataset.packed_regions()
    centers = (los + his) / 2.0
    workload = []
    for sid in range(sessions):
        rng = np.random.default_rng(900 + sid)
        pick = rng.integers(0, len(ids), size=queries_per_session)
        jitter = rng.normal(0.0, 5.0, size=(queries_per_session, 2))
        workload.append(
            np.clip(
                centers[pick] + jitter,
                db.dataset.domain.lo,
                db.dataset.domain.hi,
            )
        )
    return workload


def run_tier(params: dict, mode: str, workers: int):
    """One (mode, workers) cell: serve the whole workload, return QPS.

    The warm-up burst is large enough to scatter one coalesced group
    across every pool worker, so per-worker lazy initialisation
    (image attach, octree shard layout build) happens off the
    clock — the measurement is steady-state serving only.
    """
    db = make_db(params["n_objects"], params["n_samples"])
    workload = make_workload(
        db, params["sessions"], params["queries_per_session"]
    )
    options = {"workers": workers}
    if mode == "process":
        options["mode"] = "process"
    server = db.serve(**options)
    try:
        warm_session = server.session()
        warm = [warm_session.nn(q) for q in workload[0][:64]]
        for future in warm:
            future.result(timeout=300)

        answers = {}
        lock = threading.Lock()
        barrier = threading.Barrier(len(workload))

        def client(sid: int, queries: np.ndarray) -> None:
            session = server.session()
            barrier.wait(timeout=60)
            futures = [session.nn(q) for q in queries]
            resolved = [f.result(timeout=600) for f in futures]
            with lock:
                for qid, result in enumerate(resolved):
                    answers[(sid, qid)] = result

        threads = [
            threading.Thread(target=client, args=(sid, queries))
            for sid, queries in enumerate(workload)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=900)
        elapsed = time.perf_counter() - t0

        n_queries = params["sessions"] * params["queries_per_session"]
        assert len(answers) == n_queries, "lost answers"
        snapshot = getattr(server, "scaleout_snapshot", None)
        scaleout = snapshot() if snapshot is not None else {}
    finally:
        db.close()
    return n_queries / elapsed, answers, scaleout


def measure(params: dict) -> tuple[list[dict], dict]:
    """All (mode, workers) cells plus the bit-identity cross-check."""
    cells = []
    gate_answers: dict[str, dict] = {}
    for workers in WORKER_COUNTS:
        row: dict = {"workers": workers}
        for mode in ("thread", "process"):
            repeats = params["repeats"] if workers == GATE_WORKERS else 1
            best_qps, answers, scaleout = 0.0, None, {}
            for _ in range(repeats):
                qps, run_answers, run_scaleout = run_tier(
                    params, mode, workers
                )
                if qps > best_qps:
                    best_qps, answers, scaleout = (
                        qps, run_answers, run_scaleout
                    )
            row[f"{mode}_qps"] = best_qps
            if mode == "process":
                row["n_shards"] = scaleout.get("n_shards")
                row["shards_dispatched"] = scaleout.get(
                    "shards_dispatched"
                )
                row["shards_pruned"] = scaleout.get("shards_pruned")
            if workers == GATE_WORKERS:
                gate_answers[mode] = answers
        row["speedup"] = row["process_qps"] / row["thread_qps"]
        cells.append(row)

    # Bit-identity across tiers at the gate cell: the sharded
    # scatter-gather path must answer exactly like brute force.
    thread_answers = gate_answers["thread"]
    process_answers = gate_answers["process"]
    assert thread_answers.keys() == process_answers.keys()
    sharded_plans = 0
    for key, want in thread_answers.items():
        got = process_answers[key]
        assert dict(got.probabilities) == dict(want.probabilities), key
        sharded_plans += got.plan.retriever == "sharded"
    assert sharded_plans == len(process_answers), (
        "process tier did not run the sharded retriever"
    )
    gate = next(c for c in cells if c["workers"] == GATE_WORKERS)
    return cells, gate


def test_service_scaleout(profile, record_figure):
    from repro.bench.figures import FigureResult

    params = SMOKE if profile == "smoke" else FULL
    cells, gate = measure(params)

    RESULTS.mkdir(exist_ok=True)
    payload = {
        "benchmark": "service_scaleout",
        "profile": profile,
        "cpus": os.cpu_count(),
        "required_speedup": REQUIRED_SPEEDUP,
        "gate_workers": GATE_WORKERS,
        "params": params,
        "cells": cells,
    }
    (RESULTS / "BENCH_service_scaleout.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    result = FigureResult(
        figure="BENCH service scaleout",
        title="Thread workers vs process pool (PNNQ)",
        columns=(
            "workers", "thread_qps", "process_qps", "speedup",
            "shards", "dispatched", "pruned",
        ),
        notes=(
            "clustered jittered-center workload, result cache off; "
            "thread tier = brute Step 1, process tier = image attach + "
            f"sharded scatter-gather; cpus={os.cpu_count()}."
        ),
    )
    for cell in cells:
        result.add(
            workers=cell["workers"],
            thread_qps=cell["thread_qps"],
            process_qps=cell["process_qps"],
            speedup=cell["speedup"],
            shards=cell["n_shards"],
            dispatched=cell["shards_dispatched"],
            pruned=cell["shards_pruned"],
        )
    record_figure(result)

    assert gate["shards_pruned"] > 0, "shard pruner never pruned"
    assert gate["speedup"] >= REQUIRED_SPEEDUP, gate
