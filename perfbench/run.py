"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload served-durable --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload untraced and then traced (one set-up each), and reports
the per-layer metrics plus the tracing overhead between the two.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it carry
the environment block and the run's details (sample counts, exact work
counters, the per-read latency breakdown).  The exit code is 0 only
when every correctness check and same-work guard held.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics (``--trace 0``), in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"), ("write_p50_ms", "ms"), ("write_p95_ms", "ms"),
    ("peak_rss_mb", "MB"), ("success_rate", "ratio"),
)

#: Per-layer metrics (``--trace 1``); a layer a workload bypasses
#: reports 0 there.
PER_LAYER = (
    ("api.plan_us", "us"), ("api.plan_cache_hit_ratio", "ratio"),
    ("api.overhead_us", "us"),
    ("engine.step1_us", "us"), ("engine.step2_gather_us", "us"),
    ("engine.step2_eval_us", "us"), ("engine.candidates_per_query", "count"),
    ("engine.reuse_ratio", "ratio"),
    ("core.pv_build_s", "s"), ("core.pv_insert_ms", "ms"),
    ("core.pv_delete_ms", "ms"), ("core.pv_candidates_us", "us"),
    ("uncertain.store_apply_us", "us"),
    ("storage.recover_s", "s"), ("storage.wal_append_us", "us"),
    ("storage.checkpoint_ms", "ms"), ("storage.wal_bytes_per_mutation", "B"),
    ("storage.stored_bytes_ratio", "ratio"),
    ("service.queue_wait_ms", "ms"), ("service.execute_ms", "ms"),
    ("service.barrier_wait_ms", "ms"), ("service.coalesce_ratio", "ratio"),
    ("service.retries", "count"),
    ("work.reads", "count"), ("work.writes", "count"),
    ("work.candidates", "count"), ("work.groups", "count"),
    ("work.wal_bytes", "B"),
    ("trace.overhead_pct", "%"), ("trace.unattributed_ms", "ms"),
    ("trace.attributed_share", "ratio"),
)


def _pin_threads() -> None:
    """One BLAS/OpenMP thread: the client and the server threads
    already share two cores, and a BLAS thread pool would make timings
    depend on how the OS interleaves them."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Pass:
    """One set-up + measured phase + checks of a workload."""

    def __init__(self, wl, log, setup_times, before, after, span_window,
                 error, rss) -> None:
        self.wl, self.log, self.setup_times = wl, log, setup_times
        self.before, self.after = before, after
        self.span_window, self.error, self.rss = span_window, error, rss


def _snapshot(db) -> dict:
    out = {"planner": (db.planner.cache_hits, db.planner.cache_misses)}
    server = db.server
    if server is not None:
        out["server"] = dict(vars(server.stats))
        out["recovery"] = dict(server.recovery_snapshot())
    return out


def run_pass(cls, args, tmp: str, tracer=None, setup_reps=None) -> Pass:
    """One pass; ``setup_reps`` overrides the workload's set-up count
    (the traced run needs no ``setup_s``, so it sets up once)."""
    from harness import (
        CheckFailed,
        LeakSentinel,
        RunLog,
        median,
        peak_rss_mb,
        probe_seconds,
    )

    os.makedirs(tmp)
    wl = cls(ROOT, args.seed, args.seconds, tmp)
    sentinel = LeakSentinel()
    error = None
    setup_times: list[float] = []
    before = after = {}
    log = RunLog(tracer=tracer)
    window = (0.0, 0.0)
    if tracer is not None:
        tracer.install()
    try:
        wl.prepare()
        state = None
        for _ in range(setup_reps or wl.setup_reps):
            if state is not None:
                wl.discard(state)
            probes = [probe_seconds() for _ in range(9)]
            t0 = time.perf_counter()
            state = wl.setup()
            setup_times.append(time.perf_counter() - t0)
            probes += [probe_seconds() for _ in range(9)]
            log.setup_probes.append(median(probes))
        before = _snapshot(state["db"])
        t0 = time.perf_counter()
        wl.measure(state, log)
        t1 = time.perf_counter()
        log.wall = t1 - t0
        window = (t0, t1)
        after = _snapshot(state["db"])
        try:
            wl.finish(state, log)
        except CheckFailed as exc:
            error = str(exc)
        # What a closed Database still holds while the client keeps a
        # reference to it (reported, not failed: a closed Database
        # stays usable, so its recovered dataset may keep its snapshot
        # mapped until the object is dropped).
        wl.facts["held_after_close"] = sentinel.held()
        del state
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        sentinel.verify()
    except CheckFailed as exc:
        error = error or str(exc)
    return Pass(wl, log, setup_times, before, after, window, error,
                peak_rss_mb())


def details(p: Pass) -> dict:
    """Sample counts, exact work counters and their fingerprint, plus
    the raw (not normalised) end-to-end figures and host factor."""
    from harness import PROBE_REFERENCE_S, end_to_end, median, tail_ok

    reads = len(p.log.of("read"))
    writes = len(p.log.of("write"))
    work = p.wl.counters(p.log)
    for key in ("wal_bytes", "acked_epoch", "checked"):
        if key in p.wl.facts:
            work[key] = p.wl.facts[key]
    served = {}
    if "server" in p.after:
        served = {k: p.after["server"][k] - p.before["server"][k]
                  for k in ("groups_dispatched", "coalesced", "barriers")}
    digest = hashlib.sha256(
        json.dumps(work, sort_keys=True).encode()).hexdigest()[:16]
    return {
        "workload": p.wl.name,
        "samples": {"reads": reads, "writes": writes,
                    "read_p95_has_10_beyond": tail_ok(reads, 95),
                    "write_p95_has_10_beyond": tail_ok(writes, 95)},
        "setup_times_s": p.setup_times,
        "raw": end_to_end(p.log, p.setup_times, p.rss, normalise=False),
        "host_factor": median([x for _, x in p.log.probes])
        / PROBE_REFERENCE_S,
        "work": work,
        "work_fingerprint": digest,
        "served": served,
        "held_after_close": p.wl.facts.get("held_after_close"),
        "error": p.error,
    }


def main(argv: list[str]) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    args = parse(argv)
    _pin_threads()
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from harness import emit, end_to_end, environment
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    try:
        reps = 1 if args.trace else None
        plain = run_pass(cls, args, os.path.join(tmp, "plain"),
                         setup_reps=reps)
        passes = [plain]
        if args.trace:
            from layers import per_layer
            from tracing import Tracer

            tracer = Tracer()
            traced = run_pass(cls, args, os.path.join(tmp, "traced"), tracer,
                              setup_reps=reps)
            passes.append(traced)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    emit({"env": environment(ROOT, argv, args.seed, args.workload,
                             plain.wl.params())})
    for p in passes:
        emit({"details": details(p)})
    if args.trace:
        metrics, breakdown = per_layer(traced, plain, tracer)
        out = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"trace-{args.workload}-s{args.seed}.jsonl")
        tracer.write(path)
        emit({"breakdown": breakdown,
              "spans_file": os.path.relpath(path, ROOT)})
        declared = PER_LAYER
        reported = traced
    else:
        metrics = end_to_end(plain.log, plain.setup_times, plain.rss)
        declared = END_TO_END
        reported = plain
    correct = all(p.error is None for p in passes)
    attempted = len(reported.log.ops)
    failed = attempted - len(reported.log.of("read")) - len(
        reported.log.of("write"))
    emit({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared},
    })
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
