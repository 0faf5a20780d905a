"""Per-layer metrics and the per-read latency breakdown of a traced run.

Times come from the spans :class:`tracing.Tracer` recorded around each
layer's public functions, and from the counters the program already
exposes (``QueryResult.stats``, ``server.stats``,
``server.recovery_snapshot()``, the planner's cache counters).  Span medians
cover the measured phase only, except the set-up spans
(``core.pv_build``, ``storage.recover``), which cover every set-up.

A coalesced read waits for its whole group, so the group's execution
(and its stats delta) is on every rider's blocking path and is charged
to each of them in full.
"""

from __future__ import annotations

from typing import Any

from harness import median, percentile


def _spans(tracer: Any, name: str, window: tuple[float, float] | None):
    return [
        s for s in tracer.by_name(name)
        if window is None or window[0] <= s.start and s.end <= window[1]
    ]


def _med(tracer: Any, name: str, window: Any, scale: float) -> float:
    return median([s.seconds for s in _spans(tracer, name, window)]) * scale


def _delta(p: Any, section: str, key: str) -> float:
    if section not in p.after:
        return 0.0
    return p.after[section][key] - p.before[section][key]


def read_paths(p: Any, tracer: Any) -> list[dict[str, float]]:
    """Per read: latency and the self times along its blocking path (s)."""
    children: dict[int, list] = {}
    for s in tracer.spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    by_rid: dict[int, dict[str, Any]] = {}
    for s in tracer.spans:
        if s.name in ("client.read", "client.submit", "service.queue_wait"):
            by_rid.setdefault(s.rids[0], {})[s.name] = s
        elif s.name == "service.execute":
            for rid in s.rids:
                by_rid.setdefault(rid, {})[s.name] = s
    paths = []
    for op in p.log.of("read"):
        spans = by_rid.get(op.rid, {})
        st = op.result.stats
        path = {"latency": op.seconds}
        outer = spans.get("service.execute") or spans.get("client.read")
        if outer is None:
            continue
        inner = children.get(outer.sid, [])
        plan = sum(c.seconds for c in inner if c.name == "api.plan")
        engine = sum(c.seconds for c in inner if c.name == "engine.execute")
        or_, pc = st.object_retrieval, st.probability_computation
        gather, evals = st.kernel_gather_seconds, st.kernel_eval_seconds
        path.update({
            "api.plan": plan,
            "engine.step1": or_,
            "engine.step2_gather": gather,
            "engine.step2_eval": evals,
            "engine.step2_other": pc - gather - evals,
            "engine.self": engine - or_ - pc,
        })
        if outer.name == "service.execute":
            path["service.execute_self"] = outer.seconds - plan - engine
            submit = spans.get("client.submit")
            wait = spans.get("service.queue_wait")
            path["client.submit"] = submit.seconds if submit else 0.0
            path["service.queue_wait"] = wait.seconds if wait else 0.0
            covered = path["client.submit"] + path["service.queue_wait"] + (
                outer.seconds)
        else:
            path["api.self"] = outer.seconds - plan - engine
            covered = outer.seconds
        path["unattributed"] = op.seconds - covered
        paths.append(path)
    return paths


def breakdown(paths: list[dict[str, float]]) -> dict[str, Any]:
    """Mean path of the reads around the median latency (45th to 55th
    percentile), in ms; the components sum to the mean latency."""
    lat = [x["latency"] for x in paths]
    lo, hi = percentile(lat, 45), percentile(lat, 55)
    band = [x for x in paths if lo <= x["latency"] <= hi] or paths
    keys = sorted({k for x in band for k in x} - {"latency"})
    mean = {k: 1e3 * sum(x.get(k, 0.0) for x in band) / len(band)
            for k in keys}
    return {
        "reads_in_band": len(band),
        "latency_ms": 1e3 * sum(x["latency"] for x in band) / len(band),
        "components_ms": mean,
    }


def per_layer(p: Any, plain: Any, tracer: Any
              ) -> tuple[dict[str, float], dict[str, Any]]:
    """Every per-layer metric of the traced pass ``p`` (``plain`` is the
    untraced pass of the same run, for the tracing overhead)."""
    from harness import end_to_end

    w = p.span_window
    reads = p.log.of("read")
    writes = [op for op in p.log.of("write") if op.verb != "checkpoint"]
    stats = [op.result.stats for op in reads]
    unique = {id(s): s for s in stats}.values()
    queries = sum(s.queries for s in unique) or 1
    hits, misses = (a - b for a, b in zip(p.after["planner"],
                                          p.before["planner"]))
    paths = read_paths(p, tracer)
    shape = breakdown(paths)
    work = p.wl.counters(p.log)
    mutations = len(writes)
    traced_e2e = end_to_end(p.log, p.setup_times, p.rss)
    plain_e2e = end_to_end(plain.log, plain.setup_times, plain.rss)
    rest = shape["components_ms"].get("unattributed", 0.0)
    execute = {}
    for s in _spans(tracer, "service.execute", w):
        for rid in s.rids:
            execute[rid] = s.seconds
    metrics = {
        "api.plan_us": _med(tracer, "api.plan", w, 1e6),
        "api.plan_cache_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "api.overhead_us": 1e6 * median([
            op.seconds - op.result.stats.object_retrieval
            - op.result.stats.probability_computation for op in reads]),
        "engine.step1_us": 1e6 * median([s.object_retrieval for s in stats]),
        "engine.step2_gather_us": 1e6 * median(
            [s.kernel_gather_seconds for s in stats]),
        "engine.step2_eval_us": 1e6 * median(
            [s.kernel_eval_seconds for s in stats]),
        "engine.candidates_per_query": work["candidates"] / len(reads),
        "engine.reuse_ratio": sum(
            s.cache_hits + s.dedup_hits + s.memo_hits for s in unique
        ) / queries,
        "core.pv_build_s": _med(tracer, "core.pv_build", None, 1.0),
        "core.pv_insert_ms": _med(tracer, "core.pv_insert", w, 1e3),
        "core.pv_delete_ms": _med(tracer, "core.pv_delete", w, 1e3),
        "core.pv_candidates_us": _med(tracer, "core.pv_candidates", w, 1e6),
        "uncertain.store_apply_us": _med(
            tracer, "uncertain.store_apply", w, 1e6),
        "storage.recover_s": _med(tracer, "storage.recover", None, 1.0),
        "storage.wal_append_us": _med(tracer, "storage.wal_append", w, 1e6),
        "storage.checkpoint_ms": _med(tracer, "storage.checkpoint", w, 1e3),
        "storage.wal_bytes_per_mutation": p.wl.facts.get("wal_bytes", 0)
        / max(mutations, 1),
        "storage.stored_bytes_ratio": p.wl.facts.get(
            "stored_bytes_ratio", 0.0),
        "service.queue_wait_ms": _med(tracer, "service.queue_wait", w, 1e3),
        "service.execute_ms": 1e3 * median(
            [execute[op.rid] for op in reads if op.rid in execute]),
        "service.barrier_wait_ms": _med(
            tracer, "service.barrier_wait", w, 1e3),
        "service.coalesce_ratio": _delta(p, "server", "coalesced")
        / len(reads),
        "service.retries": _delta(p, "recovery", "retries"),
        "work.reads": len(reads),
        "work.writes": len(p.log.of("write")),
        "work.candidates": work["candidates"],
        "work.groups": _delta(p, "server", "groups_dispatched"),
        "work.wal_bytes": p.wl.facts.get("wal_bytes", 0),
        "trace.overhead_pct": 100.0 * (
            traced_e2e["read_p50_ms"] / plain_e2e["read_p50_ms"] - 1.0),
        "trace.unattributed_ms": rest,
        "trace.attributed_share": 1.0 - rest / shape["latency_ms"],
    }
    shape["overhead"] = {
        "read_p50_ms": [plain_e2e["read_p50_ms"], traced_e2e["read_p50_ms"]],
        "ops_per_s": [plain_e2e["ops_per_s"], traced_e2e["ops_per_s"]],
    }
    shape["self_time_ms"] = self_times(tracer, w)
    return metrics, shape


def self_times(tracer: Any, window: Any) -> dict[str, dict[str, float]]:
    """Median and total self time per span name (measured phase)."""
    selfs = tracer.self_times()
    out: dict[str, list[float]] = {}
    for s in tracer.spans:
        if window[0] <= s.start and s.end <= window[1]:
            out.setdefault(s.name, []).append(selfs[s.sid])
    return {
        name: {"n": len(v), "p50": 1e3 * median(v), "total": 1e3 * sum(v)}
        for name, v in sorted(out.items())
    }
