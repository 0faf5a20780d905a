"""The shared OR→PC engine runtime.

Every query class in the library — PNNQ, k-PNN, top-k probable NN,
group NN, reverse NN, threshold (verifier) queries, expected-distance
NN — follows the same two-step shape the paper evaluates: *object
retrieval* (Step 1, "OR") through a pluggable retriever, then
*probability computation* (Step 2, "PC") on the retrieved candidates'
discrete pdfs.  :class:`BaseEngine` owns that template once:

* retriever resolution (PV-index / R-tree / UV-index / brute-force
  fallback) via :func:`~repro.engine.retrievers.resolve_retriever`;
* per-phase wall-clock timing and simulated page-I/O attribution into
  one shared :class:`~repro.engine.stats.ExecutionStats`;
* secondary-index pdf-fetch charging (Step-2 I/O);
* an optional LRU result cache;
* **thread safety** — a per-engine re-entrant lock serializes query
  execution, cache access, and epoch reconciliation, and the measured
  entry points (:meth:`BaseEngine.query_measured` /
  :meth:`BaseEngine.query_batch_measured`) return a result together
  with the exact :class:`ExecutionStats` delta of that execution even
  when several threads share one engine;
* a batched API — :meth:`BaseEngine.query_batch` — that deduplicates
  identical queries, runs Step 1 for the whole block through the
  retriever's ``candidates_batch`` where it has one (the sharded
  retriever, whose shard pruning pays off per block) and otherwise one
  query at a time, and hands whole candidate groups to vectorized
  Step-2 kernels;
* **epoch-aware invalidation** — every query entry point compares the
  dataset's mutation epoch against the epoch the engine last served at.
  On drift the result cache is flushed, and a retriever that
  advertises its own ``dataset_epoch`` but was not maintained through
  the mutation (e.g. the dataset was mutated directly rather than via
  ``index.insert``) is replaced by the exact brute-force fallback —
  stale answers are never served.

Subclasses implement only the hooks: :meth:`_compute` (their
probability-computation step) and, where profitable, vectorized
:meth:`_retrieve_batch` / :meth:`_compute_batch` overrides.
"""

from __future__ import annotations

import time
from typing import Any, Hashable, Sequence

import numpy as np

from ..analysis.locks import make_rlock
from ..storage.pager import IOStats
from ..uncertain import UncertainDataset
from .cache import _MISS, LRUCache
from .retrievers import Retriever, discover_pagers, resolve_retriever
from .stats import ExecutionStats

__all__ = ["BaseEngine"]


class BaseEngine:
    """Template engine: Step-1 retrieval, Step-2 computation, stats.

    Parameters
    ----------
    dataset:
        The uncertain database (pdf source for Step 2).
    retriever:
        Optional Step-1 index (PV-index, R-tree, UV-index, or anything
        implementing ``candidates``).  ``None`` falls back to the exact
        brute-force min-max filter.
    secondary:
        Optional secondary index (extensible hash table); when given,
        each candidate's pdf fetch is routed through it so Step-2 I/O
        is charged.
    result_cache_size:
        When positive, completed results are kept in an LRU cache keyed
        by the exact query and parameters; repeat queries are answered
        without touching either step.

    Results are shared, not copied: cache hits and batch-deduplicated
    positions return the *same* result object.  They are also
    *enforced* read-only — probability/decision mappings are
    :class:`~repro.engine.frozen.FrozenDict`, id lists are tuples, and
    stored query arrays are non-writeable — so sharing cannot be
    corrupted by a caller (copy with ``dict(...)``/``list(...)`` to
    modify).
    """

    def __init__(
        self,
        dataset: UncertainDataset,
        retriever: Retriever | None = None,
        *,
        secondary: Any = None,
        result_cache_size: int = 0,
    ) -> None:
        if not isinstance(dataset, UncertainDataset):
            raise TypeError(
                f"{type(self).__name__} requires an UncertainDataset as "
                f"its first argument (got {type(dataset).__name__!r})"
            )
        self.dataset = dataset
        self.retriever = resolve_retriever(dataset, retriever)
        #: True when the caller supplied an index (vs the fallback).
        self.has_index = retriever is not None
        self.secondary = secondary
        self.stats = ExecutionStats()
        self.result_cache: LRUCache | None = (
            LRUCache(result_cache_size) if result_cache_size else None
        )
        self._pagers = discover_pagers(self.retriever, secondary)
        self._dataset_epoch = getattr(dataset, "epoch", 0)
        #: Serializes query execution and stats bracketing on this
        #: engine so concurrent callers (the serving scheduler's worker
        #: threads) never interleave mid-query.  Re-entrant because the
        #: measured entry points wrap ``query``/``query_batch``, which
        #: re-acquire it inside ``_run``/``_run_batch`` — and because
        #: ``_sync_epoch`` may run under an outer bracket.
        self._lock = make_rlock("engine.lock")
        # A retriever built before mutations that bypassed it is stale
        # from the start — catch that here, not just on later drift.
        self._drop_stale_retriever()

    # ------------------------------------------------------------------
    # Hooks (subclasses override what differs from the default)
    # ------------------------------------------------------------------
    def _prepare(self, query: Any, params: dict) -> Any:
        """Normalize/validate one raw query before execution."""
        return np.asarray(query, dtype=np.float64)

    def _query_key(self, q: Any, params: dict) -> Hashable:
        """A hashable identity of (query, params) for cache and dedup."""
        return (q.tobytes(), tuple(sorted(params.items())))

    def _retrieve(self, q: Any, params: dict) -> list[int]:
        """Step 1: candidate ids for one prepared query."""
        return self.retriever.candidates(q)

    def _compute(self, q: Any, ids: list[int], params: dict) -> Any:
        """Step 2: the engine-specific result for one query."""
        raise NotImplementedError

    def _retrieve_batch(
        self, qs: list[Any], params: dict
    ) -> list[list[int]]:
        """Step 1 for a block of prepared queries.

        The default vectorizes through the retriever's
        ``candidates_batch`` when Step 1 is the plain retriever call,
        and otherwise loops :meth:`_retrieve`.
        """
        if type(self)._retrieve is BaseEngine._retrieve:
            batch = getattr(self.retriever, "candidates_batch", None)
            if batch is not None and all(
                isinstance(q, np.ndarray) and q.ndim == 1 for q in qs
            ):
                return batch(np.stack(qs))
        return [self._retrieve(q, params) for q in qs]

    def _compute_batch(
        self, qs: list[Any], ids_list: list[list[int]], params: dict
    ) -> list[Any]:
        """Step 2 for a block of queries (default: per-query loop)."""
        return [
            self._compute(q, ids, params)
            for q, ids in zip(qs, ids_list)
        ]

    # ------------------------------------------------------------------
    # Epoch-aware invalidation
    # ------------------------------------------------------------------
    def _sync_epoch(self) -> None:
        """Flush derived state when the dataset has mutated.

        Called on every query entry point.  On epoch drift the result
        cache is cleared (its entries describe the pre-mutation
        database).  A retriever that advertises the epoch it was
        maintained at (``dataset_epoch``) and lags the live epoch was
        bypassed by the mutation — e.g. ``dataset.insert``
        was called directly instead of ``index.insert`` — and is
        replaced by the exact brute-force fallback so no stale Step-1
        answer is ever served.  Retrievers without the attribute are
        trusted (backward compatibility for custom Step-1 sources).
        """
        epoch = getattr(self.dataset, "epoch", None)
        if epoch is None or epoch == self._dataset_epoch:
            return
        self._dataset_epoch = epoch
        if self.result_cache is not None:
            self.result_cache.clear()
        self.stats.invalidations += 1
        self._drop_stale_retriever()

    def _drop_stale_retriever(self) -> None:
        """Swap in the brute-force fallback if the retriever is stale.

        The secondary index travels with the retriever it came from
        (e.g. the PV-index's hash table, maintained by ``pv.insert``):
        once the retriever is distrusted, so are its pdf records —
        fetching a post-mutation object through it would fail.
        """
        epoch = getattr(self.dataset, "epoch", None)
        retriever_epoch = getattr(self.retriever, "dataset_epoch", None)
        if (
            epoch is None
            or retriever_epoch is None
            or retriever_epoch == epoch
        ):
            return
        self.retriever = resolve_retriever(self.dataset, None)
        self.has_index = False
        self.secondary = None
        self._pagers = discover_pagers(self.retriever)
        self.stats.retriever_fallbacks += 1

    # ------------------------------------------------------------------
    # Template methods
    # ------------------------------------------------------------------
    def query_measured(
        self, query: Any, **params: Any
    ) -> tuple[Any, ExecutionStats]:
        """One query plus the stats delta it produced, atomically.

        ``stats.capture()`` / ``delta_since`` bracketing around a bare
        ``query`` call is only correct single-threaded — a concurrent
        query on the same engine lands its counters inside the bracket.
        This entry point takes the engine lock around the whole
        bracket, so the serving layer (and :class:`repro.api.Database`)
        get per-execution deltas that are exact under concurrency.
        """
        with self._lock:
            before = self.stats.capture()
            result = self.query(query, **params)  # type: ignore[attr-defined]
            return result, self.stats.delta_since(before)

    def query_batch_measured(
        self, queries: Sequence[Any], **params: Any
    ) -> tuple[list, ExecutionStats]:
        """Batch variant of :meth:`query_measured` (one shared delta)."""
        with self._lock:
            before = self.stats.capture()
            results = self.query_batch(  # type: ignore[attr-defined]
                queries, **params
            )
            return results, self.stats.delta_since(before)

    def _run(self, query: Any, params: dict) -> Any:
        """Answer one query: cache → OR (timed) → PC (timed)."""
        with self._lock:
            return self._run_locked(query, params)

    def _run_locked(self, query: Any, params: dict) -> Any:
        self._sync_epoch()
        q = self._prepare(query, params)
        key: Hashable | None = None
        if self.result_cache is not None:
            key = self._query_key(q, params)
            hit = self.result_cache.get(key, _MISS)
            if hit is not _MISS:
                self.stats.cache_hits += 1
                self.stats.queries += 1
                return hit

        before = self._io_snapshot()
        t0 = time.perf_counter()
        ids = self._retrieve(q, params)
        t1 = time.perf_counter()
        mid = self._io_snapshot()
        self._charge_secondary(ids)
        result = self._compute(q, ids, params)
        t2 = time.perf_counter()
        after = self._io_snapshot()

        self.stats.add_or(t1 - t0, _io_delta(before, mid))
        self.stats.add_pc(t2 - t1, _io_delta(mid, after))
        self.stats.queries += 1
        if key is not None:
            self.result_cache.put(key, result)
        return result

    def _run_batch(self, queries: Sequence[Any], params: dict) -> list:
        """Answer a block of queries with dedup and batched OR/PC."""
        with self._lock:
            return self._run_batch_locked(queries, params)

    def _run_batch_locked(
        self, queries: Sequence[Any], params: dict
    ) -> list:
        self._sync_epoch()
        prepared = [self._prepare(q, params) for q in queries]
        n = len(prepared)
        results: list[Any] = [None] * n

        # Resolve LRU hits and collapse exact duplicates: each distinct
        # (query, params) key is executed once and fanned back out.
        # Counters are applied only once the batch completes, so a
        # query that raises mid-batch does not inflate the per-query
        # denominators (same contract as the single-query path).
        groups: dict[Hashable, list[int]] = {}
        cache_hits = 0
        for i, q in enumerate(prepared):
            key = self._query_key(q, params)
            if self.result_cache is not None:
                hit = self.result_cache.get(key, _MISS)
                if hit is not _MISS:
                    results[i] = hit
                    cache_hits += 1
                    continue
            groups.setdefault(key, []).append(i)
        if not groups:
            self.stats.batches += 1
            self.stats.queries += n
            self.stats.cache_hits += cache_hits
            return results

        reps = [members[0] for members in groups.values()]
        rep_qs = [prepared[i] for i in reps]

        before = self._io_snapshot()
        t0 = time.perf_counter()
        ids_list = self._retrieve_batch(rep_qs, params)
        t1 = time.perf_counter()
        mid = self._io_snapshot()
        for ids in ids_list:
            self._charge_secondary(ids)
        rep_results = self._compute_batch(rep_qs, ids_list, params)
        t2 = time.perf_counter()
        after = self._io_snapshot()

        for (key, members), result in zip(
            groups.items(), rep_results
        ):
            for i in members:
                results[i] = result
            if self.result_cache is not None:
                self.result_cache.put(key, result)

        self.stats.batches += 1
        self.stats.queries += n
        self.stats.cache_hits += cache_hits
        self.stats.dedup_hits += sum(
            len(members) - 1 for members in groups.values()
        )
        self.stats.add_or(t1 - t0, _io_delta(before, mid))
        self.stats.add_pc(t2 - t1, _io_delta(mid, after))
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _charge_secondary(self, ids: list[int]) -> None:
        """Route each candidate's pdf fetch through the secondary index."""
        if self.secondary is not None:
            for oid in ids:
                self.secondary.get(oid)

    def _io_snapshot(self) -> list[IOStats]:
        return [pager.stats.snapshot() for pager in self._pagers]

    def __repr__(self) -> str:
        retriever = type(self.retriever).__name__
        return (
            f"{type(self).__name__}(n={len(self.dataset)}, "
            f"retriever={retriever}, queries={self.stats.queries})"
        )


def _io_delta(
    before: list[IOStats], after: list[IOStats]
) -> IOStats:
    """Summed per-pager traffic between two snapshot lists."""
    out = IOStats()
    for b, a in zip(before, after):
        d = a.delta(b)
        out.reads += d.reads
        out.writes += d.writes
    return out
