"""The concurrent serving layer: server, sessions, worker threads.

:class:`UncertainDBServer` turns a :class:`~repro.api.Database` from
call-and-return into submit-and-serve: client threads open
:class:`Session` objects and submit the same seven query verbs, each
returning a :class:`~repro.service.future.QueryFuture` immediately.
Worker threads drain the :class:`~repro.service.scheduler.
CoalescingScheduler`, executing whole coalesced groups through the
database's single group-execution path (one plan probe + one batched
kernel dispatch per group) and applying mutations as exclusive epoch
barriers.

Consistency contract (tested differentially in
``tests/test_service_differential.py``):

* every read executes against exactly one dataset epoch and its
  future/result is tagged with it;
* a mutation submitted after a set of reads applies only once those
  reads completed, and reads submitted after it see the new epoch;
* answers are bit-identical to the same queries executed serially at
  the epochs the futures report.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Sequence

from ..analysis.locks import make_lock
from ..api.result import Q, QuerySpec
from .future import QueryFuture, QueryTimeout
from .scheduler import CoalescingScheduler, MutationWork, ReadGroup

__all__ = ["Session", "UncertainDBServer"]


class UncertainDBServer:
    """Worker threads + coalescing scheduler over one Database.

    Parameters
    ----------
    db:
        The :class:`~repro.api.Database` to serve.  While attached,
        the database's synchronous verbs also route through this
        server (one-shot sessions), so direct and session callers
        share one consistency domain.
    workers:
        Worker-thread count.  Workers execute whole groups; distinct
        query templates run concurrently (per-engine locks serialize
        only same-engine work).
    max_group:
        Upper bound on queries per coalesced dispatch (forwarded to
        the scheduler).

    The server is a context manager; :meth:`close` drains queued work
    and joins the workers.
    """

    def __init__(
        self,
        db: Any,
        *,
        workers: int = 2,
        max_group: int = 256,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.db = db
        self.scheduler = CoalescingScheduler(max_group=max_group)
        # Runtime import: repro.api.database imports this package, so
        # the kinds table is looked up lazily to keep imports acyclic.
        from ..api.database import _KINDS

        self._kinds = _KINDS
        self._closed = False
        self._close_lock = make_lock("server.close_lock")
        #: Recovery-action counters (see :meth:`recovery_snapshot`).
        self._recovery_lock = make_lock("server.recovery_lock")
        self._deadline_misses = 0
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"uncertaindb-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def session(self) -> Session:
        """A new client session over this server."""
        return Session(self)

    def submit(
        self,
        kind: str,
        query: Any,
        params: tuple[tuple[str, Any], ...] = (),
        retriever: str | None = None,
        deadline: float | None = None,
    ) -> QueryFuture:
        """Queue one read; returns its future immediately.

        Queued reads sharing ``(kind, params, retriever)`` — from any
        session, or from the database's synchronous verbs — coalesce
        into one batched dispatch.  ``deadline`` is an absolute
        ``time.monotonic()`` budget: a query still queued past it is
        failed with :class:`QueryTimeout` at dispatch instead of
        executing, and its future never blocks beyond it.
        """
        if kind not in self._kinds:
            raise KeyError(f"unknown query kind {kind!r}")
        return self.scheduler.submit_read(
            kind, query, params, retriever, deadline
        )

    def submit_mutation(self, op: str, payload: Any) -> QueryFuture:
        """Queue a mutation barrier (``op`` is ``insert``/``delete``)."""
        if op not in ("insert", "delete"):
            raise KeyError(f"unknown mutation {op!r}")
        return self.scheduler.submit_mutation(op, payload)

    @property
    def stats(self):
        """A snapshot of the scheduler's coalescing counters."""
        return self.scheduler.stats.snapshot()

    def recovery_snapshot(self) -> dict[str, int]:
        """Counters of recovery actions the serving layer has taken.

        The thread server only ever misses deadlines; the process-pool
        subclass extends this with retry / worker-restart counts.
        """
        with self._recovery_lock:
            return {
                "retries": 0,
                "worker_restarts": 0,
                "deadline_misses": self._deadline_misses,
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float | None = None) -> None:
        """Drain queued work, stop the workers, detach from the db.

        New submissions are refused immediately; everything already
        queued completes first (futures never dangle).  Idempotent —
        and every caller (not just the first) blocks until the drain
        finishes, which the database's ``SchedulerClosed`` fallbacks
        rely on before executing inline.
        """
        with self._close_lock:
            self._closed = True
        self.scheduler.close()
        for thread in self._threads:
            thread.join(timeout)
        detach = getattr(self.db, "_detach_server", None)
        if detach is not None:
            detach(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> UncertainDBServer:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "serving"
        return (
            f"UncertainDBServer({state}, workers={len(self._threads)}, "
            f"pending={self.scheduler.pending()})"
        )

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            work = self.scheduler.next_work()
            if work is None:
                return
            try:
                if isinstance(work, MutationWork):
                    self._apply_mutation(work)
                else:
                    self._execute_group(work)
            finally:
                self.scheduler.work_done(work)

    def _prune_expired(
        self, group: ReadGroup
    ) -> tuple[list[Any], list[QueryFuture]]:
        """Fail queued-past-deadline riders; return the live remainder.

        Queue-time expiry: a query whose deadline passed while it was
        still waiting for a worker is failed with
        :class:`QueryTimeout` (``phase="queued"``) *before* the group
        executes — it never touches the engine, so a backed-up queue
        sheds late work instead of compounding the backlog.
        """
        now = time.monotonic()
        live_queries: list[Any] = []
        live_futures: list[QueryFuture] = []
        expired = 0
        for query, future in zip(group.queries, group.futures):
            if future.deadline is not None and now >= future.deadline:
                from ..engine import ExecutionStats

                expired += 1
                future._set_exception(
                    QueryTimeout(
                        f"query {future.kind!r} expired after "
                        f"{now - future.submitted_at:.3f}s in queue",
                        kind=future.kind,
                        phase="queued",
                        waited_seconds=now - future.submitted_at,
                        stats=ExecutionStats(deadline_misses=1),
                    )
                )
            else:
                live_queries.append(query)
                live_futures.append(future)
        if expired:
            with self._recovery_lock:
                self._deadline_misses += expired
        return live_queries, live_futures

    def _execute_group(self, group: ReadGroup) -> None:
        queries, futures = self._prune_expired(group)
        if not futures:
            return
        try:
            results = self._run_group(
                group.kind, queries, group.params, group.forced
            )
        except BaseException as error:  # noqa: BLE001 - futures carry it
            for future in futures:
                future._set_exception(error)
            return
        for future, result in zip(futures, results):
            future._set_result(result, result.plan.epoch)

    def _run_group(
        self,
        kind: str,
        queries: list[Any],
        params: tuple[tuple[str, Any], ...],
        forced: str | None,
    ) -> list[Any]:
        """Execute one pruned group (overridden by the process pool)."""
        return self.db._execute_group(kind, queries, params, forced)

    def _apply_mutation(self, work: MutationWork) -> None:
        try:
            if work.op == "insert":
                value: Any = self.db._apply_insert(work.payload)
            else:
                value = self.db._apply_delete(work.payload)
        except BaseException as error:  # noqa: BLE001 - future carries it
            work.future._set_exception(error)
            return
        work.future._set_result(value, self.db.dataset.epoch)


class Session:
    """A client handle: the seven verbs, submit-and-serve style.

    Mirrors :class:`~repro.api.Database`'s query surface exactly —
    same names, same parameters, same planner treatment — but every
    verb returns a :class:`QueryFuture` at once instead of blocking.
    Mutations return futures too (epoch barriers; ``delete``'s future
    resolves to the removed object).

    Sessions are cheap, thread-compatible handles; open one per
    client thread.  Closing a session only refuses further submits —
    already-submitted futures complete normally.
    """

    def __init__(self, server: UncertainDBServer) -> None:
        self._server = server
        self._closed = False

    # -- reads ---------------------------------------------------------
    def nn(
        self,
        query: Any,
        *,
        retriever: str | None = None,
        timeout: float | None = None,
    ) -> QueryFuture:
        """Probabilistic NN (the paper's PNNQ) at a point."""
        return self._submit(Q.nn(query), retriever, timeout)

    def knn(
        self,
        query: Any,
        k: int = 1,
        *,
        retriever: str | None = None,
        timeout: float | None = None,
    ) -> QueryFuture:
        """Probabilistic k-NN at a point."""
        return self._submit(Q.knn(query, k), retriever, timeout)

    def topk(
        self,
        query: Any,
        k: int = 1,
        *,
        retriever: str | None = None,
        timeout: float | None = None,
    ) -> QueryFuture:
        """The k objects most likely to be the NN of ``query``."""
        return self._submit(Q.topk(query, k), retriever, timeout)

    def threshold(
        self,
        query: Any,
        p: float = 0.1,
        *,
        retriever: str | None = None,
        timeout: float | None = None,
    ) -> QueryFuture:
        """Which objects have qualification probability >= ``p``."""
        return self._submit(Q.threshold(query, p), retriever, timeout)

    def group_nn(
        self,
        queries: Any,
        aggregate: str = "sum",
        *,
        retriever: str | None = None,
        timeout: float | None = None,
    ) -> QueryFuture:
        """Group NN over a set of query points."""
        return self._submit(
            Q.group_nn(queries, aggregate), retriever, timeout
        )

    def reverse_nn(
        self, query_object: Any, *, timeout: float | None = None
    ) -> QueryFuture:
        """Objects that may have ``query_object`` as *their* NN."""
        return self._submit(Q.reverse_nn(query_object), None, timeout)

    def expected_nn(
        self,
        query: Any,
        top: int | None = None,
        *,
        retriever: str | None = None,
        timeout: float | None = None,
    ) -> QueryFuture:
        """Expected-distance NN ranking at a point."""
        return self._submit(Q.expected_nn(query, top), retriever, timeout)

    def batch(self, specs: Sequence[Any]) -> list[QueryFuture]:
        """Submit a block of :class:`~repro.api.QuerySpec` values."""
        self._check_open()
        return [
            self._server.submit(spec.kind, spec.query, spec.params)
            for spec in specs
        ]

    # -- mutations (epoch barriers) ------------------------------------
    def insert(self, obj: Any) -> QueryFuture:
        """Queue an insert barrier; the future resolves to ``None``."""
        self._check_open()
        return self._server.submit_mutation("insert", obj)

    def delete(self, oid: int) -> QueryFuture:
        """Queue a delete barrier; resolves to the removed object."""
        self._check_open()
        return self._server.submit_mutation("delete", oid)

    # ------------------------------------------------------------------
    def _submit(
        self,
        spec: QuerySpec,
        retriever: str | None,
        timeout: float | None = None,
    ) -> QueryFuture:
        self._check_open()
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive seconds")
        deadline = None if timeout is None else time.monotonic() + timeout
        return self._server.submit(
            spec.kind, spec.query, spec.params, retriever, deadline
        )

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def close(self) -> None:
        """Refuse further submissions from this session handle."""
        self._closed = True

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Session({state}, server={self._server!r})"
