"""The library's front door: a declarative uncertain-database session.

:class:`Database` owns an :class:`~repro.uncertain.UncertainDataset`
and everything derived from it — Step-1 indexes behind named handles
(``"pv"``, ``"rtree"``, ``"uv"``, plus the implicit ``"brute"``
fallback), one engine per (query class, retriever) pair, and a
cost-based :class:`~repro.api.planner.Planner` that picks the
retriever per query template.  Indexes are built lazily the first time
a plan selects them and maintained incrementally through
:meth:`insert` / :meth:`delete`; handles bypassed by a mutation are
dropped and rebuilt on next use, so a stale Step-1 answer is never
served.

    from repro.api import Database

    db = Database(synthetic_dataset(n=500, dims=2, seed=0))
    result = db.nn([5000.0, 5000.0])     # planned, executed, frozen
    result.best, result.probabilities    # the answer
    result.plan.retriever                # how it was answered
    print(db.explain("nn").describe())   # why

All seven query classes of the repository are one method each —
:meth:`nn`, :meth:`knn`, :meth:`topk`, :meth:`threshold`,
:meth:`group_nn`, :meth:`reverse_nn`, :meth:`expected_nn` — plus
:meth:`batch` for declarative blocks of
:class:`~repro.api.result.QuerySpec` values.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from ..analysis.locks import make_lock, make_rlock
from ..core import sekernel
from ..core import (
    ExpectedNNEngine,
    GroupNNEngine,
    KNNEngine,
    PNNQEngine,
    PVIndex,
    ReverseNNEngine,
    TopKEngine,
    VerifierEngine,
)
from ..engine import BaseEngine, BruteForceRetriever, CostEstimate
from ..rtree import RTreePNNQ
from ..service.scheduler import SchedulerClosed
from ..uncertain import UncertainDataset, UncertainObject
from ..uvindex import UVIndex
from .planner import Plan, Planner, PlanningError, STATIC_ESTIMATES
from .result import Q, QueryResult, QuerySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..service import Subscription, UncertainDBServer

__all__ = ["Database", "IndexHandle"]

#: Handle name meaning "no point retriever" (reverse NN's Step 1).
_NONE = "none"
#: Handle name of the index-free exact filter.
_BRUTE = "brute"


#: The engine class behind each query kind.
_KINDS: dict[str, type[BaseEngine]] = {
    "nn": PNNQEngine,
    "knn": KNNEngine,
    "topk": TopKEngine,
    "threshold": VerifierEngine,
    "group_nn": GroupNNEngine,
    "reverse_nn": ReverseNNEngine,
    "expected_nn": ExpectedNNEngine,
}


def _spec(kind: str, query: Any, params: Mapping[str, Any]) -> QuerySpec:
    """The spec ``kind``'s verb would build: its :class:`Q` constructor
    fills in the defaults (and maps ``threshold``'s ``p`` to ``tau``)."""
    if kind not in _KINDS:
        raise KeyError(f"unknown query kind {kind!r}")
    return getattr(Q, kind)(query, **params)


def _fixed_choice(
    kind: str, params: Mapping[str, Any], n: int
) -> tuple[str, str, CostEstimate | None, str] | None:
    """Kinds whose Step-1 source is not a cost decision.

    Returns ``(retriever, reason, estimate, cost_kind)``, or ``None``
    for a cost-based kind.  Each fixed kind gets its own ``cost_kind``
    observation bucket: these run structurally different Step-1
    filters than the cost-based variant of the same kind, so their
    measured timings must not calibrate it (e.g. the exact k>1 filter
    is far slower than the k=1 min-max pass both labelled "knn" would
    otherwise share).  The process pool's workers apply the same rule.
    """
    if kind == "reverse_nn":
        # Per-object domination test: one batched margin-bounds call
        # (Python + numpy) against every other region.
        estimate = CostEstimate(
            step1_us=30.0 + 18.0 * n,
            page_reads=0.0,
            candidates=float(max(1, n // 10)),
            source="static",
        )
        return (
            _NONE,
            "domination-based Step 1 over object regions; "
            "point retrievers do not apply",
            estimate,
            "reverse_nn",
        )
    if kind == "knn" and params.get("k", 1) > 1:
        return (
            _BRUTE,
            "k > 1 widens Step 1 to the exact k-th-maxdist filter "
            "over the whole database; indexes accelerate only k = 1",
            None,
            "knn:exact",
        )
    if kind == "group_nn" and params.get("aggregate") != "min":
        return (
            _BRUTE,
            "sum/max aggregates run the direct aggregate-bound "
            "filter; an index narrows only the min aggregate",
            None,
            "group_nn:direct",
        )
    return None


class IndexHandle:
    """One named, lazily built Step-1 index owned by a Database.

    Satisfies the planner's ``PlannableHandle`` protocol: before the
    index is built, :meth:`cost_estimate` answers from the static
    formulas in :data:`~repro.api.planner.STATIC_ESTIMATES`; once
    built, from the index's own calibrated ``cost_estimate()`` hook.
    """

    def __init__(
        self,
        name: str,
        dataset: UncertainDataset,
        builder: Callable[[UncertainDataset], Any],
        *,
        maintainable: bool,
    ) -> None:
        self.name = name
        self.dataset = dataset
        self.builder = builder
        self.maintainable = maintainable
        self.index: Any = None
        self.secondary: Any = None
        self._build_lock = make_lock("handle.build_lock")

    def cost_estimate(self) -> CostEstimate:
        if self.index is not None and hasattr(self.index, "cost_estimate"):
            return self.index.cost_estimate()
        return STATIC_ESTIMATES[self.name](
            len(self.dataset), self.dataset.dims
        )

    def ensure_built(self) -> Any:
        """The built index, constructing it on first use.

        Once-guarded: concurrent first touches from a cold database
        build exactly one index (double-checked under a per-handle
        lock; ``secondary`` is published before ``index`` becomes
        visible, so no reader ever sees a half-initialized handle).
        """
        index = self.index
        if index is None:
            with self._build_lock:
                index = self.index
                if index is None:
                    index = self.builder(self.dataset)
                    self.secondary = getattr(index, "secondary", None)
                    self.index = index
        return index

    def in_sync(self) -> bool:
        """Built and maintained through every dataset mutation."""
        return (
            self.index is not None
            and getattr(self.index, "dataset_epoch", None)
            == self.dataset.epoch
        )

    def drop(self) -> None:
        """Forget the built index (it will rebuild lazily if chosen)."""
        self.index = None
        self.secondary = None

    def __repr__(self) -> str:
        state = "built" if self.index is not None else "lazy"
        return f"IndexHandle({self.name!r}, {state})"


class Database:
    """A query session over one uncertain dataset.

    Parameters
    ----------
    dataset:
        The uncertain database.  The Database takes ownership of its
        derived state: mutate through :meth:`insert` / :meth:`delete`
        (direct ``dataset.insert`` still cannot corrupt answers — the
        epoch machinery drops every bypassed index — but wastes the
        incremental-maintenance work).
    indexes:
        Which index handles the planner may choose from, in addition
        to the always-available exact brute-force filter.  Handles
        whose index cannot serve this dataset (the UV-index off 2D)
        are ignored.
    result_cache_size:
        Forwarded to every engine (see :class:`~repro.engine.BaseEngine`).

    A Database is a context manager (``with Database(ds) as db: ...``);
    :meth:`close` drains any attached server and releases derived
    state.  For concurrent clients, :meth:`serve` attaches the
    submit-and-serve layer (:mod:`repro.service`): sessions submit the
    same seven verbs and receive :class:`~repro.service.QueryFuture`
    values, while the scheduler coalesces same-template queries into
    batched kernel dispatches and serializes mutations as epoch
    barriers.
    """

    def __init__(
        self,
        dataset: UncertainDataset,
        *,
        indexes: Sequence[str] = ("pv", "rtree", "uv"),
        result_cache_size: int = 128,
        planner: Planner | None = None,
    ) -> None:
        self.dataset = dataset
        self.result_cache_size = result_cache_size
        self.planner = planner or Planner()
        self._handles: dict[str, IndexHandle] = {}
        for name in indexes:
            handle = self._make_handle(name)
            if handle is not None:
                self._handles[name] = handle
        self._handles[_BRUTE] = IndexHandle(
            _BRUTE,
            dataset,
            lambda ds: BruteForceRetriever(ds),
            maintainable=False,
        )
        self._engines: dict[tuple[str, str], BaseEngine] = {}
        self._epoch_seen = dataset.epoch
        #: Guards planning, handle, and engine-table bookkeeping so
        #: concurrent callers (direct threads or the serving layer's
        #: workers) see consistent derived state.  Engine *execution*
        #: happens outside this lock, under each engine's own lock —
        #: different query kinds run concurrently.
        self._lock = make_rlock("db.lock")
        #: Serializes mutation apply + subscription pump as one unit
        #: (re-entrant: the mutating thread pumps under it).  Held
        #: *around* ``_lock``, never acquired while holding it — pump
        #: re-executions take engine locks that readers hold while
        #: waiting on ``_lock``.
        self._mutation_order = make_rlock("db.mutation_order")
        self._server: "UncertainDBServer | None" = None
        self._subscriptions: Any = None  # SubscriptionManager, lazy
        self._durable: Any = None  # DurableStore when opened via open()
        self._closed = False

    @classmethod
    def from_objects(
        cls,
        objects: Iterable[UncertainObject],
        domain=None,
        **kwargs: Any,
    ) -> "Database":
        """Build a session directly from uncertain objects."""
        return cls(UncertainDataset(objects, domain=domain), **kwargs)

    @classmethod
    def open(
        cls,
        path: str,
        *,
        dataset: UncertainDataset | None = None,
        fsync: str = "always",
        on_wal_error: str = "fail_stop",
        **kwargs: Any,
    ) -> "Database":
        """Open (or create) a durable database directory.

        When ``path`` already holds a database (``snapshot.bin``), the
        dataset is recovered — the snapshot is memory-mapped and the
        write-ahead log written since it replayed on top, restoring the
        exact mutation epoch of the crashed or closed session.  A
        directory whose snapshot has another layout version (written
        before this release's format) is refused with ``ValueError``.
        Indexes rehydrate lazily through the normal :class:`IndexHandle`
        machinery the first time a plan selects them.  Otherwise
        ``dataset`` seeds a fresh directory.

        From then on every :meth:`insert` / :meth:`delete` appends a
        checksummed WAL record *before* it applies (the mutation epoch
        is the log sequence number), so a SIGKILL at any moment loses
        nothing under ``fsync="always"`` and at most the unsynced tail
        under ``fsync="off"``.  :meth:`checkpoint` syncs the log (and
        merges it into a fresh snapshot once it has grown past the
        bound); :meth:`close` checkpoints and seals the directory.

        ``on_wal_error`` picks the WAL write-failure policy (see
        :class:`~repro.storage.DurableStore`): ``"fail_stop"`` re-raises
        the I/O error per mutation; ``"read_only"`` degrades the store
        — mutations raise :class:`~repro.storage.StoreReadOnly` while
        reads keep being served, and :meth:`describe` reports
        ``degraded_mode``.

        Remaining keyword arguments go to the :class:`Database`
        constructor.
        """
        from ..storage.durable import DurableStore

        store = DurableStore(path, fsync=fsync, on_wal_error=on_wal_error)
        if DurableStore.exists(path):
            if dataset is not None:
                raise ValueError(
                    f"{path} already holds a database; open it without "
                    "a dataset (the snapshot + WAL define the contents)"
                )
            dataset = store.recover()
        else:
            if dataset is None:
                raise ValueError(
                    f"{path} is empty; a dataset is required to create "
                    "a new durable database"
                )
            store.initialize(dataset)
        store.attach(dataset)
        db = cls(dataset, **kwargs)
        db._durable = store
        return db

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The dataset's mutation epoch."""
        return self.dataset.epoch

    @property
    def dims(self) -> int:
        """Dimensionality of the attribute space."""
        return self.dataset.dims

    @property
    def built_indexes(self) -> tuple[str, ...]:
        """Names of handles whose index is currently built (stale
        handles are reconciled first, like every other entry point)."""
        with self._lock:
            self._sync()
            return tuple(
                name
                for name, handle in self._handles.items()
                if handle.index is not None
            )

    def index(self, name: str) -> Any:
        """The named index, building it if needed (power-user escape
        hatch; ``"brute"`` returns the exact fallback retriever)."""
        with self._lock:
            self._sync()
            handle = self._handles.get(name)
            if handle is None:
                raise KeyError(
                    f"unknown or ineligible index {name!r} "
                    f"(available: {sorted(self._handles)})"
                )
        return handle.ensure_built()

    def __len__(self) -> int:
        return len(self.dataset)

    def __repr__(self) -> str:
        return (
            f"Database(n={len(self.dataset)}, dims={self.dims}, "
            f"epoch={self.epoch}, built={list(self.built_indexes)})"
        )

    # ------------------------------------------------------------------
    # The declarative query surface
    # ------------------------------------------------------------------
    def nn(
        self,
        query: Any,
        *,
        retriever: str | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Probabilistic NN (the paper's PNNQ) at a point.

        ``timeout`` (seconds) is the query's time budget on a served
        database: it bounds queue time (an expired query is failed at
        dispatch without executing) and result wait (the call raises
        :class:`~repro.service.QueryTimeout` instead of blocking past
        it).  Unserved, execution is inline and uninterruptible, so
        the budget is advisory only.
        """
        return self._execute(Q.nn(query), retriever, timeout)

    def knn(
        self,
        query: Any,
        k: int = 1,
        *,
        retriever: str | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Probabilistic k-NN at a point."""
        return self._execute(Q.knn(query, k), retriever, timeout)

    def topk(
        self,
        query: Any,
        k: int = 1,
        *,
        retriever: str | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """The k objects most likely to be the NN of ``query``."""
        return self._execute(Q.topk(query, k), retriever, timeout)

    def threshold(
        self,
        query: Any,
        p: float = 0.1,
        *,
        retriever: str | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Which objects have qualification probability >= ``p``."""
        return self._execute(Q.threshold(query, p), retriever, timeout)

    def group_nn(
        self,
        queries: Any,
        aggregate: str = "sum",
        *,
        retriever: str | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Group NN over a set of query points."""
        return self._execute(
            Q.group_nn(queries, aggregate), retriever, timeout
        )

    def reverse_nn(
        self,
        query_object: UncertainObject,
        *,
        timeout: float | None = None,
    ) -> QueryResult:
        """Objects that may have ``query_object`` as *their* NN."""
        return self._execute(Q.reverse_nn(query_object), None, timeout)

    def expected_nn(
        self,
        query: Any,
        top: int | None = None,
        *,
        retriever: str | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Expected-distance NN ranking at a point."""
        return self._execute(Q.expected_nn(query, top), retriever, timeout)

    def batch(
        self,
        specs: Sequence[QuerySpec],
        *,
        retriever: str | None = None,
    ) -> list[QueryResult]:
        """Execute a declarative block of queries.

        Specs sharing a (kind, parameters) template are planned once
        and executed through the engine's ``query_batch`` — inheriting
        its dedup, batched Step 1 and vectorized Step 2 — and
        results return in input order.  Each envelope in a group
        carries the same :class:`~repro.engine.ExecutionStats` delta
        (batched work is not separable per query).

        On a served database the specs are submitted through the
        scheduler (where they may coalesce with other sessions'
        in-flight queries) and this call blocks until all complete.
        """
        server = self._server
        if server is not None:
            futures = []
            try:
                for spec in specs:
                    futures.append(
                        server.submit(
                            spec.kind, spec.query, spec.params, retriever
                        )
                    )
            except SchedulerClosed:
                # Server shut down mid-submission.  The accepted
                # futures still complete (drain guarantee) — wait for
                # the drain, harvest them, and run only the rejected
                # remainder inline.  Nothing executes twice.
                server.close()
            if len(futures) == len(specs):
                return [future.result() for future in futures]
            head = [future.result() for future in futures]
            return head + self._batch_direct(
                list(specs[len(futures):]), retriever
            )
        return self._batch_direct(list(specs), retriever)

    def _batch_direct(
        self,
        specs: Sequence[QuerySpec],
        retriever: str | None,
    ) -> list[QueryResult]:
        """The unserved :meth:`batch` path: group and execute inline."""
        results: list[QueryResult | None] = [None] * len(specs)
        groups: dict[tuple[str, tuple], list[int]] = {}
        for i, spec in enumerate(specs):
            if spec.kind not in _KINDS:
                raise KeyError(f"unknown query kind {spec.kind!r}")
            groups.setdefault((spec.kind, spec.params), []).append(i)
        for (kind, params), positions in groups.items():
            envelopes = self._execute_group(
                kind, [specs[i].query for i in positions], params, retriever
            )
            for i, envelope in zip(positions, envelopes):
                results[i] = envelope
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def explain(
        self,
        kind: str | QuerySpec,
        *,
        retriever: str | None = None,
        **params: Any,
    ) -> Plan:
        """The plan the next query of this template would execute with.

        Accepts a kind name plus its parameters (``db.explain("knn",
        k=3)``; omitted ones take the verb's defaults, so
        ``db.explain(kind)`` is the plan of ``getattr(db, kind)(q)``)
        or a ready :class:`QuerySpec`.  Pure planning: no query runs
        and no index is built.

        On a process-served database the returned plan additionally
        carries the pool's scale-out telemetry in ``plan.scaleout``
        (workers, shard counts, scatter/prune counters, per-worker
        busy seconds); the planner's cached plans stay bare.
        """
        with self._lock:
            self._sync()
            spec = (
                kind if isinstance(kind, QuerySpec)
                else _spec(kind, None, params)
            )
            plan = self._plan(spec.kind, spec.params, forced=retriever)
        snapshot = getattr(self._server, "scaleout_snapshot", None)
        if snapshot is not None:
            plan = dataclasses.replace(plan, scaleout=snapshot())
        return plan

    def _plan(
        self,
        kind: str,
        params: tuple[tuple[str, Any], ...],
        forced: str | None,
    ) -> Plan:
        if kind not in _KINDS:
            raise KeyError(f"unknown query kind {kind!r}")
        fixed = _fixed_choice(kind, dict(params), len(self.dataset))
        return self.planner.plan(
            kind=kind,
            params=params,
            epoch=self.dataset.epoch,
            handles=list(self._handles.values()),
            forced=forced,
            fixed=fixed,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(
        self,
        spec: QuerySpec,
        retriever: str | None,
        timeout: float | None = None,
    ) -> QueryResult:
        """One query through the front door.

        On a served database this is a thin one-shot session: the
        query is submitted to the coalescing scheduler (where it may
        ride a batched kernel dispatch with other sessions' queries)
        and this call blocks on its future — never past ``timeout``
        seconds when one is given (the deadline rides the future).
        Unserved, it runs the same group-execution path inline with a
        single-element group.
        """
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive seconds")
        server = self._server
        if server is not None:
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            try:
                return server.submit(
                    spec.kind, spec.query, spec.params, retriever, deadline
                ).result()
            except SchedulerClosed:
                # Server shut down mid-call.  Wait for its queue to
                # drain fully (close() is idempotent and joins the
                # workers) before running inline — an inline execution
                # overlapping the drain would break the barrier
                # contract the scheduler enforces.
                server.close()
        return self._execute_group(
            spec.kind, [spec.query], spec.params, retriever
        )[0]

    def _execute_group(
        self,
        kind: str,
        queries: Sequence[Any],
        params: tuple[tuple[str, Any], ...],
        retriever: str | None,
    ) -> list[QueryResult]:
        """Plan once and execute one coalesced (kind, params) group.

        The single execution path beneath the synchronous verbs,
        :meth:`batch`, and the serving scheduler's dispatch.  Planning
        and bookkeeping run under the database lock; the engine call
        itself runs outside it (under the engine's own lock), so
        groups of different kinds execute concurrently.
        """
        with self._lock:
            self._sync()
            plan = self._plan(kind, params, forced=retriever)
        # Outside the database lock: a cold plan may build its index
        # here (once-guarded per handle), and the engine call runs
        # under the engine's own lock — other templates keep planning
        # and executing meanwhile.
        engine = self._engine_for(kind, plan.retriever)
        kwargs = dict(params)
        if len(queries) == 1:
            answer, delta = engine.query_measured(queries[0], **kwargs)
            answers = [answer]
        else:
            answers, delta = engine.query_batch_measured(
                list(queries), **kwargs
            )
        with self._lock:
            self._observe(plan, delta)
        return [
            QueryResult(kind=kind, answer=answer, plan=plan, stats=delta)
            for answer in answers
        ]

    def _observe(self, plan: Plan, delta) -> None:
        """Feed real per-step wall-clock back into the planner."""
        executed = delta.queries - delta.cache_hits - delta.dedup_hits
        if executed <= 0:
            return
        if plan.retriever != _NONE:
            self.planner.observe(
                plan.retriever,
                plan.cost_kind,
                delta.object_retrieval / executed,
            )
        # Step 2 is retriever-independent; its observed cost (with the
        # kernel's gather/eval split) calibrates the shared term of
        # every retriever's score and shows up in ``db.explain``.
        self.planner.observe_step2(
            plan.cost_kind,
            delta.probability_computation / executed,
            delta.kernel_gather_seconds / executed,
            delta.kernel_eval_seconds / executed,
        )

    def _engine_for(self, kind: str, retriever_name: str) -> BaseEngine:
        """The cached engine for a (kind, retriever) pair.

        A cold pair's index build runs *outside* the database lock —
        the per-handle once-guard serializes concurrent builders, so a
        slow PV build never blocks planning of other templates.  Only
        the dict probes and the engine registration hold ``_lock``.
        """
        key = (kind, retriever_name)
        with self._lock:
            engine = self._engines.get(key)
            if engine is not None:
                return engine
            handle = (
                None
                if retriever_name in (_NONE, _BRUTE)
                else self._handles[retriever_name]
            )
        index, secondary = None, None
        freshly_built = False
        if handle is not None:
            freshly_built = handle.index is None
            index = handle.ensure_built()
            secondary = handle.secondary
        with self._lock:
            engine = self._engines.get(key)
            if engine is not None:
                return engine
            if freshly_built:
                # The index's calibrated cost_estimate() now
                # supersedes the static formula: revisit plans.
                self.planner.bump_generation()
            engine = _KINDS[kind](
                self.dataset,
                index,
                secondary=secondary,
                result_cache_size=self.result_cache_size,
            )
            self._engines[key] = engine
            return engine

    # ------------------------------------------------------------------
    # Mutation: incremental maintenance behind the session
    # ------------------------------------------------------------------
    def insert(self, obj: UncertainObject) -> None:
        """Add an object, maintaining one built index incrementally.

        The first in-sync maintainable index (PV preferred, then UV)
        absorbs the mutation — dataset and index evolve together, as
        in the paper's Section VI-B.  Every other built index is left
        one epoch behind by that single mutation and therefore dropped
        (rebuilt lazily if the planner picks it again); the plan cache
        is invalidated so the next query replans.

        On a served database the mutation is submitted as an **epoch
        barrier**: every read queued before it completes first (at the
        pre-mutation epoch), then the mutation applies alone, then
        later reads see the new epoch.  This call blocks until the
        barrier has been applied.
        """
        server = self._server
        if server is not None:
            try:
                server.submit_mutation("insert", obj).result()
                return
            except SchedulerClosed:
                server.close()  # drain fully, then apply inline
        self._apply_insert(obj)

    def delete(self, oid: int) -> UncertainObject:
        """Remove and return an object (see :meth:`insert`)."""
        server = self._server
        if server is not None:
            try:
                return server.submit_mutation("delete", oid).result()
            except SchedulerClosed:
                server.close()  # drain fully, then apply inline
        return self._apply_delete(oid)

    def _apply_insert(self, obj: UncertainObject) -> None:
        """The mutation itself (scheduler barrier entry point).

        Holds the mutation-order lock across apply *and* subscription
        pump, so standing queries re-execute at exactly this epoch
        before the next mutation can land; the pump itself runs
        outside ``_lock`` (its re-executions take engine locks that
        concurrent readers hold while waiting on ``_lock``).
        """
        with self._mutation_order:
            with self._lock:
                carrier = self._maintenance_carrier()
                if carrier is not None:
                    carrier.index.insert(obj)
                else:
                    self.dataset.insert(obj)
                self._sync()
            self._pump_subscriptions()

    def _apply_delete(self, oid: int) -> UncertainObject:
        """The mutation itself (scheduler barrier entry point)."""
        with self._mutation_order:
            with self._lock:
                removed = self.dataset[oid]
                carrier = self._maintenance_carrier()
                if carrier is not None:
                    carrier.index.delete(oid)
                else:
                    self.dataset.delete(oid)
                self._sync()
            self._pump_subscriptions()
            return removed

    def _pump_subscriptions(self) -> None:
        manager = self._subscriptions
        if manager is not None:
            manager.pump()

    def _maintenance_carrier(self) -> IndexHandle | None:
        """The built, in-sync index that will absorb the mutation."""
        for name in ("pv", "uv"):
            handle = self._handles.get(name)
            if handle is not None and handle.maintainable and handle.in_sync():
                return handle
        return None

    # ------------------------------------------------------------------
    # Continuous queries: standing subscriptions over mutations
    # ------------------------------------------------------------------
    def subscribe(
        self,
        kind: str,
        query: Any = None,
        *,
        retriever: str | None = None,
        max_pending: int = 256,
        eager: bool = False,
        **params: Any,
    ) -> "Subscription":
        """Register a standing query over the mutation stream.

        Any of the seven verbs, same parameters as the one-shot
        methods (``db.subscribe("knn", q, k=3)``; ``threshold``
        accepts ``p`` like :meth:`threshold`).  Returns a
        :class:`~repro.service.Subscription` whose first revision is
        the baseline answer at the current epoch (``changed=False``);
        thereafter every mutation epoch that changes the answer pushes
        exactly one epoch-tagged revision, and epochs that provably
        (or by re-execution) leave it unchanged are counted as
        suppressed.  ``eager=True`` disables the relevance filter and
        re-executes at every epoch — same revision stream, no
        filtering (the differential baseline).

        ``max_pending`` bounds the per-subscription revision queue: a
        consumer lagging past it is closed and its next read past the
        buffer raises :class:`~repro.service.RevisionOverflow`.
        """
        from ..service.subscriptions import SubscriptionManager

        spec = _spec(kind, query, params)
        with self._lock:
            if self._closed:
                raise RuntimeError("Database is closed")
            manager = self._subscriptions
            if manager is None:
                manager = self._subscriptions = SubscriptionManager(self)
        return manager.subscribe(
            spec.kind,
            spec.query,
            spec.params,
            retriever,
            max_pending=max_pending,
            eager=eager,
        )

    @property
    def subscriptions(self) -> Any:
        """The subscription manager (``None`` until first subscribe)."""
        return self._subscriptions

    def describe(self) -> dict[str, Any]:
        """A structured snapshot of the session's live state.

        Covers the dataset (size, dims, epoch), which index handles
        are built, whether the three compiled loops (the C-set
        selection and the Shrink-and-Expand row loop of PV-index builds
        and maintenance, and the Step-2 log walk) run in this process
        (``"kernel"``: ``"c"`` or ``"numpy"``; one build decides all
        three),
        durability and serving status, and — when standing
        subscriptions exist — their live counts and per-subscription
        emit/suppress counters.
        """
        with self._lock:
            self._sync()
            built = tuple(
                name
                for name, handle in self._handles.items()
                if handle.index is not None
            )
            server = self._server
            manager = self._subscriptions
        durable = self._durable
        info: dict[str, Any] = {
            "n": len(self.dataset),
            "dims": self.dims,
            "epoch": self.epoch,
            "indexes": {
                "available": sorted(self._handles),
                "built": list(built),
            },
            "kernel": sekernel.kernel_name(),
            "durable": self.durable,
            "degraded_mode": bool(
                durable is not None and durable.read_only
            ),
            "serving": type(server).__name__ if server is not None else None,
            "closed": self._closed,
        }
        recovery = getattr(server, "recovery_snapshot", None)
        info["recovery"] = (
            recovery()
            if recovery is not None
            else {"retries": 0, "worker_restarts": 0, "deadline_misses": 0}
        )
        if manager is not None:
            info["subscriptions"] = manager.describe()
        else:
            info["subscriptions"] = {
                "live": 0,
                "revisions_emitted": 0,
                "revisions_suppressed": 0,
                "entries": [],
            }
        return info

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @property
    def durable(self) -> bool:
        """True when this session persists through a durable store."""
        return self._durable is not None

    def checkpoint(self) -> int:
        """Make every mutation so far durable; returns the live epoch.

        Fsyncs the write-ahead log, which holds every mutation since
        the snapshot.  Once snapshot plus log exceed twice the size of
        a fresh snapshot, it also merges: rewrites the snapshot from
        the live store (durable before the log is touched) and resets
        the log.  Only valid on a database opened with :meth:`open`.

        On a served database, callers should quiesce mutations first
        (the process-pool re-attach fence does this automatically);
        the database lock excludes direct-path mutations for the
        duration.
        """
        if self._durable is None:
            raise RuntimeError(
                "not a durable database; use Database.open(path)"
            )
        with self._lock:
            return self._durable.checkpoint()

    # ------------------------------------------------------------------
    # Serving: the concurrent submit-and-serve surface
    # ------------------------------------------------------------------
    def serve(self, **options: Any) -> UncertainDBServer:
        """Attach (or return) the concurrent serving layer.

        Starts an :class:`~repro.service.UncertainDBServer` over this
        database — worker threads plus a scheduler that coalesces
        concurrent same-template point queries into one batched kernel
        dispatch and serializes mutations as epoch barriers.  Client
        code opens :class:`~repro.service.Session` objects via
        ``db.serve().session()``; while a server is attached the
        synchronous verbs (``db.nn`` etc.) become thin one-shot
        sessions — they submit into the same scheduler and block on
        the future, so they obey the same consistency contract.

        ``mode="process"`` selects the
        :class:`~repro.service.ProcessPoolServer` instead: the packed
        instance store is written as one image file (in ``/dev/shm``
        where the platform has it), worker *processes* map it
        zero-copy, and group execution scatters over the pool with
        sharded Step-1 pruning — same client surface, same
        epoch-barrier consistency contract, no GIL on the compute
        path.  The process-mode extra ``stall_timeout`` is forwarded
        too.

        Idempotent while a server is live: a second ``serve()`` call
        returns the running server (``options`` must then be empty).
        ``options`` are forwarded to the server constructor
        (``workers``, ``max_group``).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("Database is closed")
            if self._server is not None:
                if options:
                    raise ValueError(
                        "a server is already attached; close() it "
                        "before re-serving with different options"
                    )
                return self._server
            mode = options.pop("mode", "thread")
            if mode == "process":
                from ..service import ProcessPoolServer

                self._server = ProcessPoolServer(self, **options)
            elif mode == "thread":
                from ..service import UncertainDBServer

                self._server = UncertainDBServer(self, **options)
            else:
                raise ValueError(
                    f"unknown serve mode {mode!r} "
                    "(expected 'thread' or 'process')"
                )
            return self._server

    @property
    def server(self) -> UncertainDBServer | None:
        """The attached serving layer, if :meth:`serve` was called."""
        return self._server

    def _detach_server(self, server: UncertainDBServer) -> None:
        """Forget a server that shut itself down (server.close path)."""
        with self._lock:
            if self._server is server:
                self._server = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release everything the session owns.

        Shuts down an attached server (draining queued queries),
        drops every built index handle and engine, and detaches the
        dataset's packed instance store.  A durable session first
        checkpoints (syncing the WAL, which the next :meth:`open`
        replays on top of the snapshot) and then seals its store —
        later direct mutations of the dataset raise instead of going
        unlogged.  Idempotent: double-close is a no-op.  The
        database object itself remains usable for queries — a later
        query lazily rebuilds what it needs — but ``serve()`` refuses
        after close.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            server = self._server
            manager = self._subscriptions
        try:
            if manager is not None:
                # Detach the manager's mutation listener and wake every
                # consumer *before* the server drain: queued mutations
                # still apply, but no longer fan out into re-executions
                # nobody will read.
                manager.close()
            if server is not None:
                # Drain before detaching: verbs that still hold the
                # server reference either ride the drain or hit
                # SchedulerClosed and themselves wait on close() —
                # nothing executes inline beside the draining queue.
                # The server detaches itself (sets ``_server`` to
                # None) once fully stopped.  A process-pool server's
                # close additionally terminates its workers and
                # removes its image directory even when a worker died
                # mid-query.
                server.close()
        finally:
            with self._lock:
                durable = self._durable
                if durable is not None:
                    # Checkpoint (sync the WAL, merge if it has grown);
                    # then seal the store.  A failed checkpoint still
                    # closes — the WAL holds everything the snapshot is
                    # missing.  A store degraded to read-only refuses
                    # checkpoints (the on-disk state is the last
                    # trustworthy one), so skip straight to sealing it.
                    try:
                        if not durable.read_only:
                            durable.checkpoint()
                    finally:
                        durable.close()
                for handle in self._handles.values():
                    handle.drop()
                self._engines.clear()
                self.planner.invalidate()
                self.dataset.release_instance_store()

    def __enter__(self) -> Database:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Reconcile derived state with the dataset's mutation epoch.

        Called on every public entry point.  On drift: built handles
        that were not maintained through the mutation are dropped along
        with their engines (their retrievers would otherwise silently
        decay to brute force inside :class:`~repro.engine.BaseEngine`,
        breaking the plan's retriever claim), and the plan cache is
        invalidated.
        """
        epoch = self.dataset.epoch
        if epoch == self._epoch_seen:
            return
        self._epoch_seen = epoch
        for name, handle in self._handles.items():
            if handle.index is None or name == _BRUTE:
                continue
            if not handle.in_sync():
                handle.drop()
                self._engines = {
                    key: engine
                    for key, engine in self._engines.items()
                    if key[1] != name
                }
        self.planner.invalidate()

    def _make_handle(self, name: str) -> IndexHandle | None:
        # Builders look the class method up at build time, so a
        # wrapper installed on it after the Database exists still runs.
        if name == "pv":
            return IndexHandle(
                "pv",
                self.dataset,
                lambda ds: PVIndex.build(ds),
                maintainable=True,
            )
        if name == "rtree":
            return IndexHandle(
                "rtree",
                self.dataset,
                lambda ds: RTreePNNQ.build(ds),
                maintainable=False,
            )
        if name == "uv":
            if self.dataset.dims != 2:
                return None  # the UV-index is 2D-only
            return IndexHandle(
                "uv",
                self.dataset,
                lambda ds: UVIndex.build(ds, k_cand=32),
                maintainable=True,
            )
        if name == _BRUTE:
            return None  # implicit; added unconditionally
        raise PlanningError(
            f"unknown index handle {name!r} "
            "(expected 'pv', 'rtree', or 'uv')"
        )
