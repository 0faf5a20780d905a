"""Standing subscriptions over the mutation stream.

One-shot queries force clients into poll loops: re-run the verb every
tick, diff the answers yourself, and hope the tick rate matches the
mutation rate.  This module turns the primitives the repository already
has — monotonic mutation epochs, write-ahead mutation listeners, and
the scheduler's exclusive epoch barriers — into *continuous queries*::

    sub = db.subscribe("nn", [5000.0, 5000.0])
    db.insert(obj)                     # relevant -> a revision is pushed
    for rev in sub.revisions(timeout=0.0):
        print(rev.epoch, rev.answer.best, rev.changed)
    sub.unsubscribe()

The consistency contract (pinned by the differential oracle in
``tests/test_subscriptions.py``):

* **Exactly one epoch per revision.**  Every :class:`Revision` carries
  the epoch of the single mutation that produced it; revisions arrive
  in strictly increasing epoch order.
* **Emit only on change.**  A subscription's revision stream equals
  serially re-running the query at every epoch and emitting only when
  the answer differs from the previous one (the first revision is the
  baseline at the subscribe epoch, ``changed=False``).
* **Suppression never hides a change.**  Epochs that emit nothing are
  epochs whose answer is bit-identical to the previous one — either a
  conservative relevance filter proved the mutation could not touch
  the answer, or a re-execution produced the same result.  Suppressed
  epochs are counted (``Revision.suppressed_since_last`` and the
  ``revisions_suppressed`` stat), never silently dropped.
* **Bounded buffers.**  A consumer that stops draining does not stall
  the writer: once ``max_pending`` revisions queue up, the
  subscription is closed, already-buffered revisions stay readable,
  and the next read past them raises :class:`RevisionOverflow`.

Relevance filtering
-------------------
Re-executing every subscription at every epoch is correct but wasteful.
Each subscription keeps a conservative *watch* derived from its query
geometry and refreshed on every re-execution:

* Point kinds (``nn`` / ``topk`` / ``threshold`` / ``expected_nn``)
  watch the radius ``min over objects of maxdist(q, region)`` — the
  classic min-max bound.  A mutation whose region has
  ``mindist(q, region)`` beyond the watch radius cannot enter or leave
  the possible-NN candidate set, so the answer is provably unchanged.
* ``knn(k)`` widens the radius to the k-th smallest maxdist.
* ``group_nn`` applies the same argument to aggregated distances (the
  engine's own Step-1 bound).
* ``reverse_nn`` has no cheap sound filter and re-executes every epoch.

The bounds are conservative both ways: a stale (too large) watch only
costs a re-execution, never a wrong suppression — the watch shrinks
only when a re-execution refreshes it, and the soundness argument
shows suppressed mutations leave the true radius no larger than the
stored one.

When a subscription's last plan ran on the incremental UV-index and
the index is still in sync, a second, exact filter refines the radius
check: one grid descent re-probes the ordered candidate list, and if
it is unchanged the answer — a deterministic function of the ordered
candidates and their immutable pdfs — is unchanged too
(``uv_probe_suppressed`` counts these).

Execution path
--------------
The :class:`SubscriptionManager` registers one dataset mutation
listener that records ``(op, region, epoch)`` — nothing else happens
inside the mutation lock.  After the mutation applies, the database
pumps the manager *under its mutation-order lock*: records are
processed one epoch at a time, affected subscriptions are coalesced by
``(kind, params, retriever)`` through the same
``Database._execute_group`` path every other query takes (so batched
Step 1/Step 2 and planner feedback apply), and revisions are pushed to
the per-subscription queues.  Under ``db.serve()`` the pump runs
inside the scheduler's exclusive mutation barrier, so re-execution
always sees exactly the post-mutation epoch.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from ..analysis.locks import make_lock
from ..engine.stats import ExecutionStats
from ..geometry import (
    Rect,
    maxdist_sq_point_rects,
    mindist_sq_points_rect,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api.database import Database

__all__ = [
    "Revision",
    "RevisionOverflow",
    "Subscription",
    "SubscriptionManager",
    "answers_equal",
]

#: Relative + absolute slack on the watch comparison: float error may
#: only ever cause an extra re-execution, never a wrong suppression.
_WATCH_SLACK = 1e-9


class RevisionOverflow(RuntimeError):
    """A lagging consumer overran its bounded revision queue.

    Raised by :meth:`Subscription.poll` / :meth:`Subscription.revisions`
    after the buffered revisions have been drained.  The subscription
    is already closed and detached; re-subscribe to resume (the first
    revision of the new subscription re-baselines the answer).
    """


@dataclass(frozen=True)
class Revision:
    """One immutable epoch-tagged result revision.

    ``stats`` is the execution delta of the re-execution that produced
    this revision (shared work split across a coalesced group is
    reported once per group, like :meth:`Database.batch`), stamped with
    ``revisions_emitted=1`` and the suppressed-epoch count.
    """

    kind: str
    #: The single mutation epoch this revision reflects.
    epoch: int
    #: The engine answer (same object a one-shot verb would return).
    answer: Any
    #: False only for the baseline revision pushed by ``subscribe()``.
    changed: bool
    #: Execution delta of the producing re-execution.
    stats: ExecutionStats
    #: Epochs since the previous revision that emitted nothing.
    suppressed_since_last: int = 0


def answers_equal(kind: str, a: Any, b: Any) -> bool:
    """Bit-identical answer comparison, mirroring the test oracles.

    The frozen result dataclasses hold numpy ``query`` arrays, so
    dataclass equality is unusable; compare the answer payload the way
    ``tests/test_service_differential.py`` does — exact floats, no
    tolerance.
    """
    if a is None or b is None:
        return a is b
    if kind in ("topk", "expected_nn"):
        return a.ranking == b.ranking
    if kind == "threshold":
        return dict(a) == dict(b)
    # nn / knn / group_nn / reverse_nn: candidate set + probabilities.
    return a.candidate_ids == b.candidate_ids and dict(
        a.probabilities
    ) == dict(b.probabilities)


# ----------------------------------------------------------------------
# Watches: conservative per-kind relevance geometry
# ----------------------------------------------------------------------
#: Kinds whose Step-1 candidate set is the possible-NN set of a single
#: query point (watch radius = smallest maxdist).
_POINT_KINDS = ("nn", "topk", "threshold", "expected_nn")
#: Kinds eligible for the exact UV-index candidate re-probe.
_UV_PROBE_KINDS = ("nn", "topk", "threshold")


def _as_points(query: Any) -> np.ndarray:
    pts = np.asarray(query, dtype=float)
    return pts.reshape(1, -1) if pts.ndim == 1 else pts


class _Watch:
    """The geometry a subscription monitors between re-executions."""

    __slots__ = ("points", "aggregate", "k", "radius_sq", "radius_agg")

    def __init__(
        self,
        points: np.ndarray | None,
        *,
        aggregate: str | None = None,
        k: int = 1,
    ) -> None:
        self.points = points  # None => no sound filter (reverse_nn)
        self.aggregate = aggregate  # group_nn's distance aggregate
        self.k = k
        self.radius_sq = np.inf  # point-kind watch (squared)
        self.radius_agg = np.inf  # group_nn watch (plain distance)

    def refresh(self, los: np.ndarray, his: np.ndarray) -> None:
        """Recompute the radius from the current packed regions."""
        if self.points is None:
            return
        if self.aggregate is None:
            maxd = maxdist_sq_point_rects(self.points[0], los, his)
            if maxd.size < self.k:
                self.radius_sq = np.inf
            elif self.k == 1:
                self.radius_sq = float(maxd.min())
            else:
                self.radius_sq = float(
                    np.partition(maxd, self.k - 1)[self.k - 1]
                )
        else:
            per_point = np.sqrt(
                np.stack(
                    [
                        maxdist_sq_point_rects(p, los, his)
                        for p in self.points
                    ]
                )
            )
            agg = getattr(per_point, self.aggregate)(axis=0)
            self.radius_agg = float(agg.min()) if agg.size else np.inf

    def relevant(self, region: Rect) -> bool:
        """Could a mutation of ``region`` change the answer?"""
        if self.points is None:
            return True
        mind_sq = mindist_sq_points_rect(self.points, region)
        if self.aggregate is None:
            bound = self.radius_sq
            value = float(mind_sq[0])
        else:
            bound = self.radius_agg
            value = float(getattr(np.sqrt(mind_sq), self.aggregate)())
        return value <= bound * (1.0 + _WATCH_SLACK) + _WATCH_SLACK


# ----------------------------------------------------------------------
# The consumer-facing handle
# ----------------------------------------------------------------------
class Subscription:
    """A standing query: a bounded queue of :class:`Revision` values.

    Created by :meth:`Database.subscribe`; never constructed directly.
    Thread-safe: one producer (the pump) and any number of consumers.
    """

    def __init__(
        self,
        manager: "SubscriptionManager",
        sid: int,
        kind: str,
        query: Any,
        params: tuple[tuple[str, Any], ...],
        retriever: str | None,
        *,
        max_pending: int,
        eager: bool,
    ) -> None:
        self._manager = manager
        self.sid = sid
        self.kind = kind
        self.query = query
        self.params = params
        self.retriever = retriever
        self.max_pending = max_pending
        #: True disables the relevance filter: re-execute every epoch.
        #: (Also the "naive" baseline of ``bench_subscriptions``.)
        self.eager = eager
        self.revisions_emitted = 0
        self.revisions_suppressed = 0
        #: Suppressions proven by the exact UV candidate re-probe.
        self.uv_probe_suppressed = 0
        self._cond = threading.Condition()
        self._queue: deque[Revision] = deque()
        self._closed = False
        self._overflowed = False
        # Pump-side state (touched only under the mutation-order lock).
        self._last_answer: Any = None
        self._last_retriever: str | None = None
        self._last_uv_candidates: tuple[int, ...] | None = None
        self._suppressed_since_last = 0
        self._watch = self._make_watch(kind, query, dict(params))

    @staticmethod
    def _make_watch(kind: str, query: Any, params: dict) -> _Watch:
        if kind == "reverse_nn":
            return _Watch(None)
        if kind == "group_nn":
            return _Watch(
                _as_points(query), aggregate=params.get("aggregate", "sum")
            )
        if kind == "knn":
            return _Watch(_as_points(query), k=int(params.get("k", 1)))
        return _Watch(_as_points(query))

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Registered and receiving revisions."""
        return not self._closed

    @property
    def overflowed(self) -> bool:
        """Closed because the consumer lagged past ``max_pending``."""
        return self._overflowed

    @property
    def pending(self) -> int:
        """Revisions buffered and not yet consumed."""
        with self._cond:
            return len(self._queue)

    def poll(self) -> Revision | None:
        """The next buffered revision, or ``None`` — never blocks.

        Pumps any unprocessed mutation records first, so a direct
        ``dataset.insert`` bypassing the Database still surfaces here
        by the next poll.

        Raises
        ------
        RevisionOverflow
            Once the buffer of an overflowed subscription is drained.
        """
        self._manager.pump()
        with self._cond:
            if self._queue:
                return self._queue.popleft()
            if self._overflowed:
                raise RevisionOverflow(
                    f"subscription {self.sid} ({self.kind}): lagging "
                    f"consumer overran {self.max_pending} buffered "
                    "revisions; re-subscribe to resume"
                )
            return None

    def revisions(self, timeout: float | None = None) -> Iterator[Revision]:
        """Iterate revisions, blocking for the next one.

        ``timeout`` bounds the wait for *each* revision; when it
        expires — or the subscription is unsubscribed / the database
        closed — iteration stops.  An overflowed subscription yields
        its buffered revisions and then raises
        :class:`RevisionOverflow`.
        """
        while True:
            self._manager.pump()
            with self._cond:
                if not self._queue and not self._closed:
                    self._cond.wait(timeout)
                if self._queue:
                    revision = self._queue.popleft()
                elif self._overflowed:
                    raise RevisionOverflow(
                        f"subscription {self.sid} ({self.kind}): "
                        "lagging consumer overran "
                        f"{self.max_pending} buffered revisions; "
                        "re-subscribe to resume"
                    )
                elif self._closed:
                    return
                else:
                    return  # timed out
            yield revision

    def unsubscribe(self) -> None:
        """Detach: no further revisions; buffered ones stay readable."""
        self._manager._discard(self)

    # -- producer side -------------------------------------------------
    def _push(self, revision: Revision) -> bool:
        """Queue a revision; False when closed or just overflowed."""
        with self._cond:
            if self._closed:
                return False
            if len(self._queue) >= self.max_pending:
                self._overflowed = True
                self._closed = True
                self._cond.notify_all()
                return False
            self._queue.append(revision)
            self.revisions_emitted += 1
            self._cond.notify_all()
            return True

    def _close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.unsubscribe()

    def __repr__(self) -> str:
        state = (
            "overflowed"
            if self._overflowed
            else ("active" if not self._closed else "closed")
        )
        return (
            f"Subscription({self.sid}, {self.kind!r}, {state}, "
            f"emitted={self.revisions_emitted}, "
            f"suppressed={self.revisions_suppressed})"
        )


# ----------------------------------------------------------------------
# The manager: one per Database, owns the mutation listener
# ----------------------------------------------------------------------
class SubscriptionManager:
    """Routes the mutation stream into live subscriptions.

    Owned by a :class:`~repro.api.Database`; the database pumps it
    under its mutation-order lock after every applied mutation (and
    consumers pump lazily on :meth:`Subscription.poll`, which covers
    mutations applied directly on the dataset).
    """

    def __init__(self, db: "Database") -> None:
        self._db = db
        self._ids = itertools.count(1)
        self._subs: dict[int, Subscription] = {}
        #: (op, region, epoch) records the dataset listener appended;
        #: drained in epoch order by :meth:`pump`.
        self._pending: deque[tuple[str, Rect, int]] = deque()
        self._listener: Callable[[str, Any, int], None] | None = None
        #: Guards the subscription table and listener registration.
        self._reg_lock = make_lock("subscriptions.reg_lock")
        self.stats = ExecutionStats()
        self._closed = False

    # ------------------------------------------------------------------
    def subscribe(
        self,
        kind: str,
        query: Any,
        params: tuple[tuple[str, Any], ...],
        retriever: str | None,
        *,
        max_pending: int,
        eager: bool,
    ) -> Subscription:
        """Register a standing query and push its baseline revision."""
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        sub = Subscription(
            self,
            next(self._ids),
            kind,
            query,
            params,
            retriever,
            max_pending=max_pending,
            eager=eager,
        )
        with self._db._mutation_order:
            if self._closed:
                raise RuntimeError("Database is closed")
            # Catch up on records from direct dataset mutations first,
            # so the baseline executes at the newest epoch.
            self._pump_locked()
            envelope = self._db._execute_group(
                kind, [query], params, retriever
            )[0]
            self._refresh_after_execution(sub, envelope)
            sub._last_answer = envelope.answer
            sub._push(
                Revision(
                    kind=kind,
                    epoch=envelope.plan.epoch,
                    answer=envelope.answer,
                    changed=False,
                    stats=self._revision_stats(envelope, 0),
                )
            )
            self.stats.revisions_emitted += 1
            with self._reg_lock:
                self._subs[sub.sid] = sub
                if self._listener is None:
                    self._listener = self._record_mutation
                    self._db.dataset.add_mutation_listener(self._listener)
        return sub

    def _discard(self, sub: Subscription) -> None:
        """Unregister ``sub`` (idempotent; safe mid-pump)."""
        sub._close()
        with self._reg_lock:
            self._subs.pop(sub.sid, None)
            self._maybe_detach_locked()

    def _maybe_detach_locked(self) -> None:
        if not self._subs and self._listener is not None:
            self._db.dataset.remove_mutation_listener(self._listener)
            self._listener = None

    def close(self) -> None:
        """Detach the listener and close every subscription.

        Called by :meth:`Database.close`; idempotent.  Consumers
        blocked in :meth:`Subscription.revisions` wake up and stop
        after draining their buffered revisions.
        """
        with self._reg_lock:
            self._closed = True
            subs = list(self._subs.values())
            self._subs.clear()
            self._maybe_detach_locked()
        for sub in subs:
            sub._close()

    # ------------------------------------------------------------------
    # The mutation stream
    # ------------------------------------------------------------------
    def _record_mutation(self, op: str, obj: Any, epoch: int) -> None:
        # Write-ahead listener discipline: never raise, never block —
        # just record what moved.  (An aborted mutation may leave a
        # spurious record; pumping it re-executes, finds the answer
        # unchanged, and counts a suppression — self-healing.)
        self._pending.append((op, obj.region, epoch))

    def pump(self) -> None:
        """Process recorded mutations into revisions.

        Serialized by the database's mutation-order lock: the mutating
        thread already holds it (re-entrant), and a consumer-side pump
        waits until any in-flight mutation has fully applied — records
        are never classified against a half-applied dataset.
        """
        if not self._pending:
            return
        with self._db._mutation_order:
            self._pump_locked()

    def _pump_locked(self) -> None:
        while self._pending:
            records: list[tuple[str, Rect, int]] = []
            while True:
                try:
                    record = self._pending.popleft()
                except IndexError:
                    break
                if record[2] > self._db.dataset.epoch:
                    # The mutation aborted after the listener fired
                    # (it never committed); drop the phantom record.
                    continue
                records.append(record)
            if records:
                self._process(records, self._db.dataset.epoch)

    def _process(
        self, records: list[tuple[str, Rect, int]], epoch: int
    ) -> None:
        """Classify a batch of mutation records at the current epoch.

        Mutations routed through the Database pump one record at a
        time, so the batch is a single record at exactly its commit
        epoch — the strict one-revision-per-epoch contract.  Direct
        ``dataset.insert`` calls bypassing the Database leave records
        to be caught up on the consumer's next poll: those coalesce
        into one pass emitting at most one revision tagged with the
        *current* epoch (the only state that still exists to execute
        against), the skipped epochs counted as suppressed.
        """
        with self._reg_lock:
            subs = list(self._subs.values())
        span = len(records)
        needy: list[Subscription] = []
        for sub in subs:
            if not sub.active:
                continue
            if not sub.eager and not any(
                sub._watch.relevant(region) for _op, region, _e in records
            ):
                self._suppress(sub, span)
                continue
            if self._uv_probe_unchanged(sub):
                # Exact refinement: the ordered UV candidate list at
                # the current epoch is unchanged, so the answer is too
                # (pays off in catch-up batches, where the radius
                # check sees stale intermediate states).
                sub.uv_probe_suppressed += 1
                self._suppress(sub, span)
                continue
            needy.append(sub)
        if not needy:
            return
        groups: dict[tuple, list[Subscription]] = {}
        for sub in needy:
            key = (sub.kind, sub.params, sub.retriever)
            groups.setdefault(key, []).append(sub)
        for (kind, params, retriever), members in groups.items():
            envelopes = self._db._execute_group(
                kind, [sub.query for sub in members], params, retriever
            )
            for sub, envelope in zip(members, envelopes):
                self._deliver(sub, envelope, epoch, span)

    def _deliver(
        self, sub: Subscription, envelope: Any, epoch: int, span: int
    ) -> None:
        """Compare, emit-or-suppress, and refresh the watch."""
        changed = not answers_equal(
            sub.kind, sub._last_answer, envelope.answer
        )
        # Refresh the watch on EVERY re-execution, changed or not: an
        # unchanged answer can still shrink the true radius (e.g. the
        # bound-defining candidate was deleted), and a stale-smaller
        # watch would be unsound.
        self._refresh_after_execution(sub, envelope)
        if not changed:
            self._suppress(sub, span)
            return
        if span > 1:
            self._suppress(sub, span - 1)  # coalesced catch-up epochs
        sub._last_answer = envelope.answer
        revision = Revision(
            kind=sub.kind,
            epoch=epoch,
            answer=envelope.answer,
            changed=True,
            stats=self._revision_stats(
                envelope, sub._suppressed_since_last
            ),
            suppressed_since_last=sub._suppressed_since_last,
        )
        sub._suppressed_since_last = 0
        self.stats.revisions_emitted += 1
        if not sub._push(revision):
            # Overflowed (or raced an unsubscribe): detach.
            self._discard(sub)

    def _suppress(self, sub: Subscription, span: int = 1) -> None:
        sub._suppressed_since_last += span
        sub.revisions_suppressed += span
        self.stats.revisions_suppressed += span

    def _refresh_after_execution(
        self, sub: Subscription, envelope: Any
    ) -> None:
        _ids, los, his = self._db.dataset.packed_regions()
        sub._watch.refresh(los, his)
        sub._last_retriever = envelope.plan.retriever
        sub._last_uv_candidates = None
        if (
            sub.kind in _UV_PROBE_KINDS
            and envelope.plan.retriever == "uv"
        ):
            handle = self._db._handles.get("uv")
            if handle is not None and handle.in_sync():
                sub._last_uv_candidates = tuple(
                    handle.index.candidates(sub._watch.points[0])
                )

    def _uv_probe_unchanged(self, sub: Subscription) -> bool:
        """Exact refinement: identical ordered UV candidates => same
        answer (pdfs are immutable per object)."""
        if sub._last_uv_candidates is None:
            return False
        handle = self._db._handles.get("uv")
        if handle is None or not handle.in_sync():
            return False
        probe = tuple(handle.index.candidates(sub._watch.points[0]))
        return probe == sub._last_uv_candidates

    def _revision_stats(
        self, envelope: Any, suppressed: int
    ) -> ExecutionStats:
        # Group members share one delta object (like Database.batch);
        # snapshot before stamping the per-revision counters.
        stats = envelope.stats.snapshot()
        stats.revisions_emitted = 1
        stats.revisions_suppressed = suppressed
        return stats

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live(self) -> int:
        """Subscriptions currently registered."""
        with self._reg_lock:
            return len(self._subs)

    def stats_snapshot(self) -> ExecutionStats:
        """A copy of the aggregate revision counters (the live count is
        a gauge: see :attr:`live` and :meth:`describe`)."""
        return self.stats.snapshot()

    def describe(self) -> dict[str, Any]:
        """Live-subscription state for :meth:`Database.describe`."""
        with self._reg_lock:
            subs = list(self._subs.values())
        return {
            "live": len(subs),
            "revisions_emitted": self.stats.revisions_emitted,
            "revisions_suppressed": self.stats.revisions_suppressed,
            "entries": [
                {
                    "sid": sub.sid,
                    "kind": sub.kind,
                    "params": dict(sub.params),
                    "retriever": sub.retriever,
                    "eager": sub.eager,
                    "pending": sub.pending,
                    "emitted": sub.revisions_emitted,
                    "suppressed": sub.revisions_suppressed,
                    "uv_probe_suppressed": sub.uv_probe_suppressed,
                }
                for sub in subs
            ],
        }

    def __repr__(self) -> str:
        return (
            f"SubscriptionManager(live={self.live}, "
            f"emitted={self.stats.revisions_emitted}, "
            f"suppressed={self.stats.revisions_suppressed})"
        )
