"""repro.service — the concurrent submit-and-serve layer.

From call-and-return to submit-and-serve: an
:class:`UncertainDBServer` owns worker threads and an auto-coalescing
scheduler over one :class:`~repro.api.Database`; :class:`Session`
objects expose the same seven query verbs but return
:class:`QueryFuture` values immediately::

    with Database(synthetic_dataset(n=500, dims=2, seed=0)) as db:
        server = db.serve(workers=2)
        session = server.session()
        futures = [session.nn(q) for q in queries]   # returns at once
        for future in as_completed(futures):
            print(future.epoch, future.result().best)

Concurrent queries sharing one ``(kind, params, retriever)`` template
coalesce into a single batched kernel dispatch; ``insert`` / ``delete``
apply as epoch barriers, so every read executes against exactly one
dataset epoch (tagged on its future and result).

``db.serve(workers=N, mode="process")`` swaps in the
:class:`ProcessPoolServer` — same surface and contract, but groups
execute in worker *processes* that memory-map one packed image of the
instance store, with Step 1 split over sort-tile-recursive shards of
the region centres and scatter-gathered (:mod:`repro.service.shards`)
and mutations applied as pool-wide re-attach fences
(:mod:`repro.service.procpool`).
"""

from .future import FutureTimeout, QueryFuture, QueryTimeout, as_completed
from .procpool import ProcessPoolServer, WorkerDied, WorkerStalled
from .scheduler import CoalescingScheduler, SchedulerClosed, SchedulerStats
from .server import Session, UncertainDBServer
from .shards import ShardLayout, ShardedRetriever
from .subscriptions import (
    Revision,
    RevisionOverflow,
    Subscription,
    SubscriptionManager,
)

__all__ = [
    "as_completed",
    "CoalescingScheduler",
    "FutureTimeout",
    "ProcessPoolServer",
    "QueryFuture",
    "QueryTimeout",
    "Revision",
    "RevisionOverflow",
    "SchedulerClosed",
    "SchedulerStats",
    "Session",
    "ShardLayout",
    "ShardedRetriever",
    "Subscription",
    "SubscriptionManager",
    "UncertainDBServer",
    "WorkerDied",
    "WorkerStalled",
]
