"""Unified execution statistics shared by every query engine.

The paper's evaluation splits query cost along two axes: wall-clock
time, decomposed into Step 1 ("OR" — object retrieval) and Step 2
("PC" — probability computation) as in Figures 9(b)/(f), and simulated
page I/O as in Figures 9(c)/(g).  :class:`ExecutionStats` carries both
in one object that every engine populates through the shared
:class:`~repro.engine.base.BaseEngine` template.

I/O is split by phase too: ``or_io`` is the page traffic of Step 1 (the
quantity the paper's I/O figures report — leaf accesses of the Step-1
index) and ``pc_io`` the traffic of Step 2 (secondary-index pdf
fetches).

Every field is a counter that accumulates: the copy, capture and delta
methods are generated from :func:`dataclasses.fields`, so a new counter
needs only its field declaration.  Gauges (live subscriptions, degraded
mode) are not counters and live in ``Database.describe()`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter, sub
from typing import Any, Sequence

from ..storage.pager import IOStats

__all__ = ["ExecutionStats"]


@dataclass
class ExecutionStats:
    """Accumulated timing, I/O, and reuse counters of one engine.

    Semantics (tested in ``tests/test_engine.py``):

    * :meth:`reset` zeroes every counter in place.
    * :meth:`snapshot` returns an independent deep copy.
    * :meth:`delta` returns the traffic accumulated since an earlier
      snapshot, field by field.
    """

    #: Step-1 (object retrieval) wall-clock seconds.
    object_retrieval: float = 0.0
    #: Step-2 (probability computation) wall-clock seconds.
    probability_computation: float = 0.0
    #: Queries answered (including cache/dedup hits).
    queries: int = 0
    #: ``query_batch`` invocations.
    batches: int = 0
    #: Queries answered from the LRU result cache.
    cache_hits: int = 0
    #: Queries that reused another query's full result inside a batch
    #: (exact duplicates collapsed by deduplication).
    dedup_hits: int = 0
    #: Always 0: no engine reuses one query's Step-1 set for another.
    #: Kept because ``perfbench/layers.py`` sums it into
    #: ``engine.reuse_ratio``.
    memo_hits: int = 0
    #: Dataset-epoch drifts observed: each one flushed the result cache
    #: (stale pre-mutation answers discarded).
    invalidations: int = 0
    #: Epoch drifts where the configured index retriever was itself
    #: stale and the engine swapped in the exact brute-force fallback.
    retriever_fallbacks: int = 0
    #: Step-2 seconds spent gathering candidate pdfs from the packed
    #: :class:`~repro.uncertain.InstanceStore` (a subset of
    #: :attr:`probability_computation`).
    kernel_gather_seconds: float = 0.0
    #: Step-2 seconds spent in the tensorized probability kernel itself
    #: (distances, sorts, survival products — the other subset of
    #: :attr:`probability_computation`).
    kernel_eval_seconds: float = 0.0
    #: Scatter-gather shards whose candidate filter actually ran
    #: (per query: the shards surviving the MBR bound check).
    shards_dispatched: int = 0
    #: Scatter-gather shards skipped because their MBR lower bound was
    #: dominated — whole partitions Step 1 never touched.
    shards_pruned: int = 0
    #: Wall-clock seconds worker processes spent executing dispatched
    #: groups (summed across the pool; the process tier's busy time).
    worker_busy_seconds: float = 0.0
    #: Revision envelopes pushed to subscription consumers (answer
    #: actually changed, or the initial baseline).
    revisions_emitted: int = 0
    #: Mutation epochs a subscription skipped — either the relevance
    #: filter proved the answer could not change, or a re-execution
    #: produced a bit-identical answer.
    revisions_suppressed: int = 0
    #: Chunks re-dispatched after a retryable serving fault (worker
    #: death or stall); the final inline fallback counts once too.
    retries: int = 0
    #: Worker processes killed (or found dead) and respawned.
    worker_restarts: int = 0
    #: Queries failed with :class:`~repro.service.QueryTimeout` because
    #: their deadline passed (in queue or while awaiting the result).
    deadline_misses: int = 0
    #: Simulated page traffic of Step 1 (index descent / leaf reads).
    or_io: IOStats = field(default_factory=IOStats)
    #: Simulated page traffic of Step 2 (secondary pdf fetches).
    pc_io: IOStats = field(default_factory=IOStats)

    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        """OR + PC seconds."""
        return self.object_retrieval + self.probability_computation

    @property
    def page_reads(self) -> int:
        """Total pages read across both phases."""
        return self.or_io.reads + self.pc_io.reads

    @property
    def io(self) -> IOStats:
        """Combined Step-1 + Step-2 traffic (a fresh object)."""
        return IOStats(
            reads=self.or_io.reads + self.pc_io.reads,
            writes=self.or_io.writes + self.pc_io.writes,
        )

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every counter in place."""
        for name, zero in _SCALARS.items():
            setattr(self, name, zero)
        for name in _IO_FIELDS:
            getattr(self, name).reset()

    def snapshot(self) -> "ExecutionStats":
        """An independent copy of the current counters."""
        return _from_flat(self.capture())

    def capture(self) -> tuple:
        """The counters as a flat tuple in :data:`_PATHS` order.

        A cheap pre-query marker for :meth:`delta_since` on serving hot
        paths: one tuple instead of three objects per bracket.
        """
        return _capture(self)

    def delta_since(self, captured: tuple) -> "ExecutionStats":
        """Counters accumulated since a :meth:`capture` marker."""
        return _from_flat(tuple(map(sub, _capture(self), captured)))

    def delta(self, earlier: "ExecutionStats") -> "ExecutionStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return self.delta_since(earlier.capture())

    # ------------------------------------------------------------------
    def add_or(self, seconds: float, io: IOStats | None = None) -> None:
        """Charge one Step-1 episode (time plus optional page traffic)."""
        self.object_retrieval += seconds
        if io is not None:
            self.or_io.reads += io.reads
            self.or_io.writes += io.writes

    def add_pc(self, seconds: float, io: IOStats | None = None) -> None:
        """Charge one Step-2 episode (time plus optional page traffic)."""
        self.probability_computation += seconds
        if io is not None:
            self.pc_io.reads += io.reads
            self.pc_io.writes += io.writes


_FIELDS = fields(ExecutionStats)
#: The per-phase page-traffic fields (each an :class:`IOStats`).  They
#: are declared after every scalar, so the flat order below is also the
#: constructor's positional order.
_IO_FIELDS = tuple(f.name for f in _FIELDS if f.default_factory is IOStats)
#: Every other field (one scalar counter each) and its zero value.
_SCALARS = {f.name: f.default for f in _FIELDS if f.name not in _IO_FIELDS}
_IO_COUNTERS = tuple(f.name for f in fields(IOStats))
#: Every counter as an attribute path: the scalars, then each I/O
#: field's counters (``or_io.reads``, ...).
_PATHS = tuple(_SCALARS) + tuple(
    f"{io}.{counter}" for io in _IO_FIELDS for counter in _IO_COUNTERS
)
_capture = attrgetter(*_PATHS)
_SCALAR_SLICE = slice(len(_SCALARS))
_IO_SLICES = tuple(
    slice(start, start + len(_IO_COUNTERS))
    for start in range(len(_SCALARS), len(_PATHS), len(_IO_COUNTERS))
)


def _from_flat(values: Sequence) -> ExecutionStats:
    """A new :class:`ExecutionStats` holding ``values`` (``_PATHS`` order)."""
    ios: list[Any] = [IOStats(*values[part]) for part in _IO_SLICES]
    return ExecutionStats(*values[_SCALAR_SLICE], *ios)
