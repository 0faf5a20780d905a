"""Probabilistic group nearest neighbor (PGNN) queries.

Reference [12] of the paper (Lian and Chen, TKDE 2008) studies group
nearest neighbor queries over uncertain data: given a *set* ``Q`` of
query points, find the objects that may minimize an aggregate distance

``adist(o, Q) = agg_{q in Q} dist(o, q)``   with ``agg`` one of
``sum`` / ``max`` / ``min``.

The paper's conclusion names PGNN support as future work for the
PV-index.  This module provides it, generalizing the PNNQ pipeline:

* **Step 1** — candidate filtering with aggregate min/max distance
  bounds.  For each object the aggregate of per-point ``distmin`` is a
  lower bound of its aggregate distance, and the aggregate of
  ``distmax`` an upper bound (all three aggregates are monotone).  An
  object whose lower bound exceeds the smallest upper bound can never
  be the group NN — the multi-point analogue of the min-max filter the
  indexes use for single-point queries.
* **Step 2** — exact qualification probabilities from the discrete
  pdfs, evaluated by the same survival-function construction as
  :func:`~repro.core.pnnq.qualification_probabilities`, applied to each
  instance's aggregate distance.

The Step-1 prefilter runs over the whole dataset by default, or over a
candidate superset produced by a Step-1 index (the union of per-point
candidate sets is a correct superset for ``min``; for ``sum`` / ``max``
the filter itself is cheap enough to run unindexed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Literal, Mapping

import numpy as np

from ..engine import (
    BaseEngine,
    FrozenDict,
    element_survival_probabilities,
    readonly_array,
)
from ..geometry import maxdist_sq_point_rect, mindist_sq_point_rect

__all__ = ["Aggregate", "GroupNNResult", "GroupNNEngine"]

Aggregate = Literal["sum", "max", "min"]

_AGGREGATORS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sum": lambda d: d.sum(axis=-1),
    "max": lambda d: d.max(axis=-1),
    "min": lambda d: d.min(axis=-1),
}


@dataclass(frozen=True)
class GroupNNResult:
    """Answer of one probabilistic group NN query (deeply read-only)."""

    queries: np.ndarray
    aggregate: str
    candidate_ids: tuple[int, ...]
    probabilities: Mapping[int, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries", readonly_array(self.queries))
        object.__setattr__(
            self, "candidate_ids", tuple(self.candidate_ids)
        )
        object.__setattr__(
            self, "probabilities", FrozenDict(self.probabilities)
        )

    @property
    def best(self) -> int:
        """Id of the most probable group NN."""
        if not self.probabilities:
            raise ValueError("empty result")
        return max(self.probabilities, key=self.probabilities.__getitem__)


class GroupNNEngine(BaseEngine):
    """PGNN evaluation over an uncertain database.

    Parameters
    ----------
    dataset:
        The uncertain database.
    retriever:
        Optional Step-1 index used to pre-narrow candidates for the
        ``min`` aggregate (union of per-point PNNQ candidates); ``sum``
        and ``max`` always use the direct aggregate-bound filter.
    """

    # ------------------------------------------------------------------
    def candidates(
        self, queries: np.ndarray, aggregate: Aggregate = "sum"
    ) -> list[int]:
        """Step 1: ids with non-zero probability of being the group NN.

        Exact filter: keep ``o`` iff ``aggmin(o, Q) <= min_x aggmax(x, Q)``.
        """
        q = self._validate_queries(queries)
        agg = _AGGREGATORS[aggregate]

        ids = self.dataset.ids
        if self.has_index and aggregate == "min":
            # The min-aggregate group NN must be the single-point NN of
            # at least one query point, so the union of per-point
            # candidate sets is a correct superset.
            pool: set[int] = set()
            for point in q:
                pool.update(self.retriever.candidates(point))
            ids = sorted(pool)
        if not ids:
            return []

        lows = np.empty((len(ids), len(q)))
        highs = np.empty((len(ids), len(q)))
        for i, oid in enumerate(ids):
            region = self.dataset[oid].region
            for j, point in enumerate(q):
                lows[i, j] = np.sqrt(
                    mindist_sq_point_rect(point, region)
                )
                highs[i, j] = np.sqrt(
                    maxdist_sq_point_rect(point, region)
                )
        agg_low = agg(lows)
        agg_high = agg(highs)
        bound = agg_high.min()
        return [
            oid for oid, lo in zip(ids, agg_low) if lo <= bound
        ]

    # ------------------------------------------------------------------
    def query(
        self, queries: np.ndarray, aggregate: Aggregate = "sum"
    ) -> GroupNNResult:
        """Full PGNN: Step-1 filter, then exact probabilities."""
        if aggregate not in _AGGREGATORS:
            raise KeyError(aggregate)
        return self._run(queries, {"aggregate": aggregate})

    def query_batch(
        self, query_sets, aggregate: Aggregate = "sum"
    ) -> list[GroupNNResult]:
        """PGNN answers for many query-point *sets*."""
        if aggregate not in _AGGREGATORS:
            raise KeyError(aggregate)
        return self._run_batch(query_sets, {"aggregate": aggregate})

    # -- BaseEngine hooks ----------------------------------------------
    def _prepare(self, query, params: dict) -> np.ndarray:
        return self._validate_queries(query)

    def _retrieve(self, q: np.ndarray, params: dict) -> list[int]:
        return self.candidates(q, params["aggregate"])

    def _compute(
        self, q: np.ndarray, ids: list[int], params: dict
    ) -> GroupNNResult:
        aggregate = params["aggregate"]
        probabilities = self._probabilities(ids, q, aggregate)
        return GroupNNResult(
            queries=q,
            aggregate=aggregate,
            candidate_ids=ids,
            probabilities=probabilities,
        )

    def _probabilities(
        self, ids: list[int], q: np.ndarray, aggregate: Aggregate
    ) -> dict[int, float]:
        """Exact Pr[o minimizes the aggregate distance] per candidate.

        Same construction as single-point Step 2, with each instance's
        scalar distance replaced by its aggregate distance to ``Q``.
        """
        if not ids:
            return {}
        if len(ids) == 1:
            return {ids[0]: 1.0}
        agg = _AGGREGATORS[aggregate]

        # One packed gather; each instance's scalar distance is its
        # aggregate distance to Q, then the shared survival-product
        # kernel runs unchanged (padded entries carry weight 0).
        t0 = time.perf_counter()
        block = self.dataset.instance_store().gather(ids)
        self.stats.kernel_gather_seconds += time.perf_counter() - t0

        t1 = time.perf_counter()
        diff = block.instances[:, :, None, :] - q[None, None, :, :]
        D = agg(np.sqrt(np.einsum("nmqd,nmqd->nmq", diff, diff)))
        P = element_survival_probabilities(D[None], block.weights)[0]
        self.stats.kernel_eval_seconds += time.perf_counter() - t1
        return {oid: float(P[i]) for i, oid in enumerate(ids)}

    # ------------------------------------------------------------------
    def _validate_queries(self, queries: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if q.ndim != 2 or q.shape[0] == 0:
            raise ValueError("queries must be a non-empty (n, d) array")
        if q.shape[1] != self.dataset.dims:
            raise ValueError(
                f"query dimensionality {q.shape[1]} does not match "
                f"dataset dimensionality {self.dataset.dims}"
            )
        return q
