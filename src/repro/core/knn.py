"""Probabilistic k-nearest-neighbor (k-PNN) queries.

Generalizes the paper's PNNQ (k = 1) to "objects with non-zero
probability of being among the k nearest neighbors of q", the query
class of Beskales et al. [10] and Cheng et al. [11].

* **Step 1** — candidate filter: object ``o`` can be among the k
  nearest iff ``distmin(o, q)`` is at most the k-th smallest
  ``distmax(x, q)`` over all objects.  (If k objects are *certainly*
  closer than ``o`` can ever be, ``o`` can never make the top k.)
  The PV-index accelerates the k = 1 case; for general k the filter
  runs over any retriever's superset or the whole database — it is a
  single vectorized pass.

* **Step 2** — exact probabilities on the discrete pdfs.  For each
  instance ``p`` of ``o`` (weight ``w``), the number of *other*
  candidates closer than ``p`` is a sum of independent Bernoulli
  variables (one per candidate, success probability
  ``Pr[dist(x, q) < |p - q|]``) — a Poisson-binomial distribution.
  ``Pr[o among k-NN at p] = Pr[at most k-1 successes]``, computed by
  the standard O(n·k) dynamic program per instance.

Invariant (tested): summing ``Pr[o in top-k]`` over all objects gives
exactly ``min(k, |candidates|)`` — the expected size of the answer set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..engine import (
    BaseEngine,
    FrozenDict,
    element_survivals,
    readonly_array,
)
from ..engine.batch import _distance_tensor
from ..engine.retrievers import minmax_sq_chunks

__all__ = ["KNNResult", "KNNEngine"]


@dataclass(frozen=True)
class KNNResult:
    """Answer of one probabilistic k-NN query (deeply read-only)."""

    query: np.ndarray
    k: int
    candidate_ids: tuple[int, ...]
    #: oid -> Pr[object is among the k nearest neighbors of the query].
    probabilities: Mapping[int, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "query", readonly_array(self.query))
        object.__setattr__(
            self, "candidate_ids", tuple(self.candidate_ids)
        )
        object.__setattr__(
            self, "probabilities", FrozenDict(self.probabilities)
        )

    def top(self, n: int | None = None) -> list[tuple[int, float]]:
        """``(oid, probability)`` pairs, most probable first."""
        ranked = sorted(
            self.probabilities.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked if n is None else ranked[:n]


class KNNEngine(BaseEngine):
    """k-PNN evaluation over an uncertain database.

    Parameters
    ----------
    dataset:
        The uncertain database.
    retriever:
        Optional Step-1 index.  For k = 1 its candidate set is used
        directly; for k > 1 the engine widens it with the exact
        k-th-maxdist filter over the whole database (still one
        vectorized pass — the index saves work only for k = 1, which
        is the case the paper's PV-index targets).
    """

    # ------------------------------------------------------------------
    def candidates(self, query: np.ndarray, k: int = 1) -> list[int]:
        """Step 1: ids with non-zero probability of making the top k."""
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(query, dtype=np.float64)
        if k == 1 and self.has_index:
            return list(self.retriever.candidates(q))

        ids, los, his = self.dataset.packed_regions()
        if len(ids) <= k:
            return [int(i) for i in ids]
        min_sq, max_sq = next(minmax_sq_chunks(q[None, :], los, his))
        kth_max = np.partition(max_sq[0], k - 1)[k - 1]
        keep = min_sq[0] <= kth_max
        return [int(i) for i in ids[keep]]

    # ------------------------------------------------------------------
    def query(self, query: np.ndarray, k: int = 1) -> KNNResult:
        """Full k-PNN: Step-1 filter, then exact Poisson-binomial Step 2."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._run(query, {"k": k})

    def query_batch(self, queries, k: int = 1) -> list[KNNResult]:
        """Many k-PNNs; identical queries are answered once, and the
        k-th-maxdist filter runs per distinct query."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._run_batch(queries, {"k": k})

    # -- BaseEngine hooks ----------------------------------------------
    def _retrieve(self, q: np.ndarray, params: dict) -> list[int]:
        return self.candidates(q, params["k"])

    def _compute(
        self, q: np.ndarray, ids: list[int], params: dict
    ) -> KNNResult:
        k = params["k"]
        probabilities = self._probabilities(ids, q, k)
        return KNNResult(
            query=q, k=k, candidate_ids=ids,
            probabilities=probabilities,
        )

    def _probabilities(
        self, ids: list[int], q: np.ndarray, k: int
    ) -> dict[int, float]:
        if not ids:
            return {}
        if len(ids) <= k:
            return {oid: 1.0 for oid in ids}

        # One packed-store gather + one distance einsum for the whole
        # candidate set; padded entries carry weight exactly 0.
        t0 = time.perf_counter()
        block = self.dataset.instance_store().gather(ids)
        self.stats.kernel_gather_seconds += time.perf_counter() - t0

        t1 = time.perf_counter()
        D = _distance_tensor(
            block.instances, np.asarray(q, dtype=np.float64)[None, :]
        )
        n, m = block.weights.shape
        W = block.weights
        # All "Pr[dist(x, q) < r]" factors in one pass: the survival
        # tensor of every candidate at every instance distance (the
        # self column is excluded below and never consumed).
        closer = 1.0 - element_survivals(D, W)[0].reshape(n, n, m)
        out: dict[int, float] = {}
        for i in range(n):
            # Bernoulli success probabilities of the *other*
            # candidates at candidate i's instance distances.
            p = np.delete(closer[:, i, :], i, axis=0)
            # Poisson-binomial DP, vectorized over instances:
            # dp[j, s] = Pr[exactly j of the first t others closer
            # than instance s]; we only need j <= k-1.
            dp = np.zeros((k, m))
            dp[0] = 1.0
            for t in range(len(p)):
                pt = p[t]
                # Update in place from high j to low (knapsack style).
                for j in range(min(t + 1, k - 1), 0, -1):
                    dp[j] = dp[j] * (1.0 - pt) + dp[j - 1] * pt
                dp[0] = dp[0] * (1.0 - pt)
            tail = dp.sum(axis=0)  # Pr[at most k-1 others closer]
            out[ids[i]] = float(
                np.clip(np.dot(W[i], tail), 0.0, 1.0)
            )
        self.stats.kernel_eval_seconds += time.perf_counter() - t1
        return out
