"""End-to-end probabilistic nearest neighbor queries (PNNQ).

Step 1 (object retrieval, "OR") is delegated to a pluggable retriever —
the PV-index, the R-tree branch-and-prune baseline, or the UV-index.
Step 2 (probability computation, "PC") follows the method of reference
[8] (Cheng et al., TKDE 2004) applied to the discrete pdf model: the
qualification probability of candidate ``o_i`` is

``P_i = Σ_s  w_i(s) · Π_{j ≠ i}  Pr[ dist(o_j, q) > dist(s, q) ]``

where ``s`` ranges over ``o_i``'s instances.  For discrete pdfs each
inner factor is a survival function of the candidate's instance-distance
distribution, evaluated here with sorted arrays and ``searchsorted`` —
the numpy equivalent of [8]'s one-dimensional integration over distance.

Both steps are timed separately (the Figure 9(b)/(f) split) and every
candidate's pdf fetch is charged as secondary-index I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..engine import (
    BaseEngine,
    ExecutionStats,
    FrozenDict,
    Retriever,
    batched_qualification_probabilities,
    group_by_candidates,
    readonly_array,
)
from ..uncertain import UncertainDataset

__all__ = [
    "PNNQResult",
    "Retriever",
    "PNNQEngine",
    "qualification_probabilities",
]

@dataclass(frozen=True)
class PNNQResult:
    """Answer of one PNNQ.

    Deeply read-only (results are shared by the LRU cache and batch
    dedup): ``candidate_ids`` is a tuple, ``probabilities`` a
    :class:`~repro.engine.FrozenDict`, and ``query`` a non-writeable
    copy.
    """

    query: np.ndarray
    candidate_ids: tuple[int, ...]
    probabilities: Mapping[int, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "query", readonly_array(self.query))
        object.__setattr__(
            self, "candidate_ids", tuple(self.candidate_ids)
        )
        object.__setattr__(
            self, "probabilities", FrozenDict(self.probabilities)
        )

    @property
    def best(self) -> int:
        """Id of the most probable nearest neighbor."""
        if not self.probabilities:
            raise ValueError("empty result")
        return max(self.probabilities, key=self.probabilities.__getitem__)


def qualification_probabilities(
    dataset: UncertainDataset,
    candidate_ids: list[int],
    query: np.ndarray,
    evaluate_ids: list[int] | None = None,
    *,
    stats: ExecutionStats | None = None,
) -> dict[int, float]:
    """Step 2 for a given candidate set (discrete-pdf evaluation of [8]).

    Exact with respect to the discrete instance model: sums over each
    candidate's instances the weight times the product over the other
    candidates of the probability that their distance is strictly
    greater.  Ties (equal distances) are counted half toward "greater",
    a symmetric convention that keeps the probabilities summing to one
    in expectation over continuous inputs.

    ``evaluate_ids`` restricts *whose* probabilities are returned; every
    member of ``candidate_ids`` still participates as a competitor in
    the survival products, so the returned values are exact.  Used by
    bound-based pruning (top-k, verifier) to skip the per-candidate
    evaluation loop for objects already known to lose.

    The math lives in one place —
    :func:`~repro.engine.batch.batched_qualification_probabilities` —
    of which this is the single-query (``b = 1``) view.
    """
    q = np.asarray(query, dtype=np.float64)
    return batched_qualification_probabilities(
        dataset, candidate_ids, np.atleast_2d(q),
        evaluate_ids=evaluate_ids, stats=stats,
    )[0]


class PNNQEngine(BaseEngine):
    """Step 1 + Step 2 orchestration with the paper's instrumentation.

    Parameters
    ----------
    dataset:
        The uncertain database (pdf source for Step 2).
    retriever:
        The Step-1 index (must implement :meth:`candidates`); ``None``
        falls back to the exact brute-force min-max filter.
    secondary:
        Optional extensible hash table; when provided, each candidate's
        pdf fetch is routed through it so Step-2 I/O is charged (the
        PV-index passes its own secondary index here).

    Timing, page I/O, and cache behavior live on :attr:`stats` (an
    :class:`~repro.engine.ExecutionStats`); ``result_cache_size`` is
    forwarded to :class:`~repro.engine.BaseEngine`.
    """

    def query(self, query: np.ndarray) -> PNNQResult:
        """Evaluate one PNNQ, timing OR and PC separately."""
        return self._run(query, {})

    def query_batch(self, queries) -> list[PNNQResult]:
        """Evaluate many PNNQs, sharing Step-1 work and vectorizing
        Step 2 across queries with a common candidate set."""
        return self._run_batch(queries, {})

    # -- BaseEngine hooks ----------------------------------------------
    def _compute(
        self, q: np.ndarray, ids: list[int], params: dict
    ) -> PNNQResult:
        probabilities = qualification_probabilities(
            self.dataset, ids, q, stats=self.stats
        )
        return PNNQResult(
            query=q, candidate_ids=ids, probabilities=probabilities
        )

    def _compute_batch(
        self,
        qs: list[np.ndarray],
        ids_list: list[list[int]],
        params: dict,
    ) -> list[PNNQResult]:
        """Group queries by candidate set and batch Step 2 per group."""
        results: list[PNNQResult | None] = [None] * len(qs)
        for ids_key, positions in group_by_candidates(ids_list).items():
            ids = list(ids_key)
            if len(positions) == 1:
                pos = positions[0]
                results[pos] = self._compute(qs[pos], ids, params)
                continue
            block = np.stack([qs[pos] for pos in positions])
            prob_maps = batched_qualification_probabilities(
                self.dataset, ids, block, stats=self.stats
            )
            for pos, probs in zip(positions, prob_maps):
                results[pos] = PNNQResult(
                    query=qs[pos], candidate_ids=ids, probabilities=probs
                )
        return results  # type: ignore[return-value]
