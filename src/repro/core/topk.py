"""Top-k probable nearest neighbor queries.

Reference [10] of the paper (Beskales, Soliman, Ilyas, VLDB 2008)
studies retrieving the ``k`` objects most likely to be the nearest
neighbor of a query point.  The paper's conclusion lists supporting
such query variants through the PV-index as future work; this module
provides that support.

The evaluation reuses the PNNQ pipeline:

1. Step 1 through any :class:`~repro.core.pnnq.Retriever` (PV-index,
   R-tree, UV-index) — the top-k answer can only contain objects with
   non-zero qualification probability, so the PV-cell filter applies
   unchanged.
2. A bound-based pruning pass (:func:`~repro.core.verifier.probability_bounds`)
   discards candidates whose upper probability bound cannot reach the
   current k-th lower bound.
3. Exact Step-2 evaluation of the survivors, returning the k largest.

For small candidate sets step 2 is skipped — exact evaluation of a
handful of candidates is cheaper than computing histogram bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import BaseEngine, readonly_array
from ..uncertain import UncertainDataset
from .pnnq import Retriever, qualification_probabilities
from .verifier import probability_bounds

__all__ = ["TopKResult", "TopKEngine"]

#: Candidate-set size below which bound-based pruning is not worth it.
_EXACT_THRESHOLD = 8


@dataclass(frozen=True)
class TopKResult:
    """Answer of one top-k probable NN query (deeply read-only)."""

    query: np.ndarray
    k: int
    #: ``(oid, probability)`` pairs, descending by probability.
    ranking: tuple[tuple[int, float], ...]
    #: Candidates removed by bound-based pruning (never exactly evaluated).
    pruned: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "query", readonly_array(self.query))
        object.__setattr__(self, "ranking", tuple(self.ranking))

    @property
    def ids(self) -> tuple[int, ...]:
        """Object ids of the ranking, most probable first."""
        return tuple(oid for oid, _ in self.ranking)


class TopKEngine(BaseEngine):
    """Top-k probable NN evaluation over any Step-1 retriever.

    Parameters
    ----------
    dataset:
        The uncertain database (pdf source).
    retriever:
        The Step-1 index (``None`` falls back to brute force).
    n_bins:
        Histogram resolution for the pruning bounds.
    """

    def __init__(
        self,
        dataset: UncertainDataset,
        retriever: Retriever | None = None,
        n_bins: int = 8,
        *,
        secondary=None,
        result_cache_size: int = 0,
    ) -> None:
        super().__init__(
            dataset,
            retriever,
            secondary=secondary,
            result_cache_size=result_cache_size,
        )
        self.n_bins = n_bins

    def query(self, query: np.ndarray, k: int = 1) -> TopKResult:
        """The ``k`` objects most likely to be the NN of ``query``.

        Fewer than ``k`` pairs are returned when fewer candidates have
        non-zero probability.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._run(query, {"k": k})

    def query_batch(self, queries, k: int = 1) -> list[TopKResult]:
        """Top-k rankings for many query points."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._run_batch(queries, {"k": k})

    # -- BaseEngine hooks ----------------------------------------------
    def _compute(
        self, q: np.ndarray, ids: list[int], params: dict
    ) -> TopKResult:
        k = params["k"]
        pruned = 0
        survivors = list(ids)
        if len(ids) > max(k, _EXACT_THRESHOLD):
            bounds = probability_bounds(
                self.dataset, ids, q, self.n_bins, stats=self.stats
            )
            # The k-th highest lower bound is a floor for the answer set;
            # anything whose upper bound falls below it is out.
            lowers = sorted(
                (b.lower for b in bounds.values()), reverse=True
            )
            floor = lowers[k - 1] if len(lowers) >= k else 0.0
            survivors = [
                oid for oid in ids if bounds[oid].upper >= floor
            ]
            pruned = len(ids) - len(survivors)

        # All candidates stay in the competitor set (their distance
        # distributions shape every survival product); only survivors
        # get the per-candidate evaluation loop.
        probabilities = qualification_probabilities(
            self.dataset, ids, q, evaluate_ids=survivors, stats=self.stats
        )
        ranking = sorted(
            probabilities.items(), key=lambda kv: (-kv[1], kv[0])
        )[:k]
        return TopKResult(
            query=q,
            k=k,
            ranking=tuple(ranking),
            pruned=pruned,
        )
