"""Expected-distance nearest neighbor — the semantics of reference [33].

The paper's related work (Section II) contrasts PNNQ with the *expected
Voronoi diagram* of Agarwal et al. (PODS 2012), which answers nearest
neighbor queries by **expected distance**: the answer to a query ``q``
is ``argmin_o E[dist(o, q)]`` — a single object, not a probability
distribution.

This module implements that comparator over the same discrete-pdf model
so the two semantics can be compared on identical data (the expected-NN
winner is often, but not always, the most probable NN — the divergence
cases are exactly what motivates probabilistic semantics):

* :func:`expected_distance` — ``E[dist(o, q)]`` for one object.
* :class:`ExpectedNNEngine` — full ranking by expected distance, with a
  cheap rectangle-bound prefilter (``E[dist]`` is bracketed by
  ``[distmin, distmax]``, so objects whose ``distmin`` exceeds the
  smallest ``distmax`` can never win).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import BaseEngine, instance_distance_matrix, readonly_array
from ..uncertain import UncertainDataset

__all__ = ["expected_distance", "ExpectedNNResult", "ExpectedNNEngine"]


def expected_distance(
    dataset: UncertainDataset, oid: int, query: np.ndarray
) -> float:
    """``E[dist(o, q)]`` under the object's discrete pdf."""
    q = np.asarray(query, dtype=np.float64)
    obj = dataset[oid]
    return float(np.dot(obj.weights, obj.distance_samples(q)))


@dataclass(frozen=True)
class ExpectedNNResult:
    """Answer of one expected-distance NN query (deeply read-only)."""

    query: np.ndarray
    #: ``(oid, expected distance)`` ascending by distance.
    ranking: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "query", readonly_array(self.query))
        object.__setattr__(self, "ranking", tuple(self.ranking))

    @property
    def best(self) -> int:
        """The expected-distance nearest neighbor."""
        if not self.ranking:
            raise ValueError("empty result")
        return self.ranking[0][0]


class ExpectedNNEngine(BaseEngine):
    """Expected-distance NN over an uncertain database ([33] semantics).

    Parameters
    ----------
    dataset:
        The uncertain database.
    retriever:
        Optional Step-1 index.  The expected-NN winner always survives
        the min-max filter (``distmin <= E[dist] <= distmax``), so any
        PNNQ retriever is a valid Step-1 source; the default is the
        brute-force filter the seed engine used.
    """

    def candidates(self, query: np.ndarray) -> list[int]:
        """Objects that can minimize the expected distance.

        Since ``distmin(o, q) <= E[dist(o, q)] <= distmax(o, q)``, any
        object whose ``distmin`` exceeds the smallest ``distmax`` is
        out.  This is the same min-max filter PNNQ Step 1 uses, so the
        expected-NN candidate set is a subset of the PNNQ one.
        """
        q = np.asarray(query, dtype=np.float64)
        return self.retriever.candidates(q)

    def query(self, query: np.ndarray, top: int | None = None
              ) -> ExpectedNNResult:
        """Rank the candidates by expected distance (ascending)."""
        return self._run(query, {"top": top})

    def query_batch(
        self, queries, top: int | None = None
    ) -> list[ExpectedNNResult]:
        """Expected-distance rankings for many query points."""
        return self._run_batch(queries, {"top": top})

    # -- BaseEngine hooks ----------------------------------------------
    def _compute(
        self, q: np.ndarray, ids: list[int], params: dict
    ) -> ExpectedNNResult:
        if not ids:
            return ExpectedNNResult(query=q, ranking=())
        # One packed gather: E[dist] for all candidates is a single
        # weighted row sum of the distance matrix (padding weighs 0).
        D, W = instance_distance_matrix(
            self.dataset, ids, q, stats=self.stats
        )
        expected = np.einsum("nm,nm->n", D, W)
        ranked = sorted(
            zip(ids, (float(e) for e in expected)),
            key=lambda pair: (pair[1], pair[0]),
        )
        top = params["top"]
        if top is not None:
            ranked = ranked[:top]
        return ExpectedNNResult(query=q, ranking=tuple(ranked))
