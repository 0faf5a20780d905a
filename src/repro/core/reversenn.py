"""Probabilistic reverse nearest neighbor (PRNN) queries.

References [13] (Cheema et al., TKDE 2010) and [14] (Bernecker et al.,
VLDB 2011) study reverse NN queries over uncertain data: given a query
object ``q``, find the database objects that have a non-zero probability
of having ``q`` as *their* nearest neighbor.  The paper's conclusion
names PRNN support as future work for the PV-index.

Semantics (possible-RNN, matching the paper's "non-zero probability"
query class): object ``o`` is an answer iff there exist attribute values
``o.a in u(o)``, ``q.a in u(q)`` and, for every other object ``x``,
values ``x.a in u(x)`` such that ``dist(o.a, q.a) <= dist(o.a, x.a)``.
Because each object's value can be chosen independently (attribute
uncertainty model), this reduces to a per-point condition on ``u(o)``:

``o`` qualifies iff some point ``p in u(o)`` satisfies
``distmin(q, p) <= min_{x != o, q} distmax(x, p)`` — i.e. some possible
position of ``o`` lies inside the PV-cell of ``q`` computed over
``S - {o} + {q}``.

Step-1 filtering uses the spatial-domination machinery: a candidate
``o`` is pruned when some third object ``x`` dominates ``u(o)`` with
respect to ``q`` (``distmax(x, p) < distmin(q, p)`` for all
``p in u(o)``) — then no position of ``o`` can have ``q`` as NN.  The
surviving candidates are resolved exactly on the discrete pdfs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..engine import BaseEngine, FrozenDict, survival_products
from ..engine.batch import _chunk_rows, _distance_tensor
from ..geometry import Rect
from ..geometry.domination import margin_bounds_batch
from ..uncertain import UncertainObject

__all__ = ["ReverseNNResult", "ReverseNNEngine"]


@dataclass(frozen=True)
class ReverseNNResult:
    """Answer of one probabilistic reverse NN query (read-only)."""

    query_region: Rect
    candidate_ids: tuple[int, ...]
    probabilities: Mapping[int, float]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "candidate_ids", tuple(self.candidate_ids)
        )
        object.__setattr__(
            self, "probabilities", FrozenDict(self.probabilities)
        )


class ReverseNNEngine(BaseEngine):
    """PRNN evaluation over an uncertain database.

    Parameters
    ----------
    dataset:
        The uncertain database.
    retriever:
        Accepted for constructor uniformity with the other engines.
        PRNN Step 1 is domination-based over object regions and does
        not consult a point retriever; an index-backed reverse filter
        is a future refinement, and passing one today only wires its
        pager into the shared I/O accounting.
    """

    # ------------------------------------------------------------------
    def candidates(self, query: UncertainObject) -> list[int]:
        """Step 1: ids that may have ``query`` as their nearest neighbor.

        Conservative filter (no false dismissals): candidate ``o``
        survives unless some other object provably dominates all of
        ``u(o)`` with respect to ``query``.
        """
        ids, los, his = self.dataset.packed_regions()
        out: list[int] = []
        for i, oid in enumerate(ids):
            oid = int(oid)
            if oid == query.oid:
                continue
            region = self.dataset[oid].region
            # Other objects' regions, excluding o itself and the query.
            mask = np.ones(len(ids), dtype=bool)
            mask[i] = False
            if query.oid in self.dataset:
                mask &= ids != query.oid
            if not mask.any():
                out.append(oid)
                continue
            _mins, maxs = margin_bounds_batch(
                los[mask], his[mask], query.region, region
            )
            # maxs[j] < 0 would mean x_j dominates u(o) wrt q over all of
            # u(o) — wrong direction; we need domination of x over q.
            # margin f = distmax(x, p)^2 - distmin(q, p)^2 with
            # a := x, b := q, region := u(o):  max_p f < 0 means every
            # position of o is certainly closer to x than it can ever be
            # to q, so q can never be o's NN.
            if bool((maxs < 0.0).any()):
                continue
            out.append(oid)
        return out

    # ------------------------------------------------------------------
    def query(self, query: UncertainObject) -> ReverseNNResult:
        """Full PRNN: Step-1 filter, then exact instance-level check.

        Probabilities follow the discrete semantics of [13]: for each
        instance ``p`` of candidate ``o`` (weight ``w``), ``q`` is the NN
        of ``o`` at ``p`` with probability
        ``Pr[dist(q, p) <= min_x dist(x, p)]`` computed instance-wise
        over the independent pdfs; the candidate's probability is the
        weighted sum.
        """
        return self._run(query, {})

    def query_batch(self, queries) -> list[ReverseNNResult]:
        """PRNN answers for many query objects."""
        return self._run_batch(queries, {})

    # -- BaseEngine hooks ----------------------------------------------
    def _prepare(self, query: UncertainObject, params: dict):
        return query

    def _query_key(self, q: UncertainObject, params: dict):
        return (
            q.oid,
            q.instances.tobytes(),
            q.weights.tobytes(),
            np.asarray(q.region.lo).tobytes(),
            np.asarray(q.region.hi).tobytes(),
        )

    def _retrieve(self, q: UncertainObject, params: dict) -> list[int]:
        return self.candidates(q)

    def _compute(
        self, q: UncertainObject, ids: list[int], params: dict
    ) -> ReverseNNResult:
        probabilities: dict[int, float] = {}
        for oid in ids:
            prob = self._instance_probability(oid, q)
            if prob > 0.0:
                probabilities[oid] = prob
        return ReverseNNResult(
            query_region=q.region,
            candidate_ids=ids,
            probabilities=probabilities,
        )

    def _instance_probability(
        self, oid: int, query: UncertainObject
    ) -> float:
        """Exact Pr[query is the NN of object ``oid``] on discrete pdfs."""
        obj = self.dataset[oid]
        other_ids = [
            x.oid
            for x in self.dataset
            if x.oid != oid and x.oid != query.oid
        ]

        # Distances from each instance of o to each instance of q.
        diff = obj.instances[:, None, :] - query.instances[None, :, :]
        dq = np.sqrt(np.einsum("mnd,mnd->mn", diff, diff))  # (m, nq)
        if not other_ids:
            # Empty competitor product: q is o's NN with certainty.
            total = float(obj.weights.sum() * query.weights.sum())
            return float(np.clip(total, 0.0, 1.0))

        # o's instances play the kernel's query-row axis: one gather of
        # every competitor pdf, one (m, n_others, m_x) distance tensor,
        # and the survival products evaluated at the query-instance
        # radii — chunked over o's instances to bound peak memory.
        t0 = time.perf_counter()
        block = self.dataset.instance_store().gather(other_ids)
        self.stats.kernel_gather_seconds += time.perf_counter() - t0

        t1 = time.perf_counter()
        n_o, m_x = block.weights.shape
        # Same sizing as the main kernel: the budget must cover the
        # tie fallback's materialized survival tensors, not just the
        # log walk (tied coordinates are exactly when it matters).
        step = _chunk_rows(len(obj.instances), n_o, m_x)
        total = 0.0
        for lo in range(0, len(obj.instances), step):
            points = obj.instances[lo : lo + step]
            D = _distance_tensor(block.instances, points)
            prod = survival_products(D, block.weights, dq[lo : lo + step])
            total += float(
                np.dot(obj.weights[lo : lo + step], prod @ query.weights)
            )
        self.stats.kernel_eval_seconds += time.perf_counter() - t1
        return float(np.clip(total, 0.0, 1.0))
