"""Immutable result envelopes and declarative query specs.

Every :class:`~repro.api.Database` query returns a frozen
:class:`QueryResult` — the raw engine answer plus the :class:`Plan`
that produced it and an :class:`~repro.engine.ExecutionStats` delta
covering exactly that execution.  Batches are declared with
:class:`QuerySpec` values, built via the :class:`Q` constructors::

    db.batch([Q.nn([5.0, 5.0]), Q.knn([1.0, 2.0], k=3)])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..engine import ExecutionStats, FrozenDict
from .planner import Plan

__all__ = ["QueryResult", "QuerySpec", "Q"]


@dataclass(frozen=True)
class QuerySpec:
    """One declarative query: a kind, its input, and its parameters.

    ``params`` is a sorted ``(name, value)`` tuple so specs with equal
    parameters hash and compare equal — the identity the planner's
    plan cache and the batch grouping key off.
    """

    kind: str
    query: Any
    params: tuple[tuple[str, Any], ...] = ()

    def kwargs(self) -> dict[str, Any]:
        """The parameters as engine keyword arguments."""
        return dict(self.params)


class Q:
    """Constructors for :class:`QuerySpec` values.

    The one place each verb's parameter names and defaults are spelled:
    ``db.batch`` input, and the spec behind every ``Database`` and
    ``Session`` verb, ``db.explain`` and ``db.subscribe``.
    """

    @staticmethod
    def nn(query: Any) -> QuerySpec:
        """Probabilistic NN (the paper's PNNQ) at a point."""
        return QuerySpec("nn", query)

    @staticmethod
    def knn(query: Any, k: int = 1) -> QuerySpec:
        """Probabilistic k-NN at a point."""
        return QuerySpec("knn", query, (("k", k),))

    @staticmethod
    def topk(query: Any, k: int = 1) -> QuerySpec:
        """Top-k most probable NNs at a point."""
        return QuerySpec("topk", query, (("k", k),))

    @staticmethod
    def threshold(query: Any, p: float = 0.1) -> QuerySpec:
        """Threshold PNNQ: which objects have probability >= ``p``."""
        return QuerySpec("threshold", query, (("tau", p),))

    @staticmethod
    def group_nn(queries: Any, aggregate: str = "sum") -> QuerySpec:
        """Group NN over a set of query points."""
        return QuerySpec("group_nn", queries, (("aggregate", aggregate),))

    @staticmethod
    def reverse_nn(query_object: Any) -> QuerySpec:
        """Reverse NN of an uncertain query object."""
        return QuerySpec("reverse_nn", query_object)

    @staticmethod
    def expected_nn(query: Any, top: int | None = None) -> QuerySpec:
        """Expected-distance NN ranking at a point."""
        return QuerySpec("expected_nn", query, (("top", top),))


@dataclass(frozen=True)
class QueryResult:
    """Frozen envelope around one executed query.

    Attributes
    ----------
    kind:
        The query class (``"nn"``, ``"knn"``, ...).
    answer:
        The engine's own (deeply read-only) result object — e.g. a
        :class:`~repro.core.pnnq.PNNQResult`, or a read-only decision
        mapping for ``threshold`` queries.
    plan:
        The :class:`Plan` that chose the Step-1 retriever.
    stats:
        An :class:`~repro.engine.ExecutionStats` *delta* covering
        exactly this execution (for ``db.batch``, the whole group the
        query executed with — batched work is not separable per query).
    """

    kind: str
    answer: Any
    plan: Plan
    stats: ExecutionStats

    @property
    def epoch(self) -> int:
        """The dataset mutation epoch this answer is consistent with.

        Under the serving layer's mutation barriers every read executes
        against exactly one epoch; this is that epoch (the one the plan
        was made — and the query ran — at).
        """
        return self.plan.epoch

    @property
    def probabilities(self) -> Mapping[int, float] | None:
        """Per-object probabilities, uniformly across query classes.

        ``nn`` / ``knn`` / ``group_nn`` / ``reverse_nn`` expose their
        probability mapping directly; ``topk`` converts its ranking;
        ``threshold`` and ``expected_nn`` answers carry no
        probabilities and return ``None``.
        """
        probs = getattr(self.answer, "probabilities", None)
        if probs is not None:
            return probs
        if self.kind == "topk":
            return FrozenDict(self.answer.ranking)
        return None

    @property
    def best(self) -> int | None:
        """The top-ranked object id, when the answer defines one."""
        answer_best = getattr(self.answer, "best", None)
        if answer_best is not None:
            return answer_best
        if self.kind == "topk" and self.answer.ranking:
            return self.answer.ranking[0][0]
        return None

    def __repr__(self) -> str:
        return (
            f"QueryResult(kind={self.kind!r}, "
            f"retriever={self.plan.retriever!r}, "
            f"or={self.stats.object_retrieval * 1e3:.2f}ms, "
            f"pc={self.stats.probability_computation * 1e3:.2f}ms)"
        )
