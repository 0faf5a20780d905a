"""Probabilistic verifiers — bound-based pruning for PNNQ Step 2.

Reference [11] (Cheng et al., ICDE 2008) accelerates Step 2 by deriving
cheap lower/upper bounds on each candidate's qualification probability
before (or instead of) the expensive exact evaluation.  The paper's
footnote 11 observes that with such fast Step-2 methods, Step-1 cost
dominates even more — the motivation for the PV-index.

This module implements that idea for the discrete-pdf model:

* ``probability_bounds`` — per-candidate ``[L_i, U_i]`` intervals from
  coarse distance-histogram reasoning (a small number of radius
  breakpoints rather than all instances).
* ``VerifierEngine.query`` — a drop-in Step-2 replacement that first
  tries to classify candidates using the bounds against a probability
  threshold, falling back to the exact computation only for candidates
  whose interval straddles the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import BaseEngine, ExecutionStats, FrozenDict
from ..engine.batch import _rank_cumweights, instance_distance_matrix
from ..uncertain import UncertainDataset
from .pnnq import Retriever, qualification_probabilities

__all__ = ["ProbabilityBounds", "probability_bounds", "VerifierEngine"]


@dataclass(frozen=True)
class ProbabilityBounds:
    """A lower/upper bound pair for a candidate's probability."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (
            -1e-9 <= self.lower <= self.upper + 1e-9
            and self.upper <= 1.0 + 1e-9
        ):
            raise ValueError(
                f"invalid bounds [{self.lower}, {self.upper}]"
            )

    def contains(self, p: float) -> bool:
        """True iff ``p`` is consistent with the interval."""
        return self.lower - 1e-9 <= p <= self.upper + 1e-9


def probability_bounds(
    dataset: UncertainDataset,
    candidate_ids: list[int],
    query: np.ndarray,
    n_bins: int = 8,
    *,
    stats: ExecutionStats | None = None,
) -> dict[int, ProbabilityBounds]:
    """Bound each candidate's qualification probability with histograms.

    The distance distribution of each candidate is summarized by
    ``n_bins`` quantile breakpoints.  For candidate ``i`` with distance
    bin ``[r_lo, r_hi]`` of mass ``w``:

    * optimistic factor — every rival is farther than ``r_lo`` with its
      own maximal survival;
    * pessimistic factor — rivals are only counted as farther when their
      entire support exceeds ``r_hi``.

    The result brackets the exact value computed by
    :func:`qualification_probabilities` (asserted by property tests) at
    a fraction of its cost for large instance counts.  Distances come
    from one packed-store gather, and both the bin masses and all
    ``surv_above`` factors are evaluated with the kernel's batched rank
    primitive — no per-pair Python loops.
    """
    q = np.asarray(query, dtype=np.float64)
    if not candidate_ids:
        return {}
    if len(candidate_ids) == 1:
        return {candidate_ids[0]: ProbabilityBounds(1.0, 1.0)}
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")

    D, W = instance_distance_matrix(dataset, candidate_ids, q, stats)
    n = len(candidate_ids)
    order = np.argsort(D, axis=1)
    SD = np.take_along_axis(D, order, axis=1)
    SW = np.take_along_axis(W, order, axis=1)

    # Quantile edges per candidate, endpoints pinned to the support
    # (padded entries replicate real values, so min/max are exact).
    E = np.quantile(D, np.linspace(0.0, 1.0, n_bins + 1), axis=1).T
    E[:, 0] = SD[:, 0]
    E[:, -1] = SD[:, -1]

    # Exact bin masses from cumulative weights at the edges: bins are
    # [lo, hi) except the last, which closes at the support maximum.
    lt_w = _rank_cumweights(SD, SW, E, needles_first=True)
    le_w = _rank_cumweights(SD, SW, E, needles_first=False)
    mass = np.diff(lt_w, axis=1)
    mass[:, -1] = le_w[:, -1] - lt_w[:, -2]

    # surv_above for every (competitor, radius) pair at once.  The
    # optimistic factor counts bins whose hi edge exceeds r, the
    # pessimistic one bins whose lo edge does; both are one rank pass
    # of the radii grid against the competitor's sorted edge rows.
    total = mass.sum(axis=1, keepdims=True)
    R_lo = np.broadcast_to(E[:, :-1].reshape(1, -1), (n, n * n_bins))
    R_hi = np.broadcast_to(E[:, 1:].reshape(1, -1), (n, n * n_bins))
    hi_edges = E[:, 1:]
    lo_edges = E[:, :-1]
    opt = np.minimum(
        1.0,
        total - _rank_cumweights(hi_edges, mass, R_lo, needles_first=False),
    ).reshape(n, n, n_bins)
    pes = np.minimum(
        1.0,
        total - _rank_cumweights(lo_edges, mass, R_hi, needles_first=False),
    ).reshape(n, n, n_bins)

    # Products over rivals (self excluded), then mass-weighted sums.
    self_idx = np.arange(n)
    opt[self_idx, self_idx, :] = 1.0
    pes[self_idx, self_idx, :] = 1.0
    hi_total = (mass * opt.prod(axis=0)).sum(axis=1)
    lo_total = (mass * pes.prod(axis=0)).sum(axis=1)

    return {
        oid: ProbabilityBounds(
            lower=float(min(lo_total[i], 1.0)),
            upper=float(min(hi_total[i], 1.0)),
        )
        for i, oid in enumerate(candidate_ids)
    }


class VerifierEngine(BaseEngine):
    """Threshold-PNNQ with verifier-first evaluation.

    Answers "which objects have qualification probability >= tau" while
    running the exact Step-2 computation only for candidates whose
    verifier interval straddles ``tau``.

    Parameters
    ----------
    dataset:
        The uncertain database.
    retriever:
        Step-1 index (``None`` falls back to brute force).
    n_bins:
        Histogram resolution of the bounds.

    Decision dicts are returned as read-only
    :class:`~repro.engine.FrozenDict` objects (they are shared by the
    LRU cache and batch dedup).
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
        #: Candidates resolved by the exact Step-2 fallback / by bounds
        #: alone.  Both count *work actually performed*: queries answered
        #: from the LRU cache or by batch dedup do not re-increment them
        #: (so on hot workloads they track distinct executions, not
        #: ``stats.queries``), and ``stats.reset()`` leaves them alone.
        self.exact_evaluations = 0
        self.verified_only = 0

    def query(
        self, query: np.ndarray, tau: float = 0.1
    ) -> dict[int, bool]:
        """Id -> "probability >= tau" decisions for all candidates."""
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        return self._run(query, {"tau": tau})

    def query_batch(
        self, queries, tau: float = 0.1
    ) -> list[dict[int, bool]]:
        """Threshold decisions for many query points.

        Duplicate queries (and LRU hits, when a result cache is
        enabled) share one decision dict — treat the returned dicts as
        read-only.
        """
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        return self._run_batch(queries, {"tau": tau})

    # -- BaseEngine hooks ----------------------------------------------
    def _compute(
        self, q: np.ndarray, ids: list[int], params: dict
    ) -> dict[int, bool]:
        tau = params["tau"]
        bounds = probability_bounds(
            self.dataset, ids, q, self.n_bins, stats=self.stats
        )
        undecided = [
            oid
            for oid in ids
            if bounds[oid].lower < tau <= bounds[oid].upper
        ]
        undecided_set = set(undecided)
        decided = {
            oid: bounds[oid].lower >= tau
            for oid in ids
            if oid not in undecided_set
        }
        self.verified_only += len(decided)
        if undecided:
            # Exact fallback: every candidate stays in the survival
            # products (rivals matter), but only the undecided are
            # evaluated.
            exact = qualification_probabilities(
                self.dataset, ids, q,
                evaluate_ids=undecided, stats=self.stats,
            )
            self.exact_evaluations += len(undecided)
            for oid in undecided:
                decided[oid] = exact[oid] >= tau
        # Frozen: this dict is shared by the result cache / batch dedup.
        return FrozenDict(decided)
