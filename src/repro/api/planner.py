"""The cost-based retriever planner behind :class:`repro.api.Database`.

The paper's evaluation (Fig 9) shows no Step-1 retriever dominates:
the PV-index wins in low dimensions, brute force on small or
high-dimensional databases, the R-tree and UV-index in between.  The
seed API pushed that choice onto every caller; the planner makes it
per query:

1. Every eligible retriever handle is scored with a
   :class:`~repro.engine.CostEstimate` — from the built index's own
   ``cost_estimate()`` hook when it exists, otherwise from the static
   formulas in :data:`STATIC_ESTIMATES` (both documented in the README
   "cost model" section).
2. Observed Step-1 wall-clock feeds back: the planner keeps an
   exponential moving average per ``(retriever, kind)`` and substitutes
   it for the estimated ``step1_us`` once real queries have run, so a
   mis-estimated index loses the next planning round.
3. The decision is recorded in an explainable, frozen :class:`Plan`
   (surfaced by ``db.explain``) and cached keyed by *query template* —
   ``(kind, params, dataset epoch, forced choice)`` — so planning is
   one dict probe on the hot path.  Epoch drift changes the key, which
   is how mutations force a replan.

Scores are microseconds-per-query equivalents::

    score = step1_us + step2_us(kind, cands)

Simulated page reads cost no real time here, so they do not enter the
score; ``CostEstimate.page_reads`` is still reported by ``explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping, Protocol, Sequence

from ..engine import CostEstimate, FrozenDict, expected_candidates
from ..engine.cost import min_max_scan_us

__all__ = [
    "Plan",
    "Planner",
    "PlanningError",
    "STATIC_ESTIMATES",
    "step2_us",
]


class PlanningError(ValueError):
    """No eligible retriever could be planned for a query."""


# ----------------------------------------------------------------------
# Static (pre-build) cost formulas, one per retriever handle.
# ----------------------------------------------------------------------
def _static_brute(n: int, dims: int) -> CostEstimate:
    # One min/max kernel pass over all n regions; no index pages.
    return CostEstimate(
        step1_us=min_max_scan_us(n, dims),
        page_reads=0.0,
        candidates=expected_candidates(n, dims),
    )


def _static_pv(n: int, dims: int) -> CostEstimate:
    # One descent + one leaf read + a Python filter over the leaf's
    # entries (a small multiple of the final candidate count).
    leaf = 3.0 * expected_candidates(n, dims)
    return CostEstimate(
        step1_us=30.0 + 0.9 * leaf * dims**0.5,
        page_reads=1.0,
        candidates=expected_candidates(n, dims),
    )


def _static_rtree(n: int, dims: int) -> CostEstimate:
    # Branch-and-prune pays Python heap work per visited entry — a
    # constant-factor handicap against the PV-index's leaf filter.
    leaf = 3.0 * expected_candidates(n, dims)
    return CostEstimate(
        step1_us=45.0 + 1.4 * leaf * dims**0.5,
        page_reads=2.0,
        candidates=expected_candidates(n, dims),
    )


def _static_uv(n: int, dims: int) -> CostEstimate:
    # Grid descent like the PV-index, plus an O(n) per-query id->row
    # rebuild (see UVIndex.cost_estimate) that scales with the database.
    leaf = 3.0 * expected_candidates(n, dims)
    return CostEstimate(
        step1_us=25.0 + 0.05 * n + 1.3 * leaf,
        page_reads=1.0,
        candidates=expected_candidates(n, dims),
    )


#: name -> f(n, dims) -> CostEstimate for a not-yet-built index.
STATIC_ESTIMATES: dict[str, Callable[[int, int], CostEstimate]] = {
    "brute": _static_brute,
    "pv": _static_pv,
    "rtree": _static_rtree,
    "uv": _static_uv,
}

#: Per-candidate Step-2 weight by query kind (µs).  Step 2 is still
#: quadratic in the candidate count (every candidate's instances are
#: ranked against every competitor), but the tensorized kernel
#: amortizes it across one global sort + log-walk, so the per-pair
#: constants are a fraction of the pre-tensorization values.  These
#: are cold-start seeds only: once queries run, the planner's observed
#: Step-2 EMA (see :meth:`Planner.observe_step2`) supersedes them.
_STEP2_QUADRATIC_US = {
    "nn": 0.3,
    "knn": 0.5,
    "topk": 0.2,
    "threshold": 0.2,
    "group_nn": 0.5,
}


def step2_us(kind: str, params: Mapping[str, Any], candidates: float) -> float:
    """Estimated Step-2 (probability computation) microseconds.

    Identical across retrievers up to their candidate-set estimates —
    all Step-1 sources feed the same exact Step-2 kernels — so this
    term mostly documents *why* a query is expensive rather than
    discriminating between retrievers.
    """
    quad = _STEP2_QUADRATIC_US.get(kind)
    if quad is None:
        return 0.5 * candidates
    k = params.get("k", 1) if kind == "knn" else 1
    return quad * k * candidates * candidates


class PlannableHandle(Protocol):
    """What the planner needs from a retriever handle."""

    name: str

    def cost_estimate(self) -> CostEstimate:
        """Current per-query estimate (index-calibrated or static)."""
        ...


@dataclass(frozen=True)
class Plan:
    """One explainable, frozen planning decision.

    ``scores`` maps every *considered* retriever to its total score in
    microsecond equivalents; ``estimates`` holds the underlying
    :class:`~repro.engine.CostEstimate` inputs.  ``retriever`` is the
    handle the engine will actually execute with — asserted identical
    in the API tests.
    """

    kind: str
    params: tuple[tuple[str, Any], ...]
    retriever: str
    reason: str
    epoch: int
    scores: Mapping[str, float] = field(default_factory=FrozenDict)
    estimates: Mapping[str, CostEstimate] = field(
        default_factory=FrozenDict
    )
    forced: bool = False
    #: Observation bucket this plan's Step-1 timings calibrate.  Equals
    #: ``kind`` for cost-based plans; policy-fixed plans that run a
    #: structurally different Step 1 (e.g. the exact k>1 filter) get a
    #: distinct bucket so their timings cannot skew the cost-based
    #: variant's estimates.
    cost_kind: str = ""
    #: Observed Step-2 calibration backing this plan's scores, in µs
    #: per query: ``{"step2": total, "gather": pdf-fetch share,
    #: "eval": kernel share}`` — the planner-side view of the engines'
    #: ``kernel_gather_seconds`` / ``kernel_eval_seconds`` counters,
    #: surfaced by ``db.explain``.  Empty until queries of this kind
    #: have run.
    step2_observed: Mapping[str, float] = field(default_factory=FrozenDict)
    #: Scale-out telemetry when a process-pool server is attached —
    #: pool mode/size, shard counts, scatter and prune counters, and
    #: per-worker busy seconds.  ``db.explain`` stamps it onto the
    #: returned copy only (plans cached by the planner stay bare);
    #: empty on an unserved or thread-served database.
    scaleout: Mapping[str, Any] = field(default_factory=FrozenDict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", FrozenDict(self.scores))
        object.__setattr__(self, "estimates", FrozenDict(self.estimates))
        object.__setattr__(
            self, "step2_observed", FrozenDict(self.step2_observed)
        )
        object.__setattr__(self, "scaleout", FrozenDict(self.scaleout))
        if not self.cost_kind:
            object.__setattr__(self, "cost_kind", self.kind)

    @property
    def cost(self) -> float | None:
        """The chosen retriever's score (µs equivalents), if scored."""
        return self.scores.get(self.retriever)

    def describe(self) -> str:
        """A human-readable multi-line explanation."""
        lines = [
            f"{self.kind}{dict(self.params) or ''} -> {self.retriever}"
            f" (epoch {self.epoch})",
            f"  reason: {self.reason}",
        ]
        for name in sorted(self.scores, key=self.scores.__getitem__):
            est = self.estimates[name]
            marker = "*" if name == self.retriever else " "
            lines.append(
                f"  {marker} {name:<6} {self.scores[name]:>10.1f} us "
                f"(step1 {est.step1_us:.1f} us, "
                f"{est.page_reads:.1f} pages, "
                f"~{est.candidates:.0f} candidates, {est.source})"
            )
        if self.step2_observed:
            lines.append(
                "  step2 {step2:.1f} us observed "
                "(gather {gather:.1f} us, kernel {eval:.1f} us)".format(
                    **self.step2_observed
                )
            )
        if self.scaleout:
            so = self.scaleout
            lines.append(
                f"  scaleout: {so.get('mode', '?')} pool, "
                f"{so.get('workers', '?')} workers, "
                f"{so.get('n_shards', '?')} shards "
                f"(dispatched {so.get('shards_dispatched', 0)}, "
                f"pruned {so.get('shards_pruned', 0)})"
            )
        return "\n".join(lines)


class Planner:
    """Scores retriever handles and caches the winning :class:`Plan`.

    Parameters
    ----------
    ema_alpha:
        Weight of the newest observation in the per-``(retriever,
        kind)`` Step-1 wall-clock moving average.
    replan_every:
        Observations between automatic calibration-generation bumps.
        The generation is part of the plan-cache key, so cached plans
        are revisited periodically even on a mutation-free session —
        this is how observed costs and a freshly built index's
        calibrated estimates actually reach the plans (epoch drift is
        the other trigger).  Replanning costs a few handle scorings,
        amortized to noise over the window.
    """

    def __init__(
        self,
        *,
        ema_alpha: float = 0.4,
        replan_every: int = 64,
    ) -> None:
        if not 0.0 < ema_alpha <= 1.0:
            raise ValueError("ema_alpha must be in (0, 1]")
        if replan_every < 1:
            raise ValueError("replan_every must be >= 1")
        self.ema_alpha = float(ema_alpha)
        self.replan_every = int(replan_every)
        self._cache: dict[Hashable, Plan] = {}
        self._observed: dict[tuple[str, str], float] = {}
        #: Observed Step-2 µs per query by cost_kind: [total, gather,
        #: eval] EMAs fed by the engines' kernel counters (a mutable
        #: list updated in place — :meth:`observe_step2` runs once per
        #: served query).  Step 2 is retriever-independent, so one
        #: bucket per kind calibrates the shared term of every
        #: retriever's score.
        self._observed_step2: dict[str, list[float]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        #: Calibration generation: baked into every cache key; bumped
        #: by :meth:`bump_generation` (index built) and automatically
        #: every ``replan_every`` observations.
        self.generation = 0
        self._observations_since_bump = 0

    # ------------------------------------------------------------------
    def plan(
        self,
        *,
        kind: str,
        params: tuple[tuple[str, Any], ...],
        epoch: int,
        handles: Sequence[PlannableHandle],
        forced: str | None = None,
        fixed: tuple[str, str, CostEstimate | None, str] | None = None,
    ) -> Plan:
        """The cached-or-computed plan for one query template.

        ``forced`` pins the retriever by name (recorded as such);
        ``fixed`` is a ``(retriever, reason, estimate, cost_kind)``
        tuple for kinds whose choice is not cost-based (e.g. reverse
        NN's domination filter) — the estimate (or the named handle's
        own, when ``None``) is still reported for ``explain``, and
        ``cost_kind`` names the observation bucket the plan's timings
        calibrate (kept separate when the fixed Step 1 is structurally
        different from the cost-based variant's).
        """
        key = (kind, params, epoch, forced, self.generation)
        hit = self._cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return hit
        self.cache_misses += 1
        plan = self._compute(kind, params, epoch, handles, forced, fixed)
        self._cache[key] = plan
        return plan

    def _compute(
        self,
        kind: str,
        params: tuple[tuple[str, Any], ...],
        epoch: int,
        handles: Sequence[PlannableHandle],
        forced: str | None,
        fixed: tuple[str, str, CostEstimate | None, str] | None,
    ) -> Plan:
        if fixed is not None and forced is None:
            name, reason, est, cost_kind = fixed
            if est is None:
                est = next(
                    (
                        self._calibrated(handle, cost_kind)
                        for handle in handles
                        if handle.name == name
                    ),
                    None,
                )
            # The choice is policy, not cost — but the estimate is
            # still reported for explain().
            scores: dict[str, float] = {}
            estimates: dict[str, CostEstimate] = {}
            if est is not None:
                estimates[name] = est
                scores[name] = self._score(
                    kind, dict(params), est, cost_kind
                )
            return Plan(
                kind=kind,
                params=params,
                retriever=name,
                reason=reason,
                epoch=epoch,
                scores=scores,
                estimates=estimates,
                cost_kind=cost_kind,
                step2_observed=self._step2_breakdown(cost_kind),
            )
        if not handles:
            raise PlanningError(f"no eligible retriever for {kind!r}")

        param_map = dict(params)
        estimates = {}
        for handle in handles:
            estimates[handle.name] = self._calibrated(handle, kind)
        # Every retriever feeds the SAME candidate set to the same
        # exact Step-2 kernels, so Step 2 is scored with one shared
        # estimate — the most-informed (smallest) of the per-handle
        # guesses, which favors index-calibrated numbers over the
        # static dimensionality rule.  Per-handle estimates keep their
        # own candidate figure for explain() honesty.
        shared = min(est.candidates for est in estimates.values())
        step2 = self._step2_term(kind, kind, param_map, shared)
        scores = {
            name: est.step1_us + step2 for name, est in estimates.items()
        }

        if forced is not None:
            if forced not in scores:
                raise PlanningError(
                    f"retriever {forced!r} is not eligible for {kind!r} "
                    f"(eligible: {sorted(scores)})"
                )
            return Plan(
                kind=kind,
                params=params,
                retriever=forced,
                reason="forced by caller",
                epoch=epoch,
                scores=scores,
                estimates=estimates,
                forced=True,
                # A forced override of a policy-fixed template still
                # runs that template's Step 1 — keep its bucket.
                cost_kind=fixed[3] if fixed is not None else kind,
                step2_observed=self._step2_breakdown(kind),
            )

        best = min(scores, key=lambda name: (scores[name], name))
        others = ", ".join(
            f"{name} {scores[name]:.1f}"
            for name in sorted(scores, key=scores.__getitem__)
            if name != best
        )
        reason = (
            f"lowest estimated cost ({scores[best]:.1f} us"
            + (f"; vs {others} us" if others else "; only candidate")
            + ")"
        )
        return Plan(
            kind=kind,
            params=params,
            retriever=best,
            reason=reason,
            epoch=epoch,
            scores=scores,
            estimates=estimates,
            step2_observed=self._step2_breakdown(kind),
        )

    # ------------------------------------------------------------------
    def _calibrated(
        self, handle: PlannableHandle, kind: str
    ) -> CostEstimate:
        """The handle's estimate, with observed Step-1 time folded in."""
        est = handle.cost_estimate()
        observed = self._observed.get((handle.name, kind))
        if observed is not None:
            est = est.with_step1(observed, source="observed")
        return est

    def _score(
        self,
        kind: str,
        params: Mapping[str, Any],
        est: CostEstimate,
        cost_kind: str | None = None,
    ) -> float:
        return est.step1_us + self._step2_term(
            kind, cost_kind or kind, params, est.candidates
        )

    def _step2_term(
        self,
        kind: str,
        cost_kind: str,
        params: Mapping[str, Any],
        candidates: float,
    ) -> float:
        """Shared Step-2 µs: observed EMA once available, static seed
        before (see :data:`_STEP2_QUADRATIC_US`).

        The EMA is a flat per-kind per-query average — once calibrated
        it deliberately ignores ``candidates`` (the kernel's real cost
        varies per query; the average over the served workload is what
        the score should charge).  Step 2 is identical across
        retrievers, so this never changes the ranking — only how
        honestly ``db.explain`` reports total per-query cost.
        """
        observed = self._observed_step2.get(cost_kind)
        if observed is not None:
            return observed[0]
        return step2_us(kind, params, candidates)

    def observe_step2(
        self,
        kind: str,
        step2_seconds: float,
        gather_seconds: float = 0.0,
        eval_seconds: float = 0.0,
    ) -> None:
        """Fold one observed Step-2 wall-clock into the per-kind EMA.

        ``gather_seconds`` / ``eval_seconds`` carry the kernel's
        instance-store fetch vs probability-evaluation split (the
        engines' ``kernel_gather_seconds`` / ``kernel_eval_seconds``
        counters); the breakdown is surfaced on plans via
        :attr:`Plan.step2_observed` and ``db.explain``.  Runs on every
        served query, so the update is in place with no allocation.
        """
        prev = self._observed_step2.get(kind)
        if prev is None:
            self._observed_step2[kind] = [
                max(step2_seconds, 0.0) * 1e6,
                max(gather_seconds, 0.0) * 1e6,
                max(eval_seconds, 0.0) * 1e6,
            ]
        else:
            a = self.ema_alpha
            keep = 1.0 - a
            prev[0] = keep * prev[0] + a * max(step2_seconds, 0.0) * 1e6
            prev[1] = keep * prev[1] + a * max(gather_seconds, 0.0) * 1e6
            prev[2] = keep * prev[2] + a * max(eval_seconds, 0.0) * 1e6

    def _step2_breakdown(self, cost_kind: str) -> dict[str, float]:
        """The observed EMA as the mapping plans/explain surface."""
        observed = self._observed_step2.get(cost_kind)
        if observed is None:
            return {}
        return {
            "step2": observed[0],
            "gather": observed[1],
            "eval": observed[2],
        }

    def observed_step2_us(self, kind: str) -> Mapping[str, float] | None:
        """Current observed Step-2 breakdown for a cost kind (µs)."""
        observed = self._observed_step2.get(kind)
        return (
            None
            if observed is None
            else FrozenDict(self._step2_breakdown(kind))
        )

    def observe(
        self, retriever: str, kind: str, step1_seconds: float
    ) -> None:
        """Fold one observed Step-1 wall-clock into the moving average.

        Cached plans are not retroactively rewritten — the new average
        applies at the next cache miss: epoch drift,
        :meth:`invalidate`, or the automatic generation bump after
        ``replan_every`` observations.
        """
        us = max(step1_seconds, 0.0) * 1e6
        key = (retriever, kind)
        prev = self._observed.get(key)
        self._observed[key] = (
            us
            if prev is None
            else (1.0 - self.ema_alpha) * prev + self.ema_alpha * us
        )
        self._observations_since_bump += 1
        if self._observations_since_bump >= self.replan_every:
            self.bump_generation()

    def bump_generation(self) -> None:
        """Force the next plan lookup to re-score (cheap, bounded).

        Called when calibration inputs change without an epoch move —
        an index finished building (its real shape supersedes the
        static formula) or enough runtime observations accumulated.
        """
        self.generation += 1
        self._observations_since_bump = 0

    def observed_step1_us(self, retriever: str, kind: str) -> float | None:
        """Current observed Step-1 average for a ``(retriever, kind)``."""
        return self._observed.get((retriever, kind))

    def invalidate(self) -> None:
        """Drop every cached plan (observations are kept — they are
        performance facts about the implementation, not the data)."""
        self._cache.clear()

    def __repr__(self) -> str:
        return (
            f"Planner(cached={len(self._cache)}, "
            f"hits={self.cache_hits}, misses={self.cache_misses})"
        )
