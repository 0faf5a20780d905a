"""Deterministic fault injection for the serving and storage stacks.

The chaos oracles need to *prove* fault-tolerance properties — "a
killed worker never loses a query", "a torn WAL append never corrupts
the log" — rather than hope a random kill schedule stumbles onto the
interesting interleavings.  This module provides the injection side:

* A :class:`FaultPlan` is a seeded, trigger-counted schedule of
  :class:`FaultRule` values.  Each rule names a **site** (a string
  like ``"wal.append"``), an **action**, and *when* to fire: skip the
  first ``after`` hits of the site, then fire for the next ``count``
  hits (optionally gated by a seeded coin flip).  Identical plans
  replay identical fault schedules — the plan is the random seed of
  the chaos test.
* Production code calls :func:`check` at its hook points.  Unarmed
  (the default, and always in production) this is one global load and
  a ``None`` comparison; armed, it consults the plan and either
  returns ``None`` (no rule fired), raises :class:`FaultInjected`
  (``eio`` / ``fail`` actions), sleeps (``hang``), kills the process
  (``kill``), or returns the fired rule so the caller can implement a
  structured fault itself (``torn`` — only the WAL knows how to tear
  a record at a byte offset).

Sites wired into the stack (the chaos matrix):

=====================  ==============================================
``wal.append``         before a WAL record is written (``eio`` aborts
                       the mutation; ``torn`` writes ``arg`` bytes of
                       the record then fails — the tear the recovery
                       scan must tolerate)
``wal.fsync``          between write and fsync (``eio``)
``durable.checkpoint`` before a checkpoint folds, appends or merges
``durable.tail_append`` after a checkpoint's tail record is written,
                       before its fsync
``durable.wal_reset``  after a checkpoint's snapshot is durable (tail
                       fsynced or merge renamed), before the WAL reset
``proc.attach``        in a worker, before attaching the shared
                       segment (``fail`` — exercises attach retry)
``proc.chunk``         in a worker, before executing a dispatched
                       chunk (``kill`` / ``hang`` — exercises retry
                       and stall detection)
``proc.fence``         in a worker, on receiving a re-attach fence
                       (``kill`` — exercises fence leak-freedom)
=====================  ==============================================

Plans are picklable: the process pool ships its plan to spawned
workers via the worker config, and each process replays rule counters
from zero (scope worker-specific rules with ``wid=``).
"""

from __future__ import annotations

import errno
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Iterable

from ..analysis.locks import make_lock

__all__ = [
    "ACTIONS",
    "SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "arm",
    "check",
    "disarm",
    "active",
    "injected",
]

#: Everything a rule may do when it fires.
ACTIONS = ("eio", "fail", "torn", "kill", "hang")

#: The registry of hook sites wired into the stack (the table above).
#: :func:`arm` rejects plans targeting unregistered sites — a typo'd
#: site used to arm successfully and then silently never fire — and
#: ``python -m repro.analysis`` cross-references every
#: ``faults.check(...)`` literal against this mapping, both ways.
SITES: dict[str, str] = {
    "wal.append": "before a WAL record is written",
    "wal.fsync": "between a WAL write and its fsync",
    "durable.checkpoint": "before a checkpoint folds, appends or merges",
    "durable.tail_append": "after a tail record is written, before fsync",
    "durable.wal_reset": "after a checkpoint is durable, before WAL reset",
    "proc.attach": "worker-side, before attaching the shared segment",
    "proc.chunk": "worker-side, before executing a dispatched chunk",
    "proc.fence": "worker-side, on receiving a re-attach fence",
}

#: Exit code of a ``kill`` action, so a chaos test can tell an
#: injected death from a genuine crash in the worker.
KILL_EXIT_CODE = 117


class FaultInjected(OSError):
    """An injected I/O fault (``errno.EIO``) from an armed plan."""

    def __init__(self, site: str, action: str) -> None:
        super().__init__(errno.EIO, f"injected {action!r} fault at {site!r}")
        self.site = site
        self.action = action

    def __reduce__(self):  # OSError.__reduce__ drops the subclass args
        return (type(self), (self.site, self.action))


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: fire ``action`` at ``site`` on hits
    ``[after, after + count)``, each gated by ``probability``.

    ``wid`` scopes the rule to one pool worker (sites that pass a
    ``wid`` context); ``arg`` parameterizes the action — byte offset
    of a ``torn`` write, sleep seconds of a ``hang``.
    """

    site: str
    action: str
    after: int = 0
    count: int = 1
    probability: float = 1.0
    wid: int | None = None
    arg: float | None = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} "
                f"(expected one of {ACTIONS})"
            )
        if self.after < 0 or self.count < 1:
            raise ValueError("after must be >= 0 and count >= 1")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")


class FaultPlan:
    """A seeded, trigger-counted fault schedule.

    Thread-safe: hook sites are hit concurrently by scheduler workers
    and the durable listener.  Runtime state (per-rule hit counters,
    the fired log, the coin-flip stream) does **not** pickle — a plan
    shipped to a worker process starts counting from zero there, which
    is exactly what makes per-process schedules deterministic.
    """

    def __init__(
        self, rules: Iterable[FaultRule] = (), *, seed: int = 0
    ) -> None:
        self.rules: tuple[FaultRule, ...] = tuple(rules)
        self.seed = int(seed)
        self._reset_runtime()

    def _reset_runtime(self) -> None:
        self._lock = make_lock("faults.plan_lock")
        self._hits: dict[int, int] = {}
        self._fired: list[tuple[str, str, dict[str, Any]]] = []
        self._rng = random.Random(self.seed)

    # -- pickling (plans travel to spawned pool workers) ----------------
    def __getstate__(self) -> dict[str, Any]:
        return {"rules": self.rules, "seed": self.seed}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.rules = state["rules"]
        self.seed = state["seed"]
        self._reset_runtime()

    # ------------------------------------------------------------------
    @property
    def fired(self) -> list[tuple[str, str, dict[str, Any]]]:
        """Every fired fault so far: ``(site, action, context)``."""
        with self._lock:
            return list(self._fired)

    def trip(self, site: str, **ctx: Any) -> FaultRule | None:
        """One hook hit: fire the first matching eligible rule.

        Raises for ``eio``/``fail``, sleeps for ``hang``, exits the
        process for ``kill``; returns the rule for ``torn`` (the
        caller implements the tear) and ``None`` when nothing fired.
        """
        rule = None
        with self._lock:
            for i, candidate in enumerate(self.rules):
                if candidate.site != site:
                    continue
                if (
                    candidate.wid is not None
                    and ctx.get("wid") != candidate.wid
                ):
                    continue
                hit = self._hits.get(i, 0)
                self._hits[i] = hit + 1
                if not (
                    candidate.after <= hit < candidate.after + candidate.count
                ):
                    continue
                if (
                    candidate.probability < 1.0
                    and self._rng.random() >= candidate.probability
                ):
                    continue
                self._fired.append((site, candidate.action, dict(ctx)))
                rule = candidate
                break
        if rule is None:
            return None
        if rule.action == "hang":
            time.sleep(rule.arg if rule.arg is not None else 3600.0)
            return None
        if rule.action == "kill":
            os._exit(KILL_EXIT_CODE)
        if rule.action == "torn":
            return rule
        raise FaultInjected(site, rule.action)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, rules={len(self.rules)}, "
            f"fired={len(self.fired)})"
        )


#: The armed plan.  ``None`` (always, outside chaos tests) makes every
#: hook a single global load + comparison.
_PLAN: FaultPlan | None = None


def arm(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` process-wide; hooks start consulting it.

    Rejects rules targeting sites absent from :data:`SITES`: an
    unregistered site has no hook, so the rule could never fire and
    the chaos test would silently assert nothing.
    """
    for rule in plan.rules:
        if rule.site not in SITES:
            raise ValueError(
                f"fault rule targets unregistered site {rule.site!r} "
                f"(known sites: {', '.join(sorted(SITES))})"
            )
    global _PLAN
    _PLAN = plan
    return plan


def disarm() -> None:
    """Disarm; every hook returns to its zero-cost path."""
    global _PLAN
    _PLAN = None


def active() -> FaultPlan | None:
    """The armed plan, or ``None``."""
    return _PLAN


def check(site: str, **ctx: Any) -> FaultRule | None:
    """The hook production code calls; see :meth:`FaultPlan.trip`."""
    plan = _PLAN
    if plan is None:
        return None
    return plan.trip(site, **ctx)


class injected:
    """``with injected(plan): ...`` — arm for the block, then disarm."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def __enter__(self) -> FaultPlan:
        return arm(self.plan)

    def __exit__(self, *exc: Any) -> None:
        disarm()
