"""The declared lock hierarchy and the runtime lock-order sanitizer.

The serving stack holds ~12 distinct locks with an implicit
acquisition order; PR 8 and PR 9 each fixed a latent inversion in
this layer.  This module makes the order explicit and machine-checked:

* :data:`LOCK_HIERARCHY` declares every participating lock and its
  rank.  Locks must be acquired in ascending rank order within a
  thread; re-acquiring the *same* object (RLock re-entrancy) is
  always fine.
* :func:`make_lock` / :func:`make_rlock` are drop-in factories the
  participating modules call instead of ``threading.Lock()`` /
  ``threading.RLock()``.  Unarmed (the default, and always in
  production) they return the plain primitive — zero overhead, same
  pattern as :mod:`repro.testing.faults`.  With ``REPRO_SANITIZE=1``
  in the environment (or after :func:`enable`), they return
  instrumented wrappers that record per-thread acquisition stacks,
  maintain the global lock-order graph, and raise
  :class:`LockOrderViolation` carrying **both** witness stacks the
  moment an inversion (a cycle in the order graph, or an acquisition
  that descends the declared ranks) is observed — long before the
  schedule that would actually deadlock.
* :data:`STATIC_LOCK_ATTRS` maps source files to the attribute names
  their locks live under, so the static half of the checker
  (:mod:`repro.analysis.lock_check`) can resolve ``with self._lock:``
  blocks to hierarchy ranks without importing anything.

Declaring a new lock: add its name and rank to
:data:`LOCK_HIERARCHY` (rank ordering = outermost first), construct
it via the factory, and — if it is acquired under a ``self.<attr>``
name in ``api/``, ``service/`` or ``storage/`` — add the attribute to
:data:`STATIC_LOCK_ATTRS` so the static pass sees it too.
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Any, Iterator

__all__ = [
    "LOCK_HIERARCHY",
    "STATIC_LOCK_ATTRS",
    "LockOrderViolation",
    "make_lock",
    "make_rlock",
    "enable",
    "disable",
    "enabled",
    "reset_graph",
    "held_locks",
]

#: Every participating lock, outermost (acquired first) to innermost.
#: A thread may only acquire a lock whose rank is >= every rank it
#: already holds (same-rank nesting of *different* objects is tracked
#: by the order graph instead of banned outright, so legitimate
#: same-class sibling locks stay expressible).
LOCK_HIERARCHY: dict[str, int] = {
    # Mutation serialization — taken around everything else.
    "db.mutation_order": 10,
    # Database planning / handle / engine-registry state.
    "db.lock": 20,
    # Per-engine query bracket (BaseEngine._lock, re-entrant).
    "engine.lock": 30,
    # Lazy index build (IndexHandle._build_lock; builds may read the
    # packed store, so it ranks above the engines but below the store).
    "handle.build_lock": 35,
    # Durable checkpoint bracket (snapshots the store, resets the WAL).
    "durable.ckpt_lock": 40,
    # Packed InstanceStore maintenance + mutation listeners (the WAL
    # append and fault hooks fire under this).
    "dataset.store_lock": 50,
    # Subscription registry (registered while the mutation order lock
    # is held; never wraps a store access).
    "subscriptions.reg_lock": 55,
    # QueryFuture state transitions (leaf: callbacks run outside it).
    "future.lock": 60,
    # Server lifecycle flags (leaves).
    "server.close_lock": 70,
    "server.recovery_lock": 72,
    # Fault-plan trigger counters — hooks fire under the store lock,
    # so the plan lock must rank below (inside) it.
    "faults.plan_lock": 90,
    # One-time build of the compiled SE loop (a leaf: SE runs under
    # index builds and mutations, and nothing is taken inside it).
    "se.kernel_build": 95,
}

#: Source-file → ``{attribute name: hierarchy name}`` for the static
#: checker.  Keys are path suffixes relative to ``src/repro``.
STATIC_LOCK_ATTRS: dict[str, dict[str, str]] = {
    "api/database.py": {
        "_mutation_order": "db.mutation_order",
        "_lock": "db.lock",
        "_build_lock": "handle.build_lock",
    },
    "engine/base.py": {"_lock": "engine.lock"},
    "uncertain/dataset.py": {"_store_lock": "dataset.store_lock"},
    "storage/durable.py": {"_ckpt_lock": "durable.ckpt_lock"},
    "service/server.py": {
        "_close_lock": "server.close_lock",
        "_recovery_lock": "server.recovery_lock",
    },
    "service/future.py": {"_lock": "future.lock"},
    "service/subscriptions.py": {"_reg_lock": "subscriptions.reg_lock"},
    "testing/faults.py": {"_lock": "faults.plan_lock"},
}


class LockOrderViolation(RuntimeError):
    """Two locks were (or would be) acquired in conflicting orders.

    Raised *before* the offending acquisition completes, with the
    stack that established the opposite order (``held_stack``) and
    the stack attempting the conflicting acquisition
    (``acquire_stack``) — the two witnesses a deadlock post-mortem
    would otherwise have to reconstruct from a hung process.
    """

    def __init__(
        self, message: str, *, held_stack: str, acquire_stack: str
    ) -> None:
        self.held_stack = held_stack
        self.acquire_stack = acquire_stack
        super().__init__(
            f"{message}\n"
            f"--- first witness (order already established) ---\n"
            f"{held_stack}"
            f"--- second witness (conflicting acquisition) ---\n"
            f"{acquire_stack}"
        )


# ----------------------------------------------------------------------
# Sanitizer state
# ----------------------------------------------------------------------
_ENABLED = os.environ.get("REPRO_SANITIZE", "").strip() not in ("", "0")

_tls = threading.local()

# The global lock-order graph: edge (a, b) exists when some thread
# acquired lock name b while holding lock name a.  Guarded by a plain
# (uninstrumented) lock; values are the witness stack pair captured
# when the edge was first observed.
_graph_lock = threading.Lock()
_edges: dict[tuple[str, str], tuple[str, str]] = {}
_successors: dict[str, set[str]] = {}


def enabled() -> bool:
    """Whether the sanitizer is armed for newly created locks."""
    return _ENABLED


def enable() -> None:
    """Arm the sanitizer: factories start returning instrumented locks."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Disarm: factories return plain primitives again."""
    global _ENABLED
    _ENABLED = False


def reset_graph() -> None:
    """Forget every recorded ordering edge (test isolation)."""
    with _graph_lock:
        _edges.clear()
        _successors.clear()


def _held() -> list[_Held]:
    held = getattr(_tls, "held", None)
    if held is None:
        held = _tls.held = []
    return held


def held_locks() -> list[str]:
    """Names of the sanitized locks the calling thread holds, outermost
    first (re-entrant acquisitions appear once)."""
    return [entry.lock.name for entry in _held()]


class _Held:
    __slots__ = ("lock", "count", "stack")

    def __init__(self, lock: _SanitizedLock, stack: str) -> None:
        self.lock = lock
        self.count = 1
        self.stack = stack


def _format_stack() -> str:
    # Drop the two sanitizer frames (_format_stack, acquire) so the
    # witness starts at the caller's ``with`` statement.
    return "".join(traceback.format_stack(limit=16)[:-2])


def _reaches(start: str, goal: str) -> bool:
    """True when the order graph has a path start → … → goal."""
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node == goal:
            return True
        for nxt in _successors.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def _path_witness(start: str, goal: str) -> str:
    """The witness stack of the first edge on a start → goal path."""
    for (a, b), (held_stack, _acq) in _edges.items():
        if a == start and _reaches(b, goal) or (a, b) == (start, goal):
            return held_stack
    return "<witness stack unavailable>"


def _check_order(lock: _SanitizedLock, held: list[_Held]) -> None:
    acquire_stack = _format_stack()
    # Rank discipline: never descend the declared hierarchy.
    for entry in held:
        if lock.rank < entry.lock.rank:
            raise LockOrderViolation(
                f"lock order violation: acquiring {lock.name!r} "
                f"(rank {lock.rank}) while holding {entry.lock.name!r} "
                f"(rank {entry.lock.rank}) — declared order is "
                f"ascending rank",
                held_stack=entry.stack,
                acquire_stack=acquire_stack,
            )
    # Order graph: record innermost-held → new edge, refuse cycles.
    innermost = held[-1]
    a, b = innermost.lock.name, lock.name
    if a == b:
        # Same-rank sibling nesting (two distinct locks sharing a
        # hierarchy name, e.g. two engines) — a self-edge is already
        # a cycle: the sibling order is unordered by construction.
        raise LockOrderViolation(
            f"lock order violation: acquiring a second {b!r} lock "
            f"while one is already held — sibling locks of the same "
            f"rank have no declared sub-order",
            held_stack=innermost.stack,
            acquire_stack=acquire_stack,
        )
    with _graph_lock:
        if (a, b) not in _edges:
            if _reaches(b, a):
                reverse_witness = _path_witness(b, a)
                raise LockOrderViolation(
                    f"lock order cycle: this thread acquires {b!r} "
                    f"while holding {a!r}, but the opposite order "
                    f"{b!r} → {a!r} was already observed",
                    held_stack=reverse_witness,
                    acquire_stack=acquire_stack,
                )
            _edges[(a, b)] = (acquire_stack, innermost.stack)
            _successors.setdefault(a, set()).add(b)


class _SanitizedLock:
    """A Lock/RLock wrapper enforcing the declared hierarchy.

    Checks run *before* the underlying acquire, so a violation raises
    without taking the lock (and without deadlocking the test that
    provoked it).  Non-blocking acquires skip the order checks — a
    try-acquire cannot block the calling thread — but still maintain
    the per-thread held stack on success.
    """

    __slots__ = ("name", "rank", "_inner")

    def __init__(self, name: str, rank: int, inner: Any) -> None:
        self.name = name
        self.rank = rank
        self._inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        held = _held()
        entry = None
        for candidate in held:
            if candidate.lock is self:
                entry = candidate
                break
        if blocking and entry is None and held:
            _check_order(self, held)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            if entry is not None:
                entry.count += 1
            else:
                held.append(_Held(self, _format_stack()))
        return ok

    def release(self) -> None:
        self._inner.release()
        held = _held()
        for i in range(len(held) - 1, -1, -1):
            if held[i].lock is self:
                held[i].count -= 1
                if held[i].count == 0:
                    del held[i]
                return

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        return (
            f"<sanitized {self._inner!r} name={self.name!r} "
            f"rank={self.rank}>"
        )


def _make(name: str, factory: Any) -> Any:
    rank = LOCK_HIERARCHY.get(name)
    if rank is None:
        raise KeyError(
            f"lock {name!r} is not declared in "
            f"repro.analysis.locks.LOCK_HIERARCHY — add it with a rank "
            f"before constructing it through the sanitized factory"
        )
    if not _ENABLED:
        return factory()
    return _SanitizedLock(name, rank, factory())


def make_lock(name: str) -> Any:
    """A ``threading.Lock`` participating in the declared hierarchy."""
    return _make(name, threading.Lock)


def make_rlock(name: str) -> Any:
    """A ``threading.RLock`` participating in the declared hierarchy."""
    return _make(name, threading.RLock)


def iter_hierarchy() -> Iterator[tuple[str, int]]:
    """(name, rank) pairs in ascending rank order."""
    return iter(sorted(LOCK_HIERARCHY.items(), key=lambda kv: kv[1]))
