"""Outside-in layer tracing for the traced run (``--trace 1``).

The program has no spans of its own yet, so the benchmark records them
from outside: :class:`Tracer` swaps a timing wrapper in for the public
functions at each layer boundary (``Planner.plan``, the engines'
``query_measured``/``query_batch_measured``, ``PVIndex.build/insert/
delete/candidates``, ``InstanceStore.apply_*``,
``WriteAheadLog.append``, ``DurableStore.recover/checkpoint``) and
hooks the scheduler's ``submit_read``/``submit_mutation``/``next_work``
/``work_done`` to stamp queue wait and group execution.  Everything is
restored on :meth:`Tracer.uninstall`; the untraced run never installs
anything.

A span carries its name, start and end (``perf_counter`` seconds), the
id of the span that caused it, and the request ids it serves (a
coalesced group serves several).  Spans stay in memory and are written
out once, at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

#: (import path, class name, attribute, span name) of every wrapped
#: public function, grouped by the layer (module) it belongs to.
WRAPPED = (
    ("repro.api.planner", "Planner", "plan", "api.plan"),
    ("repro.engine.base", "BaseEngine", "query_measured", "engine.execute"),
    ("repro.engine.base", "BaseEngine", "query_batch_measured",
     "engine.execute"),
    ("repro.core.pvindex", "PVIndex", "build", "core.pv_build"),
    ("repro.core.pvindex", "PVIndex", "insert", "core.pv_insert"),
    ("repro.core.pvindex", "PVIndex", "delete", "core.pv_delete"),
    ("repro.core.pvindex", "PVIndex", "candidates", "core.pv_candidates"),
    ("repro.uncertain.store", "InstanceStore", "apply_insert",
     "uncertain.store_apply"),
    ("repro.uncertain.store", "InstanceStore", "apply_delete",
     "uncertain.store_apply"),
    ("repro.storage.wal", "WriteAheadLog", "append", "storage.wal_append"),
    ("repro.storage.durable", "DurableStore", "recover", "storage.recover"),
    ("repro.storage.durable", "DurableStore", "checkpoint",
     "storage.checkpoint"),
)


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    rids: tuple[int, ...]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[type, str, Any]] = []
        #: future id -> (request id, submit time, mutation?)
        self._submitted: dict[int, tuple[int, float, bool]] = {}
        #: id of dispatched work -> (execute span id, start, rids)
        self._running: dict[int, tuple[int, float, tuple[int, ...]]] = {}

    # -- span stack (per thread) --------------------------------------
    def _stack(self) -> list[tuple[int, tuple[int, ...]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, rid: int | None = None) -> "_Open":
        """Context manager opening one span on this thread."""
        return _Open(self, name, rid)

    def _enter(self, rid: int | None) -> tuple[int, int | None, tuple]:
        stack = self._stack()
        parent, rids = stack[-1] if stack else (None, ())
        if rid is not None:
            rids = (rid,)
        sid = next(self._ids)
        stack.append((sid, rids))
        return sid, parent, rids

    def _exit(self) -> None:
        self._stack().pop()

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        import importlib

        for module, cls_name, attr, name in WRAPPED:
            cls = getattr(importlib.import_module(module), cls_name)
            self._wrap(cls, attr, name)
        from repro.service.scheduler import CoalescingScheduler

        self._hook_scheduler(CoalescingScheduler)

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._restore):
            setattr(cls, attr, original)
        self._restore.clear()

    def _patch(self, cls: type, attr: str, replacement: Any) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def _wrap(self, cls: type, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        is_cm = isinstance(raw, classmethod)
        fn: Callable = raw.__func__ if is_cm else raw
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid, parent, rids = tracer._enter(None)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._exit()
                tracer._record(Span(sid, parent, name, t0, t1, rids))

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        self._patch(cls, attr, classmethod(wrapper) if is_cm else wrapper)

    def _hook_scheduler(self, cls: type) -> None:
        tracer = self
        submit_read = cls.submit_read
        submit_mutation = cls.submit_mutation
        next_work = cls.next_work
        work_done = cls.work_done

        def _submitted(future: Any, t0: float, mutation: bool) -> None:
            stack = tracer._stack()
            rid = stack[-1][1][0] if stack and stack[-1][1] else 0
            with tracer._lock:
                tracer._submitted[id(future)] = (rid, t0, mutation)

        def traced_submit_read(self: Any, *args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            future = submit_read(self, *args, **kwargs)
            _submitted(future, t0, False)
            return future

        def traced_submit_mutation(self: Any, *args: Any, **kwargs: Any
                                   ) -> Any:
            t0 = time.perf_counter()
            future = submit_mutation(self, *args, **kwargs)
            _submitted(future, t0, True)
            return future

        def traced_next_work(self: Any) -> Any:
            work = next_work(self)
            if work is None:
                return work
            now = time.perf_counter()
            futures = getattr(work, "futures", None)
            if futures is None:
                futures = [work.future]
            rids = []
            with tracer._lock:
                for future in futures:
                    rid, t0, mutation = tracer._submitted.pop(
                        id(future), (0, now, False)
                    )
                    rids.append(rid)
                    tracer.spans.append(Span(
                        next(tracer._ids), None,
                        "service.barrier_wait" if mutation
                        else "service.queue_wait",
                        t0, now, (rid,),
                    ))
            sid = next(tracer._ids)
            tracer._stack().append((sid, tuple(rids)))
            tracer._running[id(work)] = (sid, now, tuple(rids))
            return work

        def traced_work_done(self: Any, work: Any) -> None:
            entry = tracer._running.pop(id(work), None)
            if entry is not None:
                sid, t0, rids = entry
                t1 = time.perf_counter()
                stack = tracer._stack()
                if stack and stack[-1][0] == sid:
                    stack.pop()
                tracer._record(Span(sid, None, "service.execute", t0, t1,
                                    rids))
            return work_done(self, work)

        self._patch(cls, "submit_read", traced_submit_read)
        self._patch(cls, "submit_mutation", traced_submit_mutation)
        self._patch(cls, "next_work", traced_next_work)
        self._patch(cls, "work_done", traced_work_done)

    # -- analysis -------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> its duration minus what its child spans cover."""
        child: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.seconds
        return {s.sid: s.seconds - child.get(s.sid, 0.0) for s in self.spans}

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: str) -> None:
        """Dump every span as one JSON line (with its self time)."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end,
                    "self": selfs[s.sid], "rids": list(s.rids),
                }) + "\n")


class _Open:
    def __init__(self, tracer: Tracer, name: str, rid: int | None) -> None:
        self.tracer, self.name, self.rid = tracer, name, rid

    def __enter__(self) -> "_Open":
        self.sid, self.parent, self.rids = self.tracer._enter(self.rid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        t1 = time.perf_counter()
        self.tracer._exit()
        self.tracer._record(
            Span(self.sid, self.parent, self.name, self.t0, t1, self.rids)
        )
