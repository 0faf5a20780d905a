"""The process-pool serving tier: GIL-free scatter-gather execution.

:class:`ProcessPoolServer` swaps the thread server's in-process group
execution for a pool of **worker processes** that memory-map one
packed image of the instance store
(:meth:`~repro.uncertain.store.InstanceStore.export_file`, the format
durable snapshots use).  Each pool writes its images into one private
directory — under ``/dev/shm`` when the platform has it, so the image
lives in memory, else in the default temp directory.  Queries cross
the pipe as small ``(kind, queries, params, forced)`` tuples and the
image as a ``(path, epoch)`` pair — the instance data itself is never
pickled; workers map the file and rebuild a zero-copy dataset over it
on their first query.

Execution model
---------------

* The parent keeps the thread server's scheduler and its worker
  *threads*, but each thread drives idle worker *processes* instead of
  computing: a dispatched read group is split into contiguous query
  chunks, scattered over however many processes are idle right now,
  and gathered back in chunk order.  Chunking is bit-transparent —
  every query row is independent, so the merged answers equal the
  single-dispatch answers exactly.
* Workers answer Step 1 through the sharded scatter-gather retriever
  (:class:`~repro.service.shards.ShardedRetriever`) unless the query
  forces ``"brute"`` — per-shard MBR bounds prune dominated shards
  before any member distance is computed, and the counters travel
  back on each result's :class:`~repro.engine.ExecutionStats`.
* A mutation barrier becomes a **pool-wide fence**: the scheduler
  already guarantees exclusivity (no reads in flight), so the parent
  applies the mutation, exports a fresh image at the new epoch,
  broadcasts a re-attach to every worker, awaits their acks, and only
  then removes the old image file.  Workers refuse stale attaches by
  the epoch stamp inside the image header.

Fault tolerance
---------------

* A worker that dies (or stalls past ``stall_timeout``) mid-chunk no
  longer fails its queries: the chunk is **re-dispatched** to a live
  worker (bounded attempts with backoff), terminally falling back to
  inline execution in the parent — a dispatched query fails only if
  it cannot run anywhere.  The dead worker is respawned; recovery
  counters (``retries``, ``worker_restarts``) ride the results'
  :class:`~repro.engine.ExecutionStats` and
  :meth:`ProcessPoolServer.recovery_snapshot`.
* A worker unfinished past its total chunk budget (``stall_timeout``)
  trips :class:`WorkerStalled` and is killed + respawned.
* The re-attach **fence is re-entrant and leak-free**: a worker that
  dies mid-fence (before or instead of acking) is retired and
  respawned at the new image; the old image is removed on every path,
  and :meth:`ProcessPoolServer.close` removes the live image and the
  pool's directory, so no image outlives the pool (regression tests
  in ``tests/test_procpool.py``).
* Deterministic chaos tests drive all of the above through
  :mod:`repro.testing.faults`: pass ``fault_plan=`` to ship a seeded
  :class:`~repro.testing.faults.FaultPlan` to every spawned worker
  (sites ``proc.attach`` / ``proc.chunk`` / ``proc.fence``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from collections import deque
from typing import Any, Sequence

from ..storage.durable import StoreReadOnly
from .scheduler import MutationWork
from .server import UncertainDBServer

__all__ = ["ProcessPoolServer", "WorkerDied", "WorkerStalled"]

#: Minimum queries per scattered chunk: below this, pipe + merge
#: overhead outweighs extra processes and the group runs on one.
SCATTER_MIN = 8
#: Re-dispatch attempts for a chunk whose worker died or stalled,
#: before the inline-execution fallback.
MAX_CHUNK_RETRIES = 2
#: Attempts at a worker's image attach before the chunk fails.
ATTACH_RETRIES = 3


class WorkerDied(RuntimeError):
    """A worker process exited while executing a dispatched chunk."""


class WorkerStalled(WorkerDied):
    """A worker exceeded its chunk-time budget and was presumed hung.

    Subclasses :class:`WorkerDied` because the recovery is identical
    (kill, respawn, re-dispatch the chunk) — the distinction is
    diagnostic: the process was alive but not progressing.
    """


# ----------------------------------------------------------------------
# Worker process side (top-level: must be picklable for spawn)
# ----------------------------------------------------------------------
def _map_image(image: tuple[str, int]) -> Any:
    """Map a pool image, refusing one whose header epoch differs from
    the ``(path, epoch)`` handle's (a stale handle or a reused path)."""
    from ..uncertain.store import attach_file

    path, epoch = image
    snapshot = attach_file(path)
    if snapshot.epoch != epoch:
        found = snapshot.epoch
        snapshot.close()
        raise ValueError(
            f"stale image attach: handle describes epoch {epoch} but "
            f"{path!r} holds epoch {found}"
        )
    return snapshot


class _WorkerState:
    """Everything one worker process rebuilds from the mapped image.

    Constructed lazily on the first ``run`` after (re-)attach: the
    zero-copy dataset over the image, one engine per
    ``(kind, retriever)`` pair, and a single
    :class:`~repro.service.shards.ShardLayout` shared by every sharded
    retriever.  Torn down (and the image unmapped) on each fence.
    """

    def __init__(self, image: tuple[str, int], config: dict[str, Any]) -> None:
        self.snapshot = _map_image(image)
        self.dataset: Any = self.snapshot.build_dataset()
        self.config = config
        self.epoch = self.snapshot.epoch
        self._engines: dict[tuple[str, str], Any] = {}
        self._layout: Any = None

    # -- plan policy ---------------------------------------------------
    def _choice(
        self, kind: str, params: dict[str, Any], forced: str | None
    ) -> tuple[str, str, str]:
        """``(retriever name, reason, cost_kind)`` for one template.

        The policy-fixed kinds follow the parent's rule
        (``repro.api.database._fixed_choice``); everything else
        goes to the sharded scatter-gather filter (or brute force when
        forced).  Index retrievers are not available inside workers —
        their paged structures live in the parent and are not shared.
        """
        from ..api.database import _fixed_choice

        fixed = _fixed_choice(kind, params, len(self.dataset))
        if fixed is not None:
            name, reason, _, bucket = fixed
            return name, reason, bucket
        if forced in (None, "sharded"):
            return (
                "sharded",
                "process pool: sharded scatter-gather Step 1 over the "
                "mapped image (MBR-dominated shards pruned)",
                kind,
            )
        if forced == "brute":
            return (
                "brute",
                "forced exact brute-force Step 1 (process pool)",
                kind,
            )
        raise ValueError(
            f"retriever {forced!r} is not available in process mode: "
            "workers share only the packed instance store, not the "
            "parent's paged indexes (use 'brute', 'sharded', or the "
            "default)"
        )

    def _engine(self, kind: str, rname: str) -> Any:
        from ..api.database import _KINDS
        from .shards import ShardLayout, ShardedRetriever

        key = (kind, rname)
        engine = self._engines.get(key)
        if engine is not None:
            return engine
        retriever: ShardedRetriever | None = None
        if rname == "sharded":
            if self._layout is None:
                self._layout = ShardLayout.build(self.dataset)
            retriever = ShardedRetriever(self.dataset, layout=self._layout)
        engine = _KINDS[kind](
            self.dataset,
            retriever,
            secondary=None,
            result_cache_size=self.config["result_cache_size"],
        )
        if retriever is not None:
            # Shard prune/dispatch counts land on the engine's stats,
            # so the measured deltas carry them back over the pipe.
            retriever.stats = engine.stats
        self._engines[key] = engine
        return engine

    # -- execution -----------------------------------------------------
    def execute(
        self,
        kind: str,
        queries: Sequence[Any],
        params: tuple[tuple[str, Any], ...],
        forced: str | None,
    ) -> list[Any]:
        from ..api.planner import Plan
        from ..api.result import QueryResult

        rname, reason, bucket = self._choice(kind, dict(params), forced)
        engine = self._engine(kind, rname)
        kwargs = dict(params)
        t0 = time.perf_counter()
        if len(queries) == 1:
            answer, delta = engine.query_measured(queries[0], **kwargs)
            answers = [answer]
        else:
            answers, delta = engine.query_batch_measured(
                list(queries), **kwargs
            )
        delta.worker_busy_seconds = time.perf_counter() - t0
        plan = Plan(
            kind=kind,
            params=params,
            retriever=rname,
            reason=reason,
            epoch=self.epoch,
            forced=forced is not None,
            cost_kind=bucket,
        )
        return [
            QueryResult(kind=kind, answer=answer, plan=plan, stats=delta)
            for answer in answers
        ]

    @property
    def n_shards(self) -> int | None:
        """Shards in the layout, once a sharded query has built it."""
        return None if self._layout is None else len(self._layout)

    def close(self) -> None:
        """Drop every reference into the image, unmapping it."""
        import gc

        self._engines.clear()
        self._layout = None
        self.dataset = None
        self.snapshot.close()
        # Engines and objects form reference cycles that keep views
        # of the mapping alive; collect them so it is released now.
        gc.collect()


def _attach_state(
    image: tuple[str, int], config: dict[str, Any], wid: int
) -> _WorkerState:
    """Build the worker state, retrying a failed image attach.

    An attach can fail with an ``OSError`` (the file cannot be opened
    or mapped); retry with backoff before giving up — the final raise
    fails only the current chunk, which the parent then re-dispatches
    elsewhere.
    """
    from ..testing import faults as _faults

    delay = 0.01
    for attempt in range(ATTACH_RETRIES):
        try:
            _faults.check("proc.attach", wid=wid)
            return _WorkerState(image, config)
        except OSError:
            if attempt == ATTACH_RETRIES - 1:
                raise
            time.sleep(delay)
            delay *= 2
    raise AssertionError("unreachable")  # pragma: no cover


def _worker_main(
    conn: Any, image: tuple[str, int], config: dict[str, Any], wid: int = 0
) -> None:
    """One worker process: attach, serve the pipe, detach.

    The state is built lazily on the first ``run`` so a worker that
    only ever sees fences (or an immediate ``stop``) never maps the
    image at all.  The main loop is the pipe's only sender.
    """
    from ..core import sekernel
    from ..testing import faults as _faults

    plan = config.get("fault_plan")
    if plan is not None:
        _faults.arm(plan)
    # Build the compiled loops before serving the pipe, so no chunk
    # (and no stall budget) pays for the compiler run.
    sekernel.load()
    state: _WorkerState | None = None
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return  # parent went away; exit quietly
            op = msg[0]
            if op == "stop":
                return
            if op == "fence":
                _, epoch, new_image = msg
                _faults.check("proc.fence", wid=wid)
                if state is not None:
                    state.close()
                    state = None
                image = new_image
                conn.send(("fenced", int(epoch)))
                continue
            # ("run", kind, queries, params, forced)
            _, kind, queries, params, forced = msg
            try:
                _faults.check("proc.chunk", wid=wid, kind=kind)
                if state is None:
                    state = _attach_state(image, config, wid)
                t0 = time.perf_counter()
                results = state.execute(kind, queries, params, forced)
                elapsed = time.perf_counter() - t0
                n_shards = state.n_shards
            except BaseException as error:  # noqa: BLE001 - shipped back
                try:
                    conn.send(("err", error))
                # A broken __reduce__ can raise anything.
                except Exception:  # noqa: BLE001
                    conn.send(
                        ("err", RuntimeError(
                            f"{type(error).__name__}: {error}"
                        ))
                    )
            else:
                conn.send(("ok", results, elapsed, n_shards))
    except KeyboardInterrupt:
        pass
    finally:
        if state is not None:
            state.close()
        try:
            conn.close()
        except (OSError, ValueError):
            pass


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _WorkerProc:
    """Parent-side handle to one worker process and its pipe end.

    A handle is owned by at most one dispatching thread at a time (the
    idle-deque discipline below), so pipe access needs no lock.
    """

    __slots__ = ("wid", "proc", "conn")

    def __init__(self, ctx: Any, wid: int, image: tuple[str, int],
                 config: dict[str, Any]) -> None:
        self.wid = wid
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, image, config, wid),
            name=f"uncertaindb-proc-{wid}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()

    def stop(self, timeout: float = 1.0) -> None:
        """Best-effort graceful stop, escalating to terminate."""
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError):
            pass
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout)
        try:
            self.conn.close()
        except (OSError, ValueError):
            pass


class ProcessPoolServer(UncertainDBServer):
    """Process pool over a mapped store image, behind the coalescing
    scheduler.

    Drop-in replacement for the thread server, selected via
    ``db.serve(mode="process")``.  Same client surface, same
    consistency contract (epoch barriers, bit-identical answers) —
    but group execution happens in worker processes that map one
    packed image of the instance store, with Step 1 sharded
    (:data:`~repro.service.shards.DEFAULT_SHARDS` target shards) and
    scatter-gathered (see the module docstring).

    Parameters
    ----------
    db:
        The database to serve.  Its packed instance store is exported
        as an image file up front; mutations re-export (pool fence).
    workers:
        Process count — and dispatcher-thread count: each thread
        drives one or more idle processes per group.
    stall_timeout:
        Total seconds one dispatched chunk (or fence ack) may take
        before the worker is presumed hung, killed, and its chunk
        re-dispatched (:class:`WorkerStalled`).
    fault_plan:
        A :class:`~repro.testing.faults.FaultPlan` shipped to every
        spawned worker and armed there (chaos tests only; ``None``
        keeps every hook on its zero-cost path).
    """

    def __init__(
        self,
        db: Any,
        *,
        workers: int = 2,
        max_group: int = 256,
        stall_timeout: float = 30.0,
        fault_plan: Any = None,
    ) -> None:
        import multiprocessing

        if workers < 1:
            raise ValueError("workers must be >= 1")
        if stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive seconds")
        # Spawn, not fork: the parent runs scheduler/dispatcher threads
        # and forking a threaded process is undefined behavior-adjacent.
        self._ctx = multiprocessing.get_context("spawn")
        self.db = db
        self._config = {
            "result_cache_size": db.result_cache_size,
            "fault_plan": fault_plan,
        }
        #: Shards in the workers' layout, as the last answer reported.
        self._n_shards: int | None = None
        self._stall_timeout = float(stall_timeout)
        self._proc_cv = threading.Condition()
        self._procs: list[_WorkerProc] = []
        self._idle: deque[_WorkerProc] = deque()
        self._next_wid = 0
        self._broken = False
        self._busy_per_worker: dict[int, float] = {}
        self._groups_scattered = 0
        self._chunks_dispatched = 0
        self._shards_dispatched = 0
        self._shards_pruned = 0
        self._retries = 0
        self._worker_restarts = 0
        # Images live in memory where the platform offers a tmpfs.
        self._dir = tempfile.mkdtemp(
            prefix="repro_pool_",
            dir="/dev/shm" if os.path.isdir("/dev/shm") else None,
        )
        try:
            self._image = self._export()
            for _ in range(workers):
                self._spawn_locked()
        except BaseException:
            self._teardown()
            raise
        # Last: the base constructor starts the dispatcher threads,
        # which immediately begin pulling work that needs the pool.
        super().__init__(db, workers=workers, max_group=max_group)

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------
    def _export(self) -> tuple[str, int]:
        """Write the dataset's packed image at its current epoch into
        the pool directory; the ``(path, epoch)`` handle workers map."""
        store = self.db.dataset.instance_store()
        path = os.path.join(self._dir, f"image-{store.epoch}.bin")
        return path, store.export_file(path)

    def _spawn_locked(self) -> _WorkerProc:
        """Start one worker at the current image (caller may hold no
        lock during __init__; afterwards call under ``_proc_cv``)."""
        proc = _WorkerProc(
            self._ctx, self._next_wid, self._image, self._config
        )
        self._next_wid += 1
        self._busy_per_worker.setdefault(proc.wid, 0.0)
        self._procs.append(proc)
        self._idle.append(proc)
        return proc

    def _acquire(self, want: int) -> list[_WorkerProc]:
        """Block for one idle process, grab up to ``want`` in total."""
        with self._proc_cv:
            while not self._idle:
                if self._broken or self._closed and not self._procs:
                    raise WorkerDied(
                        "process pool is broken (all workers died)"
                    )
                self._proc_cv.wait(0.1)
            got = [self._idle.popleft()]
            while len(got) < want and self._idle:
                got.append(self._idle.popleft())
            return got

    def _release(self, procs: list[_WorkerProc]) -> None:
        with self._proc_cv:
            self._idle.extend(procs)
            self._proc_cv.notify_all()

    def _retire(self, dead: _WorkerProc) -> None:
        """Drop a dead worker and respawn a replacement at the live
        image; the pool goes *broken* only when respawning fails."""
        dead.stop(timeout=0.1)
        with self._proc_cv:
            if dead in self._idle:
                self._idle.remove(dead)
            if dead in self._procs:
                self._procs.remove(dead)
            if self._closed:
                self._proc_cv.notify_all()
                return
            try:
                self._spawn_locked()
                self._worker_restarts += 1
            # Any spawn failure degrades the pool to broken.
            except Exception:  # noqa: BLE001
                if not self._procs:
                    self._broken = True
            self._proc_cv.notify_all()

    def _recv_result(self, proc: _WorkerProc, budget_at: float) -> Any:
        """Gather one pipe message, or raise once the budget is spent.

        ``budget_at`` is the absolute ``time.monotonic`` point at which
        the chunk is declared stalled — a *total time budget*.
        """
        poll = max(0.01, min(0.25, self._stall_timeout / 10.0))
        while True:
            if proc.conn.poll(min(poll, max(0.0, budget_at - time.monotonic()))):
                return proc.conn.recv()
            if time.monotonic() >= budget_at:
                raise WorkerStalled(
                    f"worker {proc.wid} exceeded its "
                    f"{self._stall_timeout:.1f}s chunk budget"
                )

    # ------------------------------------------------------------------
    # Group execution: scatter over idle workers, gather in order
    # ------------------------------------------------------------------
    def _run_group(
        self,
        kind: str,
        queries: list[Any],
        params: tuple[tuple[str, Any], ...],
        forced: str | None,
    ) -> list[Any]:
        want = max(1, min(len(queries) // SCATTER_MIN, 1 << 10))
        procs = self._acquire(want)
        chunks = _split(queries, len(procs))
        procs = procs[: len(chunks)]
        responses: list[Any] = [None] * len(procs)
        dead: list[_WorkerProc] = []
        try:
            for proc, chunk in zip(procs, chunks):
                try:
                    proc.conn.send(("run", kind, chunk, params, forced))
                except (BrokenPipeError, OSError):
                    dead.append(proc)
                    responses[procs.index(proc)] = WorkerDied(
                        f"worker {proc.wid} died before dispatch"
                    )
            # All chunks run concurrently, so each gets the same
            # absolute budget measured from dispatch.
            budget_at = time.monotonic() + self._stall_timeout
            for i, proc in enumerate(procs):
                if responses[i] is not None:
                    continue
                try:
                    responses[i] = self._recv_result(proc, budget_at)
                except (EOFError, OSError):
                    dead.append(proc)
                    responses[i] = WorkerDied(
                        f"worker {proc.wid} died executing "
                        f"{kind} x{len(chunks[i])}"
                    )
                except WorkerStalled as stall:
                    dead.append(proc)
                    responses[i] = stall
        finally:
            alive = [p for p in procs if p not in dead]
            self._release(alive)
            for proc in dead:
                self._retire(proc)
        merged: list[Any] = []
        shards_d = shards_p = 0
        error: BaseException | None = None
        for i, (proc, response) in enumerate(zip(procs, responses)):
            if isinstance(response, WorkerDied):
                # The worker is gone but its queries are not: retry
                # the chunk on live workers, inline as a last resort.
                try:
                    results = self._retry_chunk(
                        kind, chunks[i], params, forced
                    )
                except BaseException as exc:  # noqa: BLE001
                    error = error or exc
                    continue
                merged.extend(results)
                continue
            if isinstance(response, BaseException):
                error = error or response
                continue
            if response[0] == "err":
                error = error or response[1]
                continue
            _, results, busy, n_shards = response
            merged.extend(results)
            if results:
                shards_d += results[0].stats.shards_dispatched
                shards_p += results[0].stats.shards_pruned
            with self._proc_cv:
                self._busy_per_worker[proc.wid] = (
                    self._busy_per_worker.get(proc.wid, 0.0) + busy
                )
                if n_shards is not None:
                    self._n_shards = n_shards
        with self._proc_cv:
            self._groups_scattered += 1 if len(procs) > 1 else 0
            self._chunks_dispatched += len(procs)
            self._shards_dispatched += shards_d
            self._shards_pruned += shards_p
        if error is not None:
            raise error
        return merged

    def _retry_chunk(
        self,
        kind: str,
        chunk: list[Any],
        params: tuple[tuple[str, Any], ...],
        forced: str | None,
    ) -> list[Any]:
        """Re-dispatch one failed chunk; inline execution as backstop.

        Bounded attempts against live workers with exponential
        backoff.  The terminal fallback runs the chunk through the
        parent's own engine path — the scheduler's barrier guarantees
        no mutation can land while this read group is in flight, so
        the inline answers see the same epoch the workers would have.
        A genuine query error (the worker *answered*, with an
        exception) is never retried: it would fail identically
        everywhere.
        """
        delay = 0.005
        attempts = 0
        for _ in range(MAX_CHUNK_RETRIES):
            try:
                proc = self._acquire(1)[0]
            except WorkerDied:
                break  # pool broken: go straight to inline
            attempts += 1
            proc_dead = False
            response = None
            try:
                proc.conn.send(("run", kind, chunk, params, forced))
                response = self._recv_result(
                    proc, time.monotonic() + self._stall_timeout
                )
            except (BrokenPipeError, EOFError, OSError, WorkerStalled):
                proc_dead = True
            finally:
                if proc_dead:
                    self._retire(proc)
                else:
                    self._release([proc])
            if response is not None:
                if response[0] == "err":
                    raise response[1]
                _, results, busy, n_shards = response
                self._note_recovery(retries=attempts)
                if results:
                    # One shared stats delta per chunk: stamping the
                    # first envelope stamps them all.
                    results[0].stats.retries = attempts
                    results[0].stats.worker_restarts = attempts
                with self._proc_cv:
                    self._busy_per_worker[proc.wid] = (
                        self._busy_per_worker.get(proc.wid, 0.0) + busy
                    )
                    if n_shards is not None:
                        self._n_shards = n_shards
                return results
            time.sleep(delay)
            delay *= 2
        # Inline fallback.  The sharded retriever exists only inside
        # workers; inline execution maps it (and the default) to the
        # parent's cost-based choice, keeping only an explicit "brute".
        inline_forced = forced if forced == "brute" else None
        results = self.db._execute_group(
            kind, list(chunk), params, inline_forced
        )
        attempts += 1
        self._note_recovery(retries=attempts)
        if results:
            results[0].stats.retries = attempts
            results[0].stats.worker_restarts = attempts - 1
        return results

    def _note_recovery(self, *, retries: int = 0) -> None:
        with self._proc_cv:
            self._retries += retries

    # ------------------------------------------------------------------
    # Mutation barriers become pool-wide fences
    # ------------------------------------------------------------------
    def _apply_mutation(self, work: MutationWork) -> None:
        try:
            if work.op == "insert":
                value: Any = self.db._apply_insert(work.payload)
            else:
                value = self.db._apply_delete(work.payload)
        except BaseException as error:  # noqa: BLE001 - future carries it
            work.future._set_exception(error)
            return
        try:
            self._fence()
        except BaseException as error:  # noqa: BLE001 - future carries it
            # The mutation is applied but the pool could not re-attach;
            # surface the failure rather than serving stale reads.
            with self._proc_cv:
                self._broken = True
            work.future._set_exception(error)
            return
        work.future._set_result(value, self.db.dataset.epoch)

    def _fence(self) -> None:
        """Export the post-mutation image and re-attach every worker.

        Runs with the scheduler's mutation exclusivity: no reads are
        in flight, so every live worker sits in the idle deque and its
        pipe is free.  The old image file is removed only after every
        ack (or death verdict), so no worker is left pointing at a
        path that is gone; a worker that still maps the old image
        keeps its pages until it unmaps them (POSIX semantics).

        **Re-entrant and leak-free under worker failure.**  Every
        per-worker problem — send error, EOF, a bad or missing ack,
        a stall past the budget — marks that worker dead: it is
        retired and respawned at the *new* image (the new handle is
        installed first, so respawns attach the new epoch).  The old
        image is removed on all of those paths; only a failure to
        export the new image at all aborts the fence.  A fence that
        lost workers therefore leaves the pool healed and consistent
        rather than broken with an orphaned image file.

        A durable database checkpoints first: the mutation that forced
        this fence is already WAL-logged, and the checkpoint syncs the
        log (merging it into a fresh snapshot once it has grown) while
        mutations are quiesced.  A checkpoint that fails (injected I/O
        error, or a store already degraded to read-only) loses nothing
        — recovery replays the WAL — so the fence proceeds instead of
        failing the mutation.
        """
        durable = getattr(self.db, "_durable", None)
        if durable is not None:
            try:
                durable.checkpoint()
            except (OSError, StoreReadOnly):
                pass
        old = self._image
        new = self._export()
        epoch = new[1]
        # Install before broadcasting: any worker respawned from here
        # on (including replacements for fence casualties) attaches
        # the new image.
        self._image = new
        try:
            with self._proc_cv:
                procs = list(self._procs)
            dead: list[_WorkerProc] = []
            for proc in procs:
                try:
                    proc.conn.send(("fence", epoch, new))
                except (BrokenPipeError, OSError):
                    dead.append(proc)
            budget_at = time.monotonic() + self._stall_timeout
            for proc in procs:
                if proc in dead:
                    continue
                try:
                    ack = self._recv_result(proc, budget_at)
                except (EOFError, OSError, WorkerStalled):
                    dead.append(proc)
                    continue
                if ack != ("fenced", epoch):
                    dead.append(proc)
            for proc in dead:
                self._retire(proc)
        finally:
            if old[0] != new[0]:
                _remove(old[0])

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def scaleout_snapshot(self) -> dict[str, Any]:
        """Pool telemetry for ``db.explain`` (``Plan.scaleout``)."""
        with self._proc_cv:
            return {
                "mode": "process",
                "workers": len(self._procs),
                "n_shards": self._n_shards,
                "image": self._image[0],
                "image_epoch": self._image[1],
                "groups_scattered": self._groups_scattered,
                "chunks_dispatched": self._chunks_dispatched,
                "shards_dispatched": self._shards_dispatched,
                "shards_pruned": self._shards_pruned,
                "retries": self._retries,
                "worker_restarts": self._worker_restarts,
                "worker_busy_seconds": {
                    str(wid): round(sec, 6)
                    for wid, sec in sorted(self._busy_per_worker.items())
                },
            }

    def recovery_snapshot(self) -> dict[str, int]:
        """Recovery-action counters (chunk retries, respawns, misses)."""
        with self._recovery_lock:
            misses = self._deadline_misses
        with self._proc_cv:
            return {
                "retries": self._retries,
                "worker_restarts": self._worker_restarts,
                "deadline_misses": misses,
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float | None = None) -> None:
        """Drain, stop dispatcher threads, then always tear the pool
        down — workers terminated, the image and the pool directory
        removed even when a worker died mid-query (the drain fails
        those futures with :class:`WorkerDied`; teardown still runs)."""
        try:
            super().close(timeout)
        finally:
            self._teardown()

    def _teardown(self) -> None:
        with self._proc_cv:
            procs, self._procs = self._procs, []
            self._idle.clear()
            self._broken = True
            self._proc_cv.notify_all()
        for proc in procs:
            try:
                proc.stop()
            except Exception:  # noqa: BLE001 - teardown must never raise
                pass
        # The live image (and any half-written one) sits in the pool
        # directory, so removing the directory removes them too.
        shutil.rmtree(self._dir, ignore_errors=True)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "serving"
        with self._proc_cv:
            n = len(self._procs)
        return (
            f"ProcessPoolServer({state}, workers={n}, "
            f"shards={self._n_shards}, "
            f"pending={self.scheduler.pending()})"
        )


def _remove(path: str) -> None:
    """Remove an image file; one that is already gone is fine."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _split(items: list[Any], parts: int) -> list[list[Any]]:
    """Contiguous, balanced chunks (first chunks one longer)."""
    parts = max(1, min(parts, len(items)))
    base, extra = divmod(len(items), parts)
    out = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append(items[start:start + size])
        start += size
    return out
