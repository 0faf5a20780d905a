"""Shared machinery of the benchmark: clock, client loop, checks, output.

Everything here is workload-independent: the closed-loop client that
times each operation, percentile summaries, the leak sentinel, peak
RSS, the environment block and the replay model the correctness checks
answer against.  The workloads themselves live in ``workloads.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: Host-speed probe: the normalised figures are expressed at the host
#: speed where one probe slice takes ``PROBE_REFERENCE_S`` (about its
#: median on the 2-vCPU VM the benchmark was sized on), and an
#: operation's host factor is the median probe within
#: ``PROBE_WINDOW_S`` of its start.
PROBE_REFERENCE_S = 2.5e-3
PROBE_WINDOW_S = 2.0
_PROBE_MATRIX = np.random.default_rng(0).random((120, 120))


class CheckFailed(AssertionError):
    """A correctness check or a same-work guard did not hold."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` (not an assert:
    it must survive ``python -O``)."""
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# Operation log of one measured phase
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One client operation as the client saw it."""

    kind: str  # "read" | "write"
    verb: str  # nn / insert / delete / checkpoint
    start: float
    end: float
    result: Any = None
    error: str | None = None
    #: Request id linking the op to its spans in a traced run.
    rid: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class RunLog:
    """Everything the measured phase produced, in client order."""

    ops: list[Op] = field(default_factory=list)
    wall: float = 0.0
    #: (time, seconds) of every host-speed probe of the measured phase.
    probes: list[tuple[float, float]] = field(default_factory=list)
    #: Median of the probes taken around each set-up (9 before, 9 after).
    setup_probes: list[float] = field(default_factory=list)
    #: The :class:`~tracing.Tracer` of a traced run, else ``None``.
    tracer: Any = None
    _rid: int = 0

    def probe(self) -> None:
        """Time one probe slice; called between operations, never
        inside a timed one."""
        self.probes.append((time.perf_counter(), probe_seconds()))

    def next_rid(self) -> int:
        self._rid += 1
        return self._rid

    def request(self, name: str, rid: int) -> Any:
        """A client span for ``rid`` (a no-op context when untraced)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, rid)

    def of(self, kind: str, ok: bool = True) -> list[Op]:
        return [
            op for op in self.ops
            if op.kind == kind and (not ok or op.error is None)
        ]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for op in self.ops:
            out[op.verb] = out.get(op.verb, 0) + 1
        return dict(sorted(out.items()))


def timed(log: RunLog, kind: str, verb: str, call: Callable[[], Any]) -> Op:
    """Run one blocking operation and append it to ``log``.

    An operation that raises is logged with its error and counts as
    failed; it never aborts the run.
    """
    rid = log.next_rid()
    t0 = time.perf_counter()
    with log.request(f"client.{kind}", rid):
        try:
            result, error = call(), None
        except Exception as exc:  # noqa: BLE001 - counted in error_rate
            result, error = None, f"{type(exc).__name__}: {exc}"
    # Only reads keep their answer: a delete returns the removed object,
    # which must not outlive the run in the log.
    op = Op(kind, verb, t0, time.perf_counter(),
            result if kind == "read" else None, error, rid=rid)
    log.ops.append(op)
    return op


def window(log: RunLog, submits: list[tuple[str, Callable[[], Any]]]
           ) -> list[Op]:
    """Submit a window of read futures, then wait for every one of them.

    Each read is timed from its own submit to the moment the client
    sees its future complete (``as_completed``); the next window starts
    only after the whole window completed (a closed loop of one client
    thread).
    """
    from repro.service import as_completed

    slots: list[Any] = []  # an Op (submit failed) or (verb, t0, rid, future)
    for verb, submit in submits:
        rid = log.next_rid()
        t0 = time.perf_counter()
        try:
            with log.request("client.submit", rid):
                future = submit()
        except Exception as exc:  # noqa: BLE001 - counted in error_rate
            slots.append(Op("read", verb, t0, time.perf_counter(), None,
                            f"{type(exc).__name__}: {exc}", rid=rid))
            continue
        slots.append((verb, t0, rid, future))
    futures = [s[3] for s in slots if not isinstance(s, Op)]
    done = {}
    for future in as_completed(futures, timeout=120.0):
        done[id(future)] = time.perf_counter()
    ops = []
    for slot in slots:
        if isinstance(slot, Op):
            ops.append(slot)
            continue
        verb, t0, rid, future = slot
        exc = future.exception()
        result = None if exc is not None else future.result()
        error = None if exc is None else f"{type(exc).__name__}: {exc}"
        ops.append(Op("read", verb, t0, done[id(future)], result, error,
                      rid=rid))
    log.ops.extend(ops)
    return ops


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation, numpy default)."""
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_ok(n: int, q: float) -> bool:
    """True when the ``q``-th percentile of ``n`` samples has at least
    ten samples beyond it."""
    return n * (100.0 - q) / 100.0 >= 10.0


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def probe_seconds() -> float:
    """Time one fixed numpy + pure-Python slice (about 2.5 ms).

    It runs no code of the program, so it measures only how fast the
    host is at that moment; no change to the program can move it.
    """
    t0 = time.perf_counter()
    total = 0.0
    for i in range(4):
        total += float(np.sort(_PROBE_MATRIX @ _PROBE_MATRIX, axis=1)[:, i].sum())
    for i in range(30_000):
        total += i * 0.5
    return time.perf_counter() - t0


def host_factors(probes: list[tuple[float, float]],
                 times: list[float]) -> np.ndarray:
    """Host factor at each of ``times``: the median probe within
    :data:`PROBE_WINDOW_S` (else the nearest probe) over
    :data:`PROBE_REFERENCE_S`; above 1 the host was slower."""
    at = np.array([t for t, _ in probes])
    secs = np.array([s for _, s in probes])
    t = np.asarray(times, dtype=np.float64)
    lo = np.searchsorted(at, t - PROBE_WINDOW_S)
    hi = np.searchsorted(at, t + PROBE_WINDOW_S, side="right")
    nearest = np.clip(np.searchsorted(at, t), 0, len(at) - 1)
    out = [
        np.median(secs[a:b]) if b > a else secs[n]
        for a, b, n in zip(lo, hi, nearest)
    ]
    return np.asarray(out, dtype=np.float64) / PROBE_REFERENCE_S


def end_to_end(log: RunLog, setup_times: list[float], peak_rss_mb: float,
               normalise: bool = True) -> dict[str, float]:
    """The end-to-end metric values of one measured phase.

    Every figure covers the whole measured phase: throughput is the
    completed operations over its wall time (probes excluded), and
    each percentile is taken over every read (or write) of the run.

    The shared host this was built on changes speed by up to 40% within
    minutes, which no length of run averages out.  Times are therefore
    divided by the host factor of the moment they were taken (from the
    probes interleaved with the operations), and throughput multiplied
    by the phase's median factor: the figures read as on a host whose
    probe takes :data:`PROBE_REFERENCE_S`.  ``normalise=False`` gives
    the raw figures.
    """
    ok_reads, ok_writes = log.of("read"), log.of("write")
    attempted = len(log.ops)
    failed = attempted - len(ok_reads) - len(ok_writes)
    wall = log.wall - sum(s for _, s in log.probes)
    if normalise:
        def scaled(ops: list[Op]) -> list[float]:
            f = host_factors(log.probes, [op.start for op in ops])
            return [op.seconds * 1e3 / x for op, x in zip(ops, f)]

        reads, writes = scaled(ok_reads), scaled(ok_writes)
        rate = median([s for _, s in log.probes]) / PROBE_REFERENCE_S
        setups = [t * PROBE_REFERENCE_S / p
                  for t, p in zip(setup_times, log.setup_probes)]
    else:
        reads = [op.seconds * 1e3 for op in ok_reads]
        writes = [op.seconds * 1e3 for op in ok_writes]
        rate, setups = 1.0, setup_times
    return {
        "setup_s": median(setups),
        "ops_per_s": rate * (attempted - failed) / wall,
        "read_p50_ms": percentile(reads, 50),
        "read_p95_ms": percentile(reads, 95),
        "write_p50_ms": percentile(writes, 50),
        "write_p95_ms": percentile(writes, 95),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": (attempted - failed) / attempted,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process (the client and the serving tier's
    threads share it; neither workload starts worker processes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Leak sentinel: /dev/shm segments and open fds
# ----------------------------------------------------------------------
def _shm() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _fds() -> set[tuple[str, str]]:
    """(fd, target) of every open fd: a number alone is not enough,
    since a leaked file may reuse a number that was open at census."""
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:
        return set()
    out = set()
    for fd in names:
        try:
            out.add((fd, os.readlink(f"/proc/self/fd/{fd}")))
        except OSError:
            pass  # the listing's own directory fd, closed by now
    return out


class LeakSentinel:
    """Records ``/dev/shm`` and this process's fds; :meth:`verify`
    fails when anything opened since is still there."""

    def __init__(self) -> None:
        self.shm = _shm()
        self.fds = _fds()

    def held(self) -> list[str]:
        """Segments and fd targets opened since the census, still open."""
        import gc

        gc.collect()
        fds = sorted(t for _, t in _fds() - self.fds)
        return sorted(_shm() - self.shm) + fds

    def verify(self) -> None:
        held = self.held()
        check(not held, f"leaked after close: {held}")


# ----------------------------------------------------------------------
# Correctness: answers of a brute-force replay model
# ----------------------------------------------------------------------
def same_answer(a: Any, b: Any) -> bool:
    """Bit-identical comparison of two ``nn`` answers."""
    return (a.candidate_ids == b.candidate_ids
            and a.probabilities == b.probabilities)


class ReplayModel:
    """An unserved brute-force Database replaying the client's writes.

    ``answer_at(epoch, ...)`` first applies every logged write up to
    ``epoch`` (the model starts at ``base_epoch`` with the workload's
    initial objects), then answers inline with ``retriever="brute"``.
    Sampled reads must be asked in epoch order.
    """

    def __init__(self, objects: list[Any], domain: Any, base_epoch: int,
                 writes: list[tuple[int, str, Any]]) -> None:
        from repro.api import Database
        from repro.uncertain import UncertainDataset

        self.db = Database(
            UncertainDataset(list(objects), domain=domain), indexes=(),
            result_cache_size=0,
        )
        self.base_epoch = base_epoch
        self.writes = sorted(writes, key=lambda w: w[0])
        self._next = 0

    @property
    def epoch(self) -> int:
        return self.base_epoch + self.db.epoch

    def advance(self, epoch: int) -> None:
        while self._next < len(self.writes) and self.writes[self._next][0] <= epoch:
            _, op, payload = self.writes[self._next]
            if op == "insert":
                self.db.insert(payload)
            else:
                self.db.delete(payload)
            self._next += 1
        check(self.epoch == epoch,
              f"replay model reached epoch {self.epoch}, wanted {epoch}")

    def answer_at(self, epoch: int, verb: str, query: Any,
                  params: dict[str, Any]) -> Any:
        self.advance(epoch)
        return getattr(self.db, verb)(query, retriever="brute", **params).answer

    def close(self) -> None:
        self.db.close()


def sample_indices(n: int, k: int, seed: int) -> list[int]:
    """``k`` sorted distinct positions out of ``n``, drawn from ``seed``."""
    rng = np.random.default_rng(seed + 7919)
    k = min(k, n)
    return sorted(int(i) for i in rng.choice(n, size=k, replace=False))


# ----------------------------------------------------------------------
# Environment and provenance block
# ----------------------------------------------------------------------
def calibration_seconds() -> float:
    """Median of five runs of a fixed numpy + Python loop.

    Recorded so two runs on hosts of different speed can be told
    apart; metrics are never divided by it (the normalisation in
    :func:`end_to_end` uses the probes taken between operations).
    """
    rng = np.random.default_rng(0)
    a = rng.random((200, 200))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0.0
        for i in range(20):
            total += float(np.sort(a @ a, axis=1)[:, i].sum())
        for i in range(200_000):
            total += i * 0.5
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _git(root: str, *args: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest(root: str) -> str:
    """sha256 over every file under ``src/`` (path + bytes): identifies
    the measured code where no git metadata exists."""
    h = hashlib.sha256()
    base = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root: str, argv: list[str], seed: int, workload: str,
                params: dict[str, Any]) -> dict[str, Any]:
    """The provenance block printed before the result line."""
    blas: Any = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    status = _git(root, "status", "--porcelain", "--", "src")
    return {
        "script": "perfbench/run.py",
        "argv": argv,
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "workload": workload,
        "params": params,
        "calibration_s": calibration_seconds(),
    }


def emit(line: dict[str, Any]) -> None:
    print(json.dumps(line, sort_keys=True, default=str), flush=True)

