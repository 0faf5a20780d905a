"""The two workloads: inputs, set-up, measured traffic, checks.

Every workload is a closed loop driven from one client thread through
the public surface only (``Database``, ``Database.open``,
``db.serve()``, ``Session`` and the verbs).  All inputs -- objects,
query points, the order of reads and writes -- come from ``--seed``;
the amount of work comes from ``--seconds`` alone, so two runs with the
same arguments do exactly the same operations and only host speed can
move their timings.  See ``README.md`` for why each workload exists and
which layers it loads and bypasses.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
from typing import Any

import numpy as np

from harness import (
    ReplayModel,
    RunLog,
    check,
    same_answer,
    sample_indices,
    timed,
    window,
)

#: ``--seconds`` value the round counts below are sized for.
NOMINAL_SECONDS = 35
#: Reads per client window on served-durable.
WINDOW = 8
#: served-durable probes the host's speed before every 4th window
#: (pv-churn before every round), about 2% of the measured phase.
PROBE_EVERY = 4
#: Sampled reads compared against the oracle in every run.
SAMPLES = 40
#: Step-2 oracle tolerance against ``tests/reference_step2.py``.
TOLERANCE = 1e-9


def rounds(base: int, seconds: float) -> int:
    return max(1, int(round(base * seconds / NOMINAL_SECONDS)))


def renumber(objects: list[Any], base: int) -> list[Any]:
    """Copies of ``objects`` with fresh ids ``base, base + 1, ...``."""
    from repro.uncertain import UncertainObject

    return [
        UncertainObject(oid=base + i, region=o.region,
                        instances=o.instances, weights=o.weights)
        for i, o in enumerate(objects)
    ]


def churn(live: list[int], fresh: list[Any],
          count: int) -> list[tuple[str, Any]]:
    """``count`` writes: three inserts (of ``fresh`` objects, in order)
    then one delete, which expires the oldest live object.

    Deleting the oldest object keeps every delete's cost the same (it
    always compacts the whole packed store), and at 3:1 the write
    median sits well inside the insert group instead of on the
    boundary between the two.  ``live`` lists the ids present before
    the first write, oldest first, and is updated in place.
    """
    queue = live
    inserts = iter(fresh)
    out: list[tuple[str, Any]] = []
    for i in range(count):
        if i % 4 == 3:
            out.append(("delete", queue.pop(0)))
        else:
            obj = next(inserts)
            queue.append(obj.oid)
            out.append(("insert", obj))
    return out


def load_reference(root: str) -> Any:
    """``tests/reference_step2.py``: the pre-tensorization Step-2
    kernels the repository keeps as oracles."""
    path = os.path.join(root, "tests", "reference_step2.py")
    spec = importlib.util.spec_from_file_location("reference_step2", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def minmax_candidates(dataset: Any, query: np.ndarray) -> list[int]:
    """Exact Step-1 filter, written independently of the program:
    every object whose min-distance is at most the smallest
    max-distance over all uncertainty regions (objects outside it have
    probability 0 and change no other object's probability)."""
    ids = dataset.ids
    lo = np.array([dataset[o].region.lo for o in ids])
    hi = np.array([dataset[o].region.hi for o in ids])
    gap = np.maximum(np.maximum(lo - query, query - hi), 0.0)
    far = np.maximum(np.abs(query - lo), np.abs(query - hi))
    dmin = np.sqrt((gap * gap).sum(axis=1))
    dmax = np.sqrt((far * far).sum(axis=1))
    return [ids[i] for i in np.flatnonzero(dmin <= dmax.min())]


def close_all(*dbs: Any) -> None:
    for db in dbs:
        if db is not None:
            db.close()


class Workload:
    """Shared shape; subclasses fill in inputs, set-up and traffic."""

    name = ""
    why = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_reps = 3
    #: Retriever every read's plan must name.
    retriever = "brute"
    #: ``db.built_indexes`` at the end of the run.
    built: tuple[str, ...] = ()

    def __init__(self, root: str, seed: int, seconds: float,
                 tmp: str) -> None:
        self.root, self.seed, self.seconds, self.tmp = root, seed, seconds, tmp
        self.rng = np.random.default_rng(seed)
        self.script: list[tuple[str, str, Any]] = []
        self.facts: dict[str, Any] = {}

    # -- interface ------------------------------------------------------
    def params(self) -> dict[str, Any]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed preparation before the first set-up."""

    def setup(self) -> Any:
        raise NotImplementedError

    def discard(self, state: Any) -> None:
        close_all(state["db"])

    def measure(self, state: Any, log: RunLog) -> None:
        raise NotImplementedError

    def finish(self, state: Any, log: RunLog) -> None:
        """Checks and guards, then close everything the run opened."""
        raise NotImplementedError

    # -- shared pieces --------------------------------------------------
    def expected_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, verb, _ in self.script:
            out[verb] = out.get(verb, 0) + 1
        return dict(sorted(out.items()))

    def guard(self, db: Any, log: RunLog) -> None:
        """The same-work guard: plans, built indexes, op counts."""
        check(log.counts() == self.expected_counts(),
              f"op counts {log.counts()} != {self.expected_counts()}")
        retrievers = {
            op.result.plan.retriever for op in log.of("read")
        }
        check(retrievers <= {self.retriever},
              f"reads planned on {sorted(retrievers)}, "
              f"expected {self.retriever!r}")
        check(db.built_indexes == self.built,
              f"built indexes {db.built_indexes} != {self.built}")

    def record_writes(self, log: RunLog, base_epoch: int) -> list:
        """``(epoch, op, payload)`` of every acknowledged write."""
        writes = []
        epoch = base_epoch
        for (kind, verb, payload), op in zip(self.script, log.ops):
            if kind == "write" and verb in ("insert", "delete"):
                check(op.error is None, f"write failed: {op.error}")
                epoch += 1
                writes.append((epoch, verb, payload))
        return writes

    def compare_samples(self, log: RunLog, model: ReplayModel,
                        compare: Any) -> int:
        """Check a seeded sample of reads against ``model`` at each
        read's epoch; returns how many were compared."""
        reads = [
            (op, self.script[i]) for i, op in enumerate(log.ops)
            if op.kind == "read" and op.error is None
        ]
        picks = sample_indices(len(reads), SAMPLES, self.seed)
        for i in sorted(picks, key=lambda i: reads[i][0].result.epoch):
            op, (_, verb, (query, params)) = reads[i]
            compare(model, op.result.epoch, verb, query, params,
                    op.result.answer)
        return len(picks)

    def counters(self, log: RunLog) -> dict[str, Any]:
        """Exact work counters (identical in every run of one seed)."""
        cands = sum(len(op.result.answer.candidate_ids)
                    for op in log.of("read"))
        return {"ops": log.counts(), "candidates": cands}


def bit_identical(model: ReplayModel, epoch: int, verb: str, query: Any,
                  params: dict[str, Any], answer: Any) -> None:
    expected = model.answer_at(epoch, verb, query, params)
    check(same_answer(answer, expected),
          f"{verb} at epoch {epoch} differs from the brute-force replay")


def reference_check(ref: Any, model: ReplayModel, epoch: int, verb: str,
                    query: Any, params: dict[str, Any], answer: Any) -> None:
    """Compare one ``nn`` answer with ``tests/reference_step2.py``
    (within 1e-9), candidates from :func:`minmax_candidates`."""
    model.advance(epoch)
    ds = model.db.dataset
    expected = ref.reference_qualification_probabilities(
        ds, minmax_candidates(ds, query), [query])[0]
    got = dict(answer.probabilities)
    worst = max((abs(got.get(o, 0.0) - expected.get(o, 0.0))
                 for o in set(got) | set(expected)), default=0.0)
    check(worst <= TOLERANCE,
          f"{verb} at epoch {epoch}: off the reference by {worst:.3g}")


# ----------------------------------------------------------------------
class PVChurn(Workload):
    name = "pv-churn"
    why = ("the paper's PV-index under reads plus incremental inserts "
           "and deletes (Sec. VI-B): core maintenance and PV Step 1")
    retriever = "pv"
    built = ("pv",)
    N, M, U_MAX, READS = 200, 100, 60.0, 10

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        from repro import synthetic_dataset

        n_rounds = rounds(230, self.seconds)
        ds = synthetic_dataset(n=self.N, dims=2, u_max=self.U_MAX,
                               n_samples=self.M, seed=self.seed)
        self.domain = ds.domain
        self.objects = list(ds)
        extra = synthetic_dataset(n=n_rounds, dims=2, u_max=self.U_MAX,
                                  n_samples=self.M, seed=self.seed + 1)
        writes = churn(list(ds.ids), renumber(list(extra), self.N), n_rounds)
        for r in range(n_rounds):
            for _ in range(self.READS):
                q = self.rng.uniform(0.0, 10_000.0, 2)
                self.script.append(("read", "nn", (q, {})))
            self.script.append(("write", *writes[r]))
        self.warm = self.rng.uniform(0.0, 10_000.0, 2)
        self.final = [self.rng.uniform(0.0, 10_000.0, 2) for _ in range(20)]

    def params(self) -> dict[str, Any]:
        return {"n": self.N, "m": self.M, "u_max": self.U_MAX, "dims": 2,
                "indexes": ["pv"], "retriever": "pv",
                "ops": self.expected_counts()}

    def setup(self) -> Any:
        from repro.api import Database
        from repro.uncertain import UncertainDataset

        db = Database(UncertainDataset(self.objects, domain=self.domain),
                      indexes=("pv",))
        db.nn(self.warm, retriever="pv")  # builds the PV-index
        check(db.built_indexes == ("pv",), "set-up did not build the PV-index")
        return {"db": db}

    def measure(self, state: Any, log: RunLog) -> None:
        db = state["db"]
        for i, (kind, verb, payload) in enumerate(self.script):
            if i % (self.READS + 1) == 0:
                log.probe()
            if kind == "read":
                query = payload[0]
                timed(log, kind, verb, lambda: db.nn(query, retriever="pv"))
            elif verb == "insert":
                timed(log, kind, verb, lambda: db.insert(payload))
            else:
                timed(log, kind, verb, lambda: db.delete(payload))

    def finish(self, state: Any, log: RunLog) -> None:
        from repro.api import Database
        from repro.uncertain import UncertainDataset

        db = state["db"]
        fresh = None
        try:
            self.guard(db, log)
            model = ReplayModel(self.objects, self.domain, 0,
                                self.record_writes(log, 0))
            try:
                self.facts["checked"] = self.compare_samples(
                    log, model, bit_identical)
            finally:
                model.close()
            # The final epoch: PV answers == a fresh brute-force
            # Database over the same objects, bit for bit.
            fresh = Database(
                UncertainDataset(list(db.dataset), domain=self.domain),
                indexes=(),
            )
            for q in self.final:
                got = db.nn(q, retriever="pv").answer
                want = fresh.nn(q, retriever="brute").answer
                check(same_answer(got, want),
                      "final-epoch PV answer differs from brute force")
        finally:
            close_all(db, fresh)


# ----------------------------------------------------------------------
PREP_CODE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.prep_child(sys.argv[3], int(sys.argv[4]))
"""


def prep_mutations(seed: int, live: list[int], count: int,
                   u_max: float, m: int) -> list[tuple[str, Any]]:
    """The writes a crashed session left in the prepared WAL (``live``
    is updated as :func:`churn` does)."""
    from repro import synthetic_dataset

    extra = synthetic_dataset(n=count, dims=2, u_max=u_max, n_samples=m,
                              seed=seed + 2)
    return churn(live, renumber(list(extra), 1_000_000), count)


def prep_child(path: str, seed: int) -> None:
    """Child process: append the prepared WAL records, then exit
    without ``close()`` so they stay unreplayed (a crash)."""
    from repro.api import Database

    db = Database.open(path, fsync="off", indexes=())
    wl = ServedDurable
    for op, payload in prep_mutations(seed, sorted(db.dataset.ids), wl.PREP,
                                      wl.U_MAX, wl.M):
        db.insert(payload) if op == "insert" else db.delete(payload)
    sys.stdout.flush()
    os._exit(0)


class ServedDurable(Workload):
    name = "served-durable"
    why = ("the default thread serving tier over a durable store: "
           "scheduler, coalescing, barriers, WAL, recovery, checkpoint")
    # m=200 makes every WAL record (4.8 KB) longer than a 4 KB block, so
    # every fsynced append allocates one: at m=100 (2.4 KB) appends
    # alternate between allocating and not, and insert latency is
    # bimodal with write_p50_ms on the edge between the two modes.
    N, M, U_MAX, PREP, HOT, CKPT_EVERY = 8000, 200, 300.0, 1500, 32, 9

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        from repro import synthetic_dataset

        n_rounds = rounds(1330, self.seconds)
        ds = synthetic_dataset(n=self.N, dims=2, u_max=self.U_MAX,
                               n_samples=self.M, seed=self.seed)
        self.domain = ds.domain
        self.objects = list(ds)
        live = sorted(ds.ids)
        self.prep = prep_mutations(self.seed, live, self.PREP, self.U_MAX,
                                   self.M)
        extra = synthetic_dataset(n=n_rounds, dims=2, u_max=self.U_MAX,
                                  n_samples=self.M, seed=self.seed + 1)
        # Inserts only: a checkpoint after every ninth makes checkpoints
        # a tenth of the writes, so write_p95_ms is their median and
        # write_p50_ms sits inside the inserts.
        writes = [("insert", o) for o in renumber(list(extra), 2_000_000)]
        hot = self.rng.uniform(0.0, 10_000.0, (self.HOT, 2))
        for r in range(n_rounds):
            for j in range(WINDOW):
                q = (hot[self.rng.integers(self.HOT)] if j % 2
                     else self.rng.uniform(0.0, 10_000.0, 2))
                self.script.append(("read", "nn", (q, {})))
            self.script.append(("write", *writes[r]))
            if (r + 1) % self.CKPT_EVERY == 0:
                self.script.append(("write", "checkpoint", None))
        self.warm = [self.rng.uniform(0.0, 10_000.0, 2) for _ in range(WINDOW)]
        self.final = [self.rng.uniform(0.0, 10_000.0, 2) for _ in range(16)]
        self.reps = 0

    def params(self) -> dict[str, Any]:
        return {"n": self.N, "m": self.M, "u_max": self.U_MAX, "dims": 2,
                "prepared_wal_records": self.PREP, "fsync": "always",
                "serve": {"mode": "thread", "workers": 2},
                "window": WINDOW, "hot_spots": self.HOT,
                "checkpoint_every_writes": self.CKPT_EVERY,
                "indexes": [], "retriever": "brute",
                "ops": self.expected_counts()}

    def prepare(self) -> None:
        """Untimed: a snapshot of the initial objects plus a WAL of
        ``PREP`` records a child appended before dying."""
        from repro.api import Database
        from repro.uncertain import UncertainDataset

        self.prepared = os.path.join(self.tmp, "prepared")
        Database.open(self.prepared, dataset=UncertainDataset(
            self.objects, domain=self.domain), indexes=()).close()
        here = os.path.dirname(os.path.abspath(__file__))
        subprocess.run(
            [sys.executable, "-c", PREP_CODE, here,
             os.path.join(self.root, "src"), self.prepared, str(self.seed)],
            check=True, timeout=170,
        )

    def setup(self) -> Any:
        from repro.api import Database

        self.reps += 1
        path = os.path.join(self.tmp, f"db{self.reps}")
        shutil.copytree(self.prepared, path)
        db = Database.open(path, indexes=())
        session = db.serve().session()
        for f in [session.nn(q, retriever="brute") for q in self.warm]:
            f.result(timeout=120.0)
        return {"db": db, "session": session, "path": path}

    def measure(self, state: Any, log: RunLog) -> None:
        db, session, path = state["db"], state["session"], state["path"]
        wal = os.path.join(path, "wal.log")
        base = os.path.getsize(wal)
        appended = 0
        acked = []
        i = windows = 0
        while i < len(self.script):
            kind, verb, payload = self.script[i]
            if kind == "read":
                if windows % PROBE_EVERY == 0:
                    log.probe()
                windows += 1
                batch = self.script[i:i + WINDOW]
                window(log, [
                    ("nn", lambda q=p[0]: session.nn(q, retriever="brute"))
                    for _, _, p in batch
                ])
                i += len(batch)
                continue
            if verb == "checkpoint":
                appended += os.path.getsize(wal) - base
                timed(log, kind, verb, db.checkpoint)
                base = os.path.getsize(wal)
            else:
                future = []

                def call(payload=payload, future=future):
                    future.append(session.insert(payload))
                    return future[0].result(timeout=120.0)

                timed(log, kind, verb, call)
                acked.append(future[0].epoch)
            i += 1
        appended += os.path.getsize(wal) - base
        snapshot = os.path.getsize(os.path.join(path, "snapshot.bin"))
        live = sum(o.instances.nbytes + o.weights.nbytes for o in db.dataset)
        self.facts.update(
            wal_bytes=appended,
            stored_bytes_ratio=(snapshot + os.path.getsize(wal)) / live,
            acked_epoch=max(acked),
        )

    def finish(self, state: Any, log: RunLog) -> None:
        from repro.api import Database

        db, session, path = state["db"], state["session"], state["path"]
        reopened = None
        try:
            self.guard(db, log)
            writes = [(e, op, p) for e, (op, p) in
                      enumerate(self.prep, start=1)]
            writes += self.record_writes(log, self.PREP)
            ref = load_reference(self.root)

            def both(*args: Any) -> None:
                bit_identical(*args)
                reference_check(ref, *args)

            model = ReplayModel(self.objects, self.domain, 0, writes)
            try:
                self.facts["checked"] = self.compare_samples(log, model, both)
            finally:
                model.close()
            served = [f.result(timeout=120.0) for f in
                      [session.nn(q, retriever="brute") for q in self.final]]
            db.close()
            reopened = Database.open(path, indexes=())
            check(reopened.epoch == self.facts["acked_epoch"],
                  f"recovered epoch {reopened.epoch} != last acknowledged "
                  f"{self.facts['acked_epoch']}")
            for q, result in zip(self.final, served):
                check(same_answer(
                    reopened.nn(q, retriever="brute").answer, result.answer),
                    "served answer differs from the recovered inline one")
        finally:
            close_all(db, reopened)


WORKLOADS = {w.name: w for w in (PVChurn, ServedDurable)}

__all__ = ["WORKLOADS"]
