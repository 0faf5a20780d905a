"""Deterministic mutation workload shared by the kill-and-recover oracle.

Parent and child process both import this module: the child applies
the mutation sequence through a durable :class:`~repro.api.Database`
until it is SIGKILLed; the parent recovers, reads the surviving epoch
``E``, rebuilds the reference state by applying the *same* first ``E``
mutations in memory, and demands bit-identical answers from all seven
verbs.  Determinism is absolute — mutation ``i`` is a pure function of
``i`` and the live id set, every pdf comes from a seeded generator —
so "the first E mutations" means the same thing in both processes.
"""

from __future__ import annotations

import numpy as np

from repro.api import Database
from repro.geometry import Rect
from repro.uncertain import (
    UncertainDataset,
    UncertainObject,
    synthetic_dataset,
    uniform_pdf,
)

#: Base dataset parameters (tiny: the oracle compares full answers).
BASE_N = 32
BASE_DIMS = 2
BASE_SEED = 7
BASE_SAMPLES = 4

#: Mutation-mix knobs: keep the population in a band so deletes and
#: inserts both keep happening for arbitrarily long sequences.
_MIN_LIVE = 24
_DELETE_P = 0.35
_INSERT_BASE_OID = 1_000_000

#: Query points the seven verbs are compared at (inside the domain).
QUERY_POINTS = [
    [2_500.0, 2_500.0],
    [5_000.0, 5_000.0],
    [7_500.0, 2_500.0],
]
GROUP_POINTS = [[2_000.0, 2_000.0], [3_000.0, 2_500.0]]


def base_dataset() -> UncertainDataset:
    """The deterministic starting database (epoch 0)."""
    return synthetic_dataset(
        n=BASE_N, dims=BASE_DIMS, seed=BASE_SEED, n_samples=BASE_SAMPLES
    )


def mutation(i: int, live_ids: list[int]):
    """The ``i``-th mutation given the current live id list.

    Returns ``("insert", UncertainObject)`` or ``("delete", oid)``.
    Pure: depends only on ``i`` and ``live_ids`` (in insertion order).
    """
    rng = np.random.default_rng(10_000 + i)
    if len(live_ids) > _MIN_LIVE and rng.random() < _DELETE_P:
        victim = live_ids[int(rng.integers(len(live_ids)))]
        return "delete", victim
    lo = rng.uniform(500.0, 9_000.0, size=BASE_DIMS)
    hi = lo + rng.uniform(20.0, 120.0, size=BASE_DIMS)
    region = Rect(lo, hi)
    instances, weights = uniform_pdf(region, BASE_SAMPLES, rng)
    obj = UncertainObject(
        oid=_INSERT_BASE_OID + i,
        region=region,
        instances=instances,
        weights=weights,
    )
    return "insert", obj


def apply_mutation(db, i: int) -> None:
    """Apply mutation ``i`` through a Database (or raw dataset)."""
    dataset = db.dataset if hasattr(db, "dataset") else db
    op, value = mutation(i, dataset.ids)
    if op == "insert":
        db.insert(value)
    else:
        db.delete(value)


def reference_database(epoch: int) -> Database:
    """An uninterrupted in-memory run of the first ``epoch`` mutations."""
    dataset = base_dataset()
    for i in range(epoch):
        apply_mutation(dataset, i)
    return Database(dataset)


def fingerprint(db: Database) -> dict:
    """Exact answers of all seven verbs, as comparable primitives.

    Floats are kept at full precision (dict equality is bitwise);
    mappings keep their iteration order so ordering regressions in
    recovery (a reordered snapshot would change nothing semantically
    but everything reproducibly) also surface.
    """
    out: dict = {"epoch": db.epoch, "ids": list(db.dataset.ids)}
    for name, q in zip(("q0", "q1", "q2"), QUERY_POINTS):
        nn = db.nn(q).answer
        knn = db.knn(q, k=2).answer
        topk = db.topk(q, k=2).answer
        thr = db.threshold(q, p=0.05).answer  # plain {oid: bool}
        enn = db.expected_nn(q).answer
        out[name] = {
            "nn": list(dict(nn.probabilities).items()),
            "knn": list(dict(knn.probabilities).items()),
            "topk": [
                (int(oid), float(p)) for oid, p in topk.ranking
            ],
            "threshold": sorted(
                (int(oid), bool(keep)) for oid, keep in thr.items()
            ),
            "expected_nn": [
                (int(oid), float(d)) for oid, d in enn.ranking
            ],
        }
    gnn = db.group_nn(GROUP_POINTS).answer
    out["group_nn"] = list(dict(gnn.probabilities).items())
    rnn_target = db.dataset[db.dataset.ids[0]]
    rnn = db.reverse_nn(rnn_target).answer
    out["reverse_nn"] = list(dict(rnn.probabilities).items())
    return out


#: Mutations between the checkpoints of the checkpointing children.
CHECKPOINT_EVERY = 7


def child_main(path: str, checkpoint_every: int = 0) -> None:
    """Run the durable mutation workload until killed (never returns).

    Opens (or creates) the database at ``path`` with ``fsync="always"``
    and applies the mutation sequence from the recovered epoch onward,
    checkpointing after every ``checkpoint_every`` mutations when that
    is positive (so a kill can land inside a checkpoint's append).
    Prints ``READY`` once the first mutation has committed so the
    parent knows the WAL is live before scheduling the SIGKILL.  The
    parent kills this process at an arbitrary moment; whatever epoch
    the WAL preserved is the epoch the oracle replays to.
    """
    import sys

    from repro.storage import DurableStore

    if DurableStore.exists(path):
        db = Database.open(path, fsync="always")
    else:
        db = Database.open(path, dataset=base_dataset(), fsync="always")
    i = db.epoch
    apply_mutation(db, i)
    print("READY", flush=True)
    i += 1
    while True:
        apply_mutation(db, i)
        i += 1
        if checkpoint_every and i % checkpoint_every == 0:
            db.checkpoint()
        if i > 100_000:  # pragma: no cover - parent always kills first
            sys.exit(0)


def crash_child_main(path: str, site: str) -> None:
    """Die inside a checkpoint at fault site ``site`` (never returns).

    Creates the database at ``path`` and applies the mutation sequence
    with a checkpoint after every :data:`CHECKPOINT_EVERY` mutations,
    printing ``CKPT <epoch>`` before each.  The third checkpoint is
    killed at ``site`` (a ``kill`` fault: ``os._exit`` mid-checkpoint),
    so two intact tail records precede it.  ``site == "merge"`` instead
    kills the first checkpoint that merges, between its rename and the
    WAL reset.  Every mutation the child applied was accepted, so
    recovery must return exactly the prefix up to the last ``CKPT``.
    """
    import sys

    from repro.testing import FaultPlan, FaultRule, arm
    from repro.uncertain import InstanceStore

    db = Database.open(path, dataset=base_dataset(), fsync="always")
    if site == "merge":
        export = InstanceStore.export_file

        def export_then_arm(self, target):
            epoch = export(self, target)
            arm(FaultPlan([FaultRule("durable.wal_reset", "kill")]))
            return epoch

        InstanceStore.export_file = export_then_arm  # type: ignore
    else:
        arm(FaultPlan([FaultRule(site, "kill", after=2)]))
    for i in range(2_000):
        apply_mutation(db, i)
        if (i + 1) % CHECKPOINT_EVERY == 0:
            print(f"CKPT {db.epoch}", flush=True)
            db.checkpoint()
    sys.exit(0)  # the fault never fired: the parent reports it
