"""Continuous queries: the subscription differential oracle + lifecycle.

The acceptance bar for the standing-subscription subsystem:

* **Differential oracle** — for every one of the seven verbs, over an
  interleaved insert/delete workload, the revision stream must be
  bit-identical to serially re-running the query at every epoch and
  emitting only on change.  Suppressed epochs must provably not have
  changed the answer (checked against the serial replay), both inline
  and under ``db.serve()``.
* **Eager equivalence** — a filter-disabled (``eager=True``)
  subscription must produce the identical revision stream, so the
  relevance filter is pure optimization, never semantics.
* **Lifecycle** — bounded queues overflow into
  :class:`RevisionOverflow` after draining, unsubscribe (including
  mid-mutation, from another thread) detaches cleanly, double close is
  a no-op, and closing the database wakes blocked consumers.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Rect, UncertainObject
from repro.api import Database
from repro.service import RevisionOverflow
from repro.service.subscriptions import answers_equal
from repro.testing import FaultPlan, FaultRule
from repro.uncertain import UncertainDataset, uniform_pdf

DOMAIN = Rect.cube(0.0, 1000.0, 2)
N_OBJECTS = 24
N_INSTANCES = 6
N_MUTATIONS = 18
QUERY = [500.0, 500.0]
GROUP = [[400.0, 400.0], [600.0, 600.0]]


def make_object(
    oid: int,
    rng: np.random.Generator,
    center=None,
    half: float | None = None,
) -> UncertainObject:
    center = (
        rng.uniform(100.0, 900.0, size=2)
        if center is None
        else np.asarray(center, dtype=float)
    )
    half = half if half is not None else float(rng.uniform(5.0, 40.0))
    region = Rect(
        np.maximum(center - half, DOMAIN.lo),
        np.minimum(center + half, DOMAIN.hi),
    )
    instances, weights = uniform_pdf(region, N_INSTANCES, rng)
    return UncertainObject(oid, region, instances, weights)


def make_initial(seed: int = 11) -> list[UncertainObject]:
    rng = np.random.default_rng(seed)
    return [make_object(i, rng) for i in range(N_OBJECTS)]


def apply_mutation(db: Database, i: int, live: dict) -> None:
    """Deterministic interleaved insert/delete workload."""
    rng = np.random.default_rng(40_000 + i)
    if len(live) > N_OBJECTS // 2 and rng.random() < 0.45:
        victim = sorted(live)[int(rng.integers(len(live)))]
        db.delete(victim)
        live.pop(victim)
    else:
        # Half the inserts land near the query hot spot so revisions
        # actually fire; the rest exercise suppression.
        center = (
            rng.uniform(420.0, 580.0, size=2)
            if rng.random() < 0.5
            else None
        )
        obj = make_object(1000 + i, rng, center=center)
        db.insert(obj)
        live[obj.oid] = obj


def reference_answer(live: dict, kind: str, query, params: tuple):
    """Serial replay: the answer at this exact object set, brute force."""
    ds = UncertainDataset(list(live.values()), domain=DOMAIN)
    with Database(ds, indexes=()) as ref:
        return ref._execute_group(kind, [query], params, None)[0].answer


def subscription_specs(objs):
    """One subscription per verb (query, extra params)."""
    return [
        ("nn", QUERY, {}),
        ("knn", QUERY, {"k": 3}),
        ("topk", QUERY, {"k": 2}),
        ("threshold", QUERY, {"p": 0.2}),
        ("group_nn", GROUP, {"aggregate": "sum"}),
        ("reverse_nn", objs[0], {}),
        ("expected_nn", QUERY, {}),
    ]


class TestDifferentialOracle:
    """Revision stream == serial per-epoch replay, emit-on-change."""

    def _run(self, serve: bool, **subscribe_kwargs):
        objs = make_initial()
        live = {o.oid: o for o in objs}
        db = Database(
            UncertainDataset(list(objs), domain=DOMAIN), indexes=()
        )
        try:
            if serve:
                db.serve(workers=2)
            subs = [
                db.subscribe(kind, query, **params, **subscribe_kwargs)
                for kind, query, params in subscription_specs(objs)
            ]
            streams = {sub.sid: [] for sub in subs}
            prev = {}
            for sub in subs:
                baseline = sub.poll()
                assert baseline is not None and baseline.changed is False
                assert baseline.epoch == db.epoch
                prev[sub.sid] = baseline.answer
                streams[sub.sid].append(baseline)
            for i in range(N_MUTATIONS):
                apply_mutation(db, i, live)
                for sub in subs:
                    want = reference_answer(
                        live, sub.kind, sub.query, sub.params
                    )
                    revision = sub.poll()
                    if revision is not None:
                        # Emitted: tagged with exactly this epoch,
                        # flagged changed, bit-identical to the serial
                        # replay, and the only revision of the epoch.
                        assert revision.epoch == db.epoch
                        assert revision.changed
                        assert answers_equal(
                            sub.kind, revision.answer, want
                        ), f"{sub.kind}: revision != serial replay"
                        assert not answers_equal(
                            sub.kind, prev[sub.sid], want
                        ), f"{sub.kind}: emitted but answer unchanged"
                        assert sub.poll() is None
                        streams[sub.sid].append(revision)
                    else:
                        # Suppressed: the answer must not have changed.
                        assert answers_equal(
                            sub.kind, prev[sub.sid], want
                        ), f"{sub.kind}: suppression hid a change"
                    prev[sub.sid] = want
            for sub in subs:
                # Every verb must have both emitted and suppressed at
                # least once, or the workload proves nothing.
                assert sub.revisions_emitted >= 2, sub.kind
                if sub.kind != "reverse_nn" and not sub.eager:
                    assert sub.revisions_suppressed >= 1, sub.kind
            return subs, streams
        finally:
            db.close()

    def test_inline_all_verbs(self):
        self._run(serve=False)

    def test_served_all_verbs(self):
        self._run(serve=True)

    def test_eager_stream_is_identical(self):
        # eager=True disables the relevance filter; the revision
        # stream (epochs + answers) must not change.
        _, filtered = self._run(serve=False)
        _, eager = self._run(serve=False, eager=True)
        assert sorted(filtered) == sorted(eager)
        for sid in filtered:
            a, b = filtered[sid], eager[sid]
            assert [r.epoch for r in a] == [r.epoch for r in b]
            for ra, rb in zip(a, b):
                assert answers_equal(ra.kind, ra.answer, rb.answer)

    def test_revision_stats_are_stamped(self):
        objs = make_initial()
        live = {o.oid: o for o in objs}
        with Database(
            UncertainDataset(list(objs), domain=DOMAIN), indexes=()
        ) as db:
            sub = db.subscribe("nn", QUERY)
            baseline = sub.poll()
            assert baseline.stats.revisions_emitted == 1
            assert baseline.stats.queries >= 1
            emitted = []
            for i in range(N_MUTATIONS):
                apply_mutation(db, i, live)
                revision = sub.poll()
                if revision is not None:
                    emitted.append(revision)
            assert emitted, "workload produced no revisions"
            for revision in emitted:
                assert revision.stats.revisions_emitted == 1
                assert (
                    revision.stats.revisions_suppressed
                    == revision.suppressed_since_last
                )
            total = sub.revisions_emitted + sub.revisions_suppressed
            assert total == N_MUTATIONS + 1  # every epoch accounted for


class TestLifecycle:
    def _small_db(self) -> tuple[Database, dict]:
        objs = make_initial(seed=5)
        live = {o.oid: o for o in objs}
        db = Database(
            UncertainDataset(list(objs), domain=DOMAIN), indexes=()
        )
        return db, live

    def test_overflow_backpressure(self):
        db, _live = self._small_db()
        rng = np.random.default_rng(0)
        with db:
            sub = db.subscribe("nn", QUERY, max_pending=2)
            assert sub.poll().changed is False
            # Each insert is closer to the query point than the last:
            # every epoch changes the best answer and emits.
            for i, half in enumerate((4.0, 3.0, 2.0, 1.0)):
                db.insert(
                    make_object(
                        9000 + i, rng, center=QUERY, half=half
                    )
                )
            # Queue of 2 filled, the next emission overflowed: closed
            # and detached, buffered revisions still readable.
            assert sub.overflowed
            assert not sub.active
            assert db.subscriptions.live == 0
            assert sub.poll() is not None
            assert sub.poll() is not None
            with pytest.raises(RevisionOverflow, match="lagging"):
                sub.poll()
            with pytest.raises(RevisionOverflow):
                list(sub.revisions(timeout=0.01))
            # The database itself is unaffected.
            db.insert(make_object(9100, rng))

    def test_unsubscribe_detaches_listener(self):
        db, _live = self._small_db()
        with db:
            baseline_listeners = len(db.dataset._listeners)
            a = db.subscribe("nn", QUERY)
            b = db.subscribe("topk", QUERY, k=2)
            assert len(db.dataset._listeners) == baseline_listeners + 1
            a.unsubscribe()
            assert db.subscriptions.live == 1
            b.unsubscribe()
            assert db.subscriptions.live == 0
            # Last unsubscribe removes the mutation listener entirely.
            assert len(db.dataset._listeners) == baseline_listeners
            # Idempotent.
            a.unsubscribe()

    def test_unsubscribe_during_mutation_race(self):
        db, live = self._small_db()
        errors: list[Exception] = []
        stop = threading.Event()

        def mutate():
            try:
                i = 0
                while not stop.is_set():
                    apply_mutation(db, i, live)
                    i += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def churn():
            try:
                rng = np.random.default_rng(1)
                for _ in range(25):
                    sub = db.subscribe(
                        "nn", rng.uniform(200.0, 800.0, size=2)
                    )
                    sub.poll()
                    sub.unsubscribe()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with db:
            mutator = threading.Thread(target=mutate)
            churners = [
                threading.Thread(target=churn) for _ in range(3)
            ]
            mutator.start()
            for t in churners:
                t.start()
            for t in churners:
                t.join()
            stop.set()
            mutator.join()
            assert not errors, errors
            assert db.subscriptions.live == 0

    def test_double_close_with_subscriptions(self):
        # Regression: close() must detach the subscription listener it
        # owns, and a second close() must be a clean no-op.
        db, _live = self._small_db()
        sub = db.subscribe("nn", QUERY)
        assert sub.poll() is not None
        db.close()
        assert not sub.active
        assert db.dataset._listeners == []
        db.close()  # double close: no-op, no raise
        assert db.dataset._listeners == []

    def test_close_wakes_blocked_consumer(self):
        db, _live = self._small_db()
        sub = db.subscribe("nn", QUERY)
        assert sub.poll() is not None
        seen: list = []

        def consume():
            for revision in sub.revisions(timeout=10.0):
                seen.append(revision)  # pragma: no cover - none expected

        consumer = threading.Thread(target=consume)
        consumer.start()
        db.close()
        consumer.join(timeout=5.0)
        assert not consumer.is_alive(), "close() left the consumer blocked"
        assert seen == []

    def test_revisions_iterator_receives_pushes(self):
        db, _live = self._small_db()
        rng = np.random.default_rng(2)
        with db:
            sub = db.subscribe("nn", QUERY)
            got: list = []

            def consume():
                for revision in sub.revisions(timeout=10.0):
                    got.append(revision)
                    if revision.changed:
                        return

            consumer = threading.Thread(target=consume)
            consumer.start()
            db.insert(make_object(9000, rng, center=QUERY, half=2.0))
            consumer.join(timeout=10.0)
            assert not consumer.is_alive()
            assert [r.changed for r in got] == [False, True]
            assert got[-1].answer.best == 9000

    def test_subscribe_after_close_raises(self):
        db, _live = self._small_db()
        db.close()
        with pytest.raises(RuntimeError, match="closed"):
            db.subscribe("nn", QUERY)

    def test_describe_reports_subscription_state(self):
        db, live = self._small_db()
        with db:
            assert db.describe()["subscriptions"]["live"] == 0
            sub = db.subscribe("knn", QUERY, k=2)
            sub.poll()
            for i in range(4):
                apply_mutation(db, i, live)
            info = db.describe()
            state = info["subscriptions"]
            assert state["live"] == 1
            (entry,) = state["entries"]
            assert entry["kind"] == "knn"
            assert entry["params"] == {"k": 2}
            assert entry["emitted"] + entry["suppressed"] >= 4
            assert (
                state["revisions_emitted"]
                + state["revisions_suppressed"]
                >= 4
            )
            snap = db.subscriptions.stats_snapshot()
            assert snap.revisions_emitted == state["revisions_emitted"]

    def test_direct_dataset_mutation_catches_up_on_poll(self):
        # Mutations bypassing the Database still reach consumers: the
        # next poll coalesces the backlog into one revision tagged
        # with the current epoch.
        db, _live = self._small_db()
        rng = np.random.default_rng(3)
        with db:
            sub = db.subscribe("nn", QUERY)
            assert sub.poll().changed is False
            db.dataset.insert(
                make_object(9000, rng, center=QUERY, half=3.0)
            )
            db.dataset.insert(
                make_object(9001, rng, center=QUERY, half=1.0)
            )
            revision = sub.poll()
            assert revision is not None
            assert revision.epoch == db.epoch
            assert revision.answer.best == 9001
            assert sub.poll() is None

    def test_unknown_kind_and_bad_max_pending(self):
        db, _live = self._small_db()
        with db:
            with pytest.raises(KeyError, match="unknown query kind"):
                db.subscribe("nearest", QUERY)
            with pytest.raises(ValueError, match="max_pending"):
                db.subscribe("nn", QUERY, max_pending=0)


class TestUVLocality:
    @staticmethod
    def _same_distribution(a, b, tol: float = 1e-9) -> bool:
        # Retrievers may keep different negligible-probability
        # candidates; compare the distributions, not the id sets.
        ids = set(a.probabilities) | set(b.probabilities)
        return all(
            abs(
                a.probabilities.get(i, 0.0) - b.probabilities.get(i, 0.0)
            )
            <= tol
            for i in ids
        )

    def test_uv_retriever_stream_matches_brute(self):
        # The same workload through a forced-UV subscription and a
        # forced-brute eager one: revisions on the same epochs with the
        # same probability distribution, and the UV handle stays the
        # incremental maintenance carrier.
        objs = make_initial(seed=9)
        live = {o.oid: o for o in objs}
        with Database(
            UncertainDataset(list(objs), domain=DOMAIN), indexes=("uv",)
        ) as db:
            uv_sub = db.subscribe("nn", QUERY, retriever="uv")
            brute_sub = db.subscribe(
                "nn", QUERY, retriever="brute", eager=True
            )
            assert uv_sub.poll().changed is False
            brute_baseline = brute_sub.poll()
            assert brute_baseline.changed is False
            uv_stream, brute_stream = [], []
            for i in range(N_MUTATIONS):
                apply_mutation(db, i, live)
                if (a := uv_sub.poll()) is not None:
                    uv_stream.append(a)
                if (b := brute_sub.poll()) is not None:
                    brute_stream.append(b)
            assert uv_stream, "workload produced no UV revisions"
            # Every *material* brute-visible change must be visible
            # through UV at the same epoch with the same distribution.
            # (Either stream may additionally emit on churn among
            # negligible-probability candidates — retriever-specific.)
            uv_by_epoch = {r.epoch: r for r in uv_stream}
            prev = brute_baseline.answer
            material = 0
            for b in brute_stream:
                if self._same_distribution(prev, b.answer):
                    prev = b.answer
                    continue  # negligible churn: UV may suppress it
                prev = b.answer
                material += 1
                a = uv_by_epoch.get(b.epoch)
                assert a is not None, f"UV missed epoch {b.epoch}"
                assert self._same_distribution(a.answer, b.answer)
            assert material >= 1, "workload produced no material change"
            # The forced-UV plan really ran on the UV index.
            assert uv_sub._last_retriever == "uv"


# ----------------------------------------------------------------------
# Fault tolerance: worker death must not drop or duplicate revisions
# ----------------------------------------------------------------------
def test_process_pool_worker_death_still_emits_once_per_epoch():
    """Served subscription under injected worker kills (one mid-chunk,
    one mid-fence): the revision stream must stay exactly one revision
    per changed epoch, bit-identical to the serial replay — recovery
    re-dispatch and fence respawn are invisible to consumers."""
    objs = make_initial()
    live = {o.oid: o for o in objs}
    db = Database(
        UncertainDataset(list(objs), domain=DOMAIN), indexes=()
    )
    try:
        plan = FaultPlan(
            [
                FaultRule("proc.chunk", "kill", wid=0, after=1),
                FaultRule("proc.fence", "kill", wid=1, after=2),
            ]
        )
        server = db.serve(
            workers=2,
            mode="process",
            fault_plan=plan,
            stall_timeout=10.0,
        )
        sub = db.subscribe("nn", QUERY)
        baseline = sub.poll()
        assert baseline is not None and baseline.changed is False
        prev = baseline.answer
        seen_epochs = {baseline.epoch}
        for i in range(N_MUTATIONS):
            apply_mutation(db, i, live)
            db.nn(QUERY)  # served read: keeps chunks flowing over kills
            want = reference_answer(live, "nn", QUERY, ())
            revision = sub.poll()
            if revision is not None:
                assert revision.epoch == db.epoch
                assert revision.epoch not in seen_epochs, (
                    "duplicate revision for one epoch"
                )
                seen_epochs.add(revision.epoch)
                assert revision.changed
                assert answers_equal("nn", revision.answer, want)
                assert sub.poll() is None  # exactly one per epoch
            else:
                assert answers_equal("nn", prev, want), (
                    "suppression hid a change"
                )
            prev = want
        assert sub.revisions_emitted >= 2
        # Both injected kills actually recovered through respawns.
        assert server.recovery_snapshot()["worker_restarts"] >= 1
    finally:
        db.close()
