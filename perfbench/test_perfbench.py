"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

They check that a smoke-size run of every workload prints every
declared metric with its unit, that the declared metrics agree with
``BENCHMARK.json``, and that the checks can fail: a corrupted oracle,
a corrupted answer, a wrong plan and a leaked fd each fail the run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMOKE_SECONDS = "0.5"


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_declared_metrics_match_benchmark_json():
    spec = _bench_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["run_seconds"] == workloads.NOMINAL_SECONDS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds",
                SMOKE_SECONDS, "--trace", trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    declared = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == dict(
        declared)
    for name, value in last["metrics"].items():
        assert np.isfinite(value["value"]), name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "served-durable", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _pass(tmp_path, workload="served-durable"):
    args = run.parse(["--workload", workload, "--seed", "5", "--seconds",
                      SMOKE_SECONDS])
    return run.run_pass(workloads.WORKLOADS[workload], args,
                        str(tmp_path / "pass"))


def test_clean_smoke_pass_is_correct(tmp_path):
    p = _pass(tmp_path)
    assert p.error is None
    assert p.wl.facts["checked"] == workloads.SAMPLES


def test_corrupted_oracle_fails_the_run(tmp_path, monkeypatch):
    real = workloads.load_reference

    def corrupted(root):
        ref = real(root)
        exact = ref.reference_qualification_probabilities

        def off(*args, **kwargs):
            return [{oid: p + 1e-6 for oid, p in row.items()}
                    for row in exact(*args, **kwargs)]

        ref.reference_qualification_probabilities = off
        return ref

    monkeypatch.setattr(workloads, "load_reference", corrupted)
    assert "off the reference" in (_pass(tmp_path).error or "")


def test_corrupted_answer_fails_bit_identity():
    from repro.api import Database
    from repro import synthetic_dataset

    ds = synthetic_dataset(n=60, dims=2, u_max=900, n_samples=20, seed=0)
    model = harness.ReplayModel(list(ds), ds.domain, 0, [])
    try:
        q = np.array([5000.0, 5000.0])
        with Database(ds, indexes=()) as db:
            good = db.nn(q, retriever="brute").answer
        workloads.bit_identical(model, 0, "nn", q, {}, good)
        probs = dict(good.probabilities)
        oid = max(probs, key=probs.get)
        probs[oid] = np.nextafter(probs[oid], 2.0)
        bad = type(good)(query=q, candidate_ids=good.candidate_ids,
                         probabilities=probs)
        with pytest.raises(harness.CheckFailed):
            workloads.bit_identical(model, 0, "nn", q, {}, bad)
    finally:
        model.close()


def test_wrong_plan_fails_the_same_work_guard(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.ServedDurable, "retriever", "pv")
    assert "planned on" in (_pass(tmp_path).error or "")


def test_leaked_fd_fails_the_sentinel(tmp_path):
    sentinel = harness.LeakSentinel()
    fh = open(tmp_path / "held", "w")
    try:
        with pytest.raises(harness.CheckFailed):
            sentinel.verify()
    finally:
        fh.close()
    sentinel.verify()


def test_same_seed_does_the_same_work(tmp_path):
    first = run.details(_pass(tmp_path / "a"))["work_fingerprint"]
    second = run.details(_pass(tmp_path / "b"))["work_fingerprint"]
    assert first == second


def test_host_factors_scale_times_by_the_nearby_probes():
    ref = harness.PROBE_REFERENCE_S
    probes = [(0.0, ref), (1.0, ref), (10.0, 2 * ref), (11.0, 2 * ref)]
    factors = harness.host_factors(probes, [0.5, 10.5, 30.0])
    assert list(factors) == [1.0, 2.0, 2.0]  # 30.0: the nearest probe

    log = harness.RunLog(probes=probes, setup_probes=[2 * ref])
    log.ops = [harness.Op("read", "nn", 0.5, 0.5 + 0.004),
               harness.Op("read", "nn", 10.5, 10.5 + 0.008),
               harness.Op("write", "insert", 11.0, 11.0 + 0.002)]
    log.wall = 12.0 + sum(s for _, s in probes)
    raw = harness.end_to_end(log, [3.0], 1.0, normalise=False)
    norm = harness.end_to_end(log, [3.0], 1.0)
    assert raw["read_p95_ms"] > 7.0 and norm["read_p95_ms"] < 4.01
    assert norm["write_p50_ms"] == pytest.approx(1.0)
    assert norm["setup_s"] == pytest.approx(1.5)
    assert raw["ops_per_s"] == pytest.approx(3 / 12.0)
    assert norm["ops_per_s"] == pytest.approx(1.5 * 3 / 12.0)
