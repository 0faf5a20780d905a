"""The ``repro.analysis`` checker suite: clean on the repo, and each
deliberately-broken fixture produces exactly one structured finding.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import subprocess
import sys

from repro.analysis import run_all
from repro.analysis.fault_check import check_fault_sites
from repro.analysis.findings import (
    Finding,
    load_baseline,
    save_baseline,
)
from repro.analysis.lock_check import check_lock_order
from repro.analysis.process_check import (
    check_exception_roundtrip,
    check_monotonic,
)

REPO_ROOT = pathlib.Path(__file__).parent.parent
FIXTURES = pathlib.Path(__file__).parent / "analysis_fixtures"


# ----------------------------------------------------------------------
# The repo itself is clean
# ----------------------------------------------------------------------
def test_repo_passes_every_checker():
    findings = run_all(REPO_ROOT)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_exits_zero_on_clean_repo():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


# ----------------------------------------------------------------------
# Fixture violations: exactly one finding each
# ----------------------------------------------------------------------
def test_inverted_lock_acquisition_is_one_finding():
    findings = check_lock_order([FIXTURES / "inverted_locks.py"])
    assert len(findings) == 1, findings
    f = findings[0]
    assert f.checker == "lock-order" and f.code == "L001"
    assert "durable.ckpt_lock" in f.message
    assert "dataset.store_lock" in f.message


def test_unknown_fault_site_is_one_finding():
    findings = check_fault_sites(
        [FIXTURES / "unknown_fault_site.py"],
        require_all_sites_used=False,
    )
    assert len(findings) == 1, findings
    f = findings[0]
    assert f.checker == "fault-sites" and f.code == "F001"
    assert "proc.chnk" in f.message


def test_unpicklable_worker_exception_is_one_finding():
    module = importlib.import_module(
        "analysis_fixtures.unpicklable_error"
    )
    findings = check_exception_roundtrip(
        FIXTURES / "unpicklable_error.py", vars(module)
    )
    assert len(findings) == 1, findings
    f = findings[0]
    assert f.checker == "process-safety" and f.code == "P001"
    assert "ShardFailure" in f.message


# ----------------------------------------------------------------------
# The remaining rules, spot-checked
# ----------------------------------------------------------------------
def test_declared_site_without_call_site_is_flagged():
    findings = check_fault_sites(
        [FIXTURES / "unknown_fault_site.py"],
        sites={"proc.chunk": "used", "ghost.site": "never wired"},
        require_all_sites_used=True,
    )
    codes = sorted(f.code for f in findings)
    assert codes == ["F001", "F002"]  # the typo + the dead site
    assert any("ghost.site" in f.message for f in findings)


def test_wall_clock_ban_flags_time_time(tmp_path):
    bad = tmp_path / "deadline.py"
    bad.write_text(
        "import time\n"
        "def remaining(deadline):\n"
        "    return deadline - time.time()\n"
    )
    findings = check_monotonic([bad])
    assert len(findings) == 1 and findings[0].code == "P002"

    good = tmp_path / "mono.py"
    good.write_text(
        "import time\n"
        "def remaining(deadline):\n"
        "    return deadline - time.monotonic()\n"
    )
    assert check_monotonic([good]) == []


# ----------------------------------------------------------------------
# Baseline machinery
# ----------------------------------------------------------------------
def test_baseline_suppresses_known_findings(tmp_path):
    findings = check_lock_order([FIXTURES / "inverted_locks.py"])
    assert findings
    baseline = tmp_path / "baseline.json"
    save_baseline(baseline, findings)
    suppressed = load_baseline(baseline)
    assert {f.key() for f in findings} <= suppressed
    # Keys are line-independent: a shifted finding stays suppressed.
    moved = Finding(
        findings[0].checker,
        findings[0].code,
        findings[0].path,
        findings[0].line + 40,
        findings[0].message,
    )
    assert moved.key() in suppressed
