"""Project-specific static analysis + runtime sanitizers.

Three checkers, each grounded in a bug class this repo has shipped or
nearly shipped (run them all with ``python -m repro.analysis``):

* :mod:`.lock_check` — static ``with``-nesting check against the
  declared lock hierarchy (:data:`.locks.LOCK_HIERARCHY`), whose
  runtime twin is the ``REPRO_SANITIZE=1`` instrumented-lock factory
  in :mod:`.locks`;
* :mod:`.fault_check` — fault-hook literals ↔ ``faults.SITES``
  registry, both directions;
* :mod:`.process_check` — worker exceptions pickle-round-trip,
  ``time.time()`` banned from deadline paths.
"""

from __future__ import annotations

from pathlib import Path

from .findings import Finding, load_baseline, save_baseline
from .locks import (
    LOCK_HIERARCHY,
    LockOrderViolation,
    make_lock,
    make_rlock,
)

__all__ = [
    "Finding",
    "LOCK_HIERARCHY",
    "LockOrderViolation",
    "load_baseline",
    "make_lock",
    "make_rlock",
    "run_all",
    "save_baseline",
]


def _sources(root: Path, *subdirs: str) -> list[Path]:
    out: list[Path] = []
    for subdir in subdirs:
        base = root / "src" / "repro" / subdir
        if base.is_file():
            out.append(base)
        elif base.is_dir():
            out.extend(sorted(base.rglob("*.py")))
    return out


def run_all(root: Path) -> list[Finding]:
    """Every checker over the repository at ``root``."""
    from .fault_check import check_fault_sites
    from .lock_check import check_lock_order
    from .process_check import check_process_safety

    src = root / "src" / "repro"
    findings: list[Finding] = []
    findings.extend(
        check_lock_order(
            _sources(
                root,
                "api",
                "service",
                "storage",
                "engine/base.py",
                "uncertain/dataset.py",
                "testing/faults.py",
            ),
            root=root,
        )
    )
    findings.extend(
        check_fault_sites(_sources(root, ""), root=root)
    )
    findings.extend(
        check_process_safety(
            _sources(root, "service", "engine"),
            root=root,
            procpool_path=src / "service" / "procpool.py",
        )
    )
    return findings
