"""Structured findings and the baseline file for ``repro.analysis``.

Every checker returns a list of :class:`Finding` values; the CLI
renders them ``path:line: [checker] CODE message`` (clickable in most
editors/CI logs) and exits non-zero when any finding is not covered
by the optional baseline file.

The baseline exists so a checker can be introduced (or tightened)
without blocking on fixing every pre-existing hit at once: findings
whose :meth:`Finding.key` appears in the baseline are reported as
suppressed and do not fail the run.  Keys deliberately exclude the
line number so routine edits above a suppressed site do not
invalidate the baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

__all__ = ["Finding", "load_baseline", "save_baseline"]


@dataclass(frozen=True, order=True)
class Finding:
    """One violation of a project invariant.

    ``checker`` names the pass (``lock-order``, ``fault-sites``,
    ``process-safety``); ``code`` is a short stable
    identifier for the rule within it.
    """

    checker: str
    code: str
    path: str
    line: int
    message: str

    def key(self) -> str:
        """Stable identity for baseline matching (line-independent)."""
        return f"{self.checker}:{self.code}:{self.path}:{self.message}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.checker}] {self.code} {self.message}"


def load_baseline(path: str | Path) -> set[str]:
    """The suppressed finding keys recorded in ``path``."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "suppressed" not in data:
        raise ValueError(f"{path}: not a repro.analysis baseline file")
    return set(data["suppressed"])


def save_baseline(path: str | Path, findings: Iterable[Finding]) -> None:
    """Write a baseline suppressing every finding in ``findings``."""
    payload = {
        "version": 1,
        "suppressed": sorted({f.key() for f in findings}),
    }
    Path(path).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
