"""Shared fixtures for the figure-regeneration benchmarks.

Each benchmark runs one figure driver from :mod:`repro.bench.figures`
once (``benchmark.pedantic`` with a single round — the drivers do their
own repetition and averaging internally, mirroring the paper's
50-run averages), records the regenerated rows, and the collected tables
are appended to the terminal summary and written to
``benchmarks/results/``.

Two profiles control the sweep sizes:

* ``smoke`` (default) — small sweeps; the whole suite finishes in
  minutes on a laptop.
* ``full``  — the bench-scale defaults of :data:`repro.bench.config.SCALE`
  (set ``REPRO_BENCH_PROFILE=full``).
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
_COLLECTED: dict[str, str] = {}


@pytest.fixture(scope="session", autouse=True)
def compiled_loops() -> None:
    """Build the compiled loops (C-set selection, SE and the Step-2
    walk) before any benchmark starts a clock: a first call that paid
    the compiler run would put it inside a timed region."""
    from repro.core import sekernel

    sekernel.load()


@pytest.fixture(scope="session")
def profile() -> str:
    """Benchmark profile name: 'smoke' (default) or 'full'."""
    value = os.environ.get("REPRO_BENCH_PROFILE", "smoke")
    if value not in ("smoke", "full"):
        raise ValueError(
            f"REPRO_BENCH_PROFILE must be 'smoke' or 'full', got {value!r}"
        )
    return value


@pytest.fixture()
def record_figure():
    """Callable ``record(result)`` that archives a regenerated figure."""
    from repro.bench.reporting import format_figure

    def record(result) -> None:
        text = format_figure(result)
        _COLLECTED[result.figure] = text
        RESULTS_DIR.mkdir(exist_ok=True)
        slug = (
            result.figure.lower()
            .replace(" ", "_")
            .replace("(", "")
            .replace(")", "")
        )
        (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")

    return record


def pytest_terminal_summary(terminalreporter) -> None:
    if not _COLLECTED:
        return
    terminalreporter.write_sep("=", "regenerated paper figures")
    for name in sorted(_COLLECTED):
        terminalreporter.write_line(_COLLECTED[name])
        terminalreporter.write_line("")
