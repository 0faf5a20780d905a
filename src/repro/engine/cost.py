"""Retriever cost estimates — the planner's common currency.

The best Step-1 retriever depends on dimensionality, database size, and
index shape (the paper's Figure 9 sweeps): the PV-index wins where its
leaf candidate lists stay small, the R-tree pays heap-traversal
overhead, the UV-index only exists in 2D, and the vectorized brute-force
filter beats them all on small or very high-dimensional databases.  The
``repro.api`` planner chooses between them by comparing
:class:`CostEstimate` objects.

Each built index reports its own estimate through a ``cost_estimate()``
hook calibrated from its real shape (leaf occupancy, tree height, page
sizes — see :meth:`repro.core.pvindex.PVIndex.cost_estimate`,
:meth:`repro.rtree.pnnq.RTreePNNQ.cost_estimate`,
:meth:`repro.uvindex.uvindex.UVIndex.cost_estimate`, and
:meth:`repro.engine.retrievers.BruteForceRetriever.cost_estimate`).
Unbuilt indexes are scored from the static formulas in
:mod:`repro.api.planner`.

Units
-----
* ``step1_us`` — estimated Step-1 (object retrieval) wall-clock in
  microseconds *for this pure-Python implementation*.  Constants were
  fitted to the relative costs of the code paths: one element of the
  min/max kernel costs ~0.005–0.012 µs (see :func:`min_max_scan_us`),
  packing one index entry for it ~0.45 µs, one Python-level per-entry
  step ~1 µs, one octree/R-tree node visit a few µs.
* ``page_reads`` — estimated simulated page reads per query (the
  quantity of Figures 9(c)/(g)).  Wall-clock and page I/O are kept as
  separate axes because the simulated pager costs no real time here but
  would dominate on real disks; the planner scores wall-clock only and
  reports pages in ``explain``.
* ``candidates`` — expected candidate-set size handed to Step 2.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostEstimate", "expected_candidates", "min_max_scan_us"]


def min_max_scan_us(n: float, dims: int) -> float:
    """Per-query wall-clock of the min/max filter over ``n`` regions.

    The brute-force Step 1, static and built, and each shard's part of
    it.  The constants were fitted to the broadcast kernel that
    :func:`repro.engine.retrievers.minmax_sq_chunks` replaced; the
    per-dimension kernel measures about ``30 + 0.005 n d`` µs
    (single queries, n = 250..16000, d = 2..4, 2-vCPU x86-64 host,
    numpy 2.4).  They stay until the static R-tree formula, which is
    weighed against them, is re-fitted too: with the new constants the
    planner would pick brute force over an unbuilt R-tree at n = 8000,
    d = 2.
    """
    return 20.0 + 0.012 * n * dims


def expected_candidates(n: int, dims: int) -> float:
    """Rule-of-thumb candidate-set size for a PNNQ over ``n`` objects.

    The paper's evaluation (Fig 10(c)) shows candidate sets are small
    and essentially independent of ``n`` in low dimensions but grow
    sharply with dimensionality (Fig 9(e)/(f)); this captures that shape
    with a capped exponential in ``dims``.
    """
    return float(min(n, 6.0 * (2.2 ** max(dims - 1, 0))))


@dataclass(frozen=True)
class CostEstimate:
    """Estimated per-query Step-1 cost of one retriever.

    ``source`` records where the numbers came from: ``"static"`` (the
    planner's pre-build formula), ``"index"`` (the built index's own
    shape), or ``"observed"`` (runtime feedback folded in by the
    planner).
    """

    step1_us: float
    page_reads: float
    candidates: float
    source: str = "static"

    def with_step1(self, step1_us: float, source: str) -> "CostEstimate":
        """A copy with the wall-clock term replaced (calibration)."""
        return CostEstimate(
            step1_us=step1_us,
            page_reads=self.page_reads,
            candidates=self.candidates,
            source=source,
        )
