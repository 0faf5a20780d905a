"""One driver per paper table/figure.

Every public function regenerates one experiment of Section VII and
returns a :class:`FigureResult` whose rows mirror the series the paper
plots.  Drivers take their sweep values from :data:`repro.bench.config.SCALE`
by default but accept overrides, so the same code runs at smoke-test
scale under pytest-benchmark and, with the defaults, from the command
line::

    python -m repro.bench.figures fig9a
    python -m repro.bench.figures fig9c --io-mode measured

Measured quantities:

* ``Tq`` — mean PNNQ wall-clock per query, milliseconds (Step 1 + 2).
* ``T_OR`` / ``T_PC`` — the Step-1 / Step-2 components of ``Tq``.
* ``IO`` — simulated 4 KB page accesses per query.
* ``Tc`` — index construction seconds.
* ``Tu`` — per-object incremental update seconds.
"""

from __future__ import annotations

import argparse
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core import FixedSelection, IncrementalSelection, PVIndex
from ..core.pvcell import monte_carlo_mbr
from ..core.verifier import VerifierEngine
from ..storage import Pager
from ..uncertain import UncertainDataset
from ..uncertain.store import MappedSnapshot, attach_file
from .config import SCALE
from .instruments import RunningMean, Stopwatch
from .workloads import (
    IndexBundle,
    build_pv_bundle,
    build_rtree_bundle,
    build_uv_bundle,
    hotspot_query_points,
    make_dataset,
    query_points,
    real_dataset,
    strategy_by_name,
)

__all__ = [
    "FigureResult",
    "table1_defaults",
    "fig9a_query_vs_size",
    "fig9b_or_pc_split",
    "fig9c_query_io_vs_size",
    "fig9d_query_vs_region",
    "fig9e_query_vs_dims",
    "fig9f_or_vs_dims",
    "fig9g_io_vs_dims",
    "fig9h_real_datasets",
    "fig10a_construction_vs_delta",
    "fig10b_cset_all_fs_is",
    "fig10c_construction_vs_size",
    "fig10d_construction_vs_region",
    "fig10e_se_time_split",
    "fig10f_real_construction",
    "fig10g_uv_speedup",
    "fig10h_insertion",
    "fig10i_deletion",
    "ablation_mmax",
    "ablation_cset_parameters",
    "ablation_ubr_tightness",
    "ablation_verifier",
    "ablation_bulkload",
    "ablation_topk",
    "ablation_knn",
    "ablation_batch",
    "ALL_FIGURES",
]


@dataclass
class FigureResult:
    """Rows regenerated for one paper figure or table."""

    figure: str
    title: str
    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    def add(self, **values) -> None:
        """Append one row; keys must match :attr:`columns`."""
        missing = set(self.columns) - set(values)
        if missing:
            raise ValueError(f"row missing columns {sorted(missing)}")
        self.rows.append(values)

    def series(self, column: str) -> list:
        """All values of one column, in row order."""
        return [row[column] for row in self.rows]


# ----------------------------------------------------------------------
# Shared measurement helpers
# ----------------------------------------------------------------------
def _mean_query_ms(
    bundle: IndexBundle,
    queries: np.ndarray,
    snapshot: MappedSnapshot | None = None,
) -> tuple[float, float, float, float, float | None]:
    """(Tq, T_OR, T_PC, IO, IO_measured) means per query for one bundle.

    The first four come from the engine's shared
    :class:`~repro.engine.ExecutionStats`: the engine brackets both
    steps and attributes page traffic per phase, so no driver-side
    re-bracketing (or double Step-1 evaluation) is needed.  IO counts
    Step-1 (object retrieval) page accesses only — the quantity
    Fig 9(c)/(g) report ("the cost of accessing leaf nodes").  Step-2
    pdf fetches land in ``stats.pc_io`` and are excluded because only
    the PV-index routes them through the simulated pager; charging them
    would skew the cross-index comparison.

    ``snapshot`` switches on *measured* reads: for every query, the
    number of distinct 4 KB pages of a real on-disk snapshot file
    (:meth:`~repro.uncertain.store.MappedSnapshot.read_pages`) that
    fetching the answer's candidate pdfs would touch.  This grounds the
    simulated counters in actual file geometry; ``None`` when no
    snapshot is given.
    """
    stats = bundle.engine.stats
    stats.reset()
    measured_pages = 0
    for q in queries:
        res = bundle.engine.query(q)
        if snapshot is not None:
            measured_pages += snapshot.read_pages(res.candidate_ids)
    n = max(stats.queries, 1)
    return (
        stats.total / n * 1e3,
        stats.object_retrieval / n * 1e3,
        stats.probability_computation / n * 1e3,
        stats.or_io.total / n,
        measured_pages / n if snapshot is not None else None,
    )


def _export_snapshot(dataset: UncertainDataset, tmpdir: str) -> MappedSnapshot:
    """Write the dataset's packed store to a real file and map it."""
    path = os.path.join(tmpdir, f"snap-{id(dataset):x}.bin")
    dataset.instance_store().export_file(path)
    return attach_file(path)


def _rtree_and_pv(
    _value: object,
) -> tuple[Callable[[UncertainDataset], IndexBundle], ...]:
    return (build_rtree_bundle, build_pv_bundle)


def _query_sweep(
    figure: str,
    title: str,
    sweep_name: str,
    sweep_values: Iterable,
    dataset_for: Callable[[object], UncertainDataset],
    builders_for: Callable[
        [object], Sequence[Callable[[UncertainDataset], IndexBundle]]
    ] = _rtree_and_pv,
    n_queries: int | None = None,
    io_mode: str = "simulated",
    notes: str = "",
) -> FigureResult:
    """Generic 'query cost vs parameter' sweep over a set of indexes.

    ``builders_for(value)`` names the indexes measured at each sweep
    value.  ``io_mode="measured"`` additionally exports each sweep
    dataset to a real snapshot file and reports ``io_pages_measured``
    — distinct 4 KB file pages per query that gathering the answer's
    candidate pdfs touches — beside the simulated pager counters.
    """
    if io_mode not in ("simulated", "measured"):
        raise ValueError(
            f"io_mode must be 'simulated' or 'measured', not {io_mode!r}"
        )
    measured = io_mode == "measured"
    columns = (
        sweep_name, "index", "tq_ms", "t_or_ms", "t_pc_ms", "io_pages",
    )
    if measured:
        columns += ("io_pages_measured",)
    result = FigureResult(
        figure=figure, title=title, columns=columns, notes=notes
    )
    tmpdir = tempfile.mkdtemp(prefix="repro-fig-io-") if measured else None
    try:
        for value in sweep_values:
            dataset = dataset_for(value)
            queries = query_points(dataset, n=n_queries)
            snapshot = (
                _export_snapshot(dataset, tmpdir) if measured else None
            )
            for builder in builders_for(value):
                bundle = builder(dataset.copy())
                tq, t_or, t_pc, io, iom = _mean_query_ms(
                    bundle, queries, snapshot=snapshot
                )
                row = {
                    sweep_name: value,
                    "index": bundle.name,
                    "tq_ms": tq,
                    "t_or_ms": t_or,
                    "t_pc_ms": t_pc,
                    "io_pages": io,
                }
                if measured:
                    row["io_pages_measured"] = iom
                result.add(**row)
            if snapshot is not None:
                snapshot.close()
    finally:
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
    return result


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def table1_defaults() -> FigureResult:
    """Table I: parameters, paper values, and bench-scale values."""
    from .config import PAPER

    result = FigureResult(
        figure="Table I",
        title="Parameters and their default values",
        columns=("parameter", "paper_values", "paper_default",
                 "bench_values", "bench_default"),
        notes=(
            "Bench values keep every shape-defining parameter identical "
            "to the paper and scale |S| and the pdf sample count down "
            "for pure-Python runtimes (see DESIGN.md)."
        ),
    )
    rows = [
        ("|S|", PAPER.sizes, PAPER.default_size,
         SCALE.sizes, SCALE.default_size),
        ("d", PAPER.dims, PAPER.default_dims,
         SCALE.dims, SCALE.default_dims),
        ("|u(o)|", PAPER.u_maxes, PAPER.default_u_max,
         SCALE.u_maxes, SCALE.default_u_max),
        ("delta", PAPER.deltas, PAPER.default_delta,
         SCALE.deltas, SCALE.default_delta),
        ("m_max", PAPER.m_maxes, PAPER.default_m_max,
         SCALE.m_maxes, SCALE.default_m_max),
        ("k", PAPER.ks, PAPER.default_k, SCALE.ks, SCALE.default_k),
        ("kpartition", PAPER.kpartitions, PAPER.default_kpartition,
         SCALE.kpartitions, SCALE.default_kpartition),
        ("kglobal", (PAPER.default_kglobal,), PAPER.default_kglobal,
         (SCALE.default_kglobal,), SCALE.default_kglobal),
    ]
    for name, pv, pd, bv, bd in rows:
        result.add(
            parameter=name,
            paper_values=tuple(pv),
            paper_default=pd,
            bench_values=tuple(bv),
            bench_default=bd,
        )
    return result


# ----------------------------------------------------------------------
# Figure 9 — PNNQ performance
# ----------------------------------------------------------------------
def fig9a_query_vs_size(
    sizes: Sequence[int] | None = None,
    n_queries: int | None = None,
) -> FigureResult:
    """Fig 9(a): Tq vs |S| for R-tree and PV-index (3D synthetic)."""
    return _query_sweep(
        figure="Fig 9(a)",
        title="Query time vs database size (3D)",
        sweep_name="size",
        sweep_values=sizes or SCALE.sizes,
        dataset_for=lambda n: make_dataset(n=n),
        n_queries=n_queries,
    )


def fig9b_or_pc_split(
    size: int | None = None, n_queries: int | None = None
) -> FigureResult:
    """Fig 9(b): Tq decomposition into OR (Step 1) and PC (Step 2)."""
    dataset = make_dataset(n=size)
    queries = query_points(dataset, n=n_queries)
    result = FigureResult(
        figure="Fig 9(b)",
        title="OR / PC decomposition of the query time",
        columns=("index", "t_or_ms", "t_pc_ms", "or_fraction"),
        notes="PC is identical code for both; OR is where PV wins.",
    )
    for builder in (build_rtree_bundle, build_pv_bundle):
        bundle = builder(dataset.copy())
        _tq, t_or, t_pc, _io, _iom = _mean_query_ms(bundle, queries)
        result.add(
            index=bundle.name,
            t_or_ms=t_or,
            t_pc_ms=t_pc,
            or_fraction=t_or / max(t_or + t_pc, 1e-12),
        )
    return result


def fig9c_query_io_vs_size(
    sizes: Sequence[int] | None = None,
    n_queries: int | None = None,
    io_mode: str = "simulated",
) -> FigureResult:
    """Fig 9(c): per-query page I/O vs |S| (3D synthetic).

    ``io_mode="measured"`` adds an ``io_pages_measured`` column:
    distinct 4 KB pages of a real mmap snapshot file touched per query
    by the answer's candidate pdfs, next to the simulated counters.
    """
    result = _query_sweep(
        figure="Fig 9(c)",
        title="Query I/O (pages) vs database size (3D)",
        sweep_name="size",
        sweep_values=sizes or SCALE.sizes,
        dataset_for=lambda n: make_dataset(n=n),
        n_queries=n_queries,
        io_mode=io_mode,
    )
    result.notes = (
        "The paper reports I/O time; page accesses through the shared "
        "pager are its hardware-independent equivalent.  io_mode="
        "'measured' grounds them against real snapshot-file pages."
    )
    return result


def fig9d_query_vs_region(
    u_maxes: Sequence[float] | None = None,
    size: int | None = None,
    n_queries: int | None = None,
) -> FigureResult:
    """Fig 9(d): Tq vs maximum uncertainty-region side |u(o)|."""
    return _query_sweep(
        figure="Fig 9(d)",
        title="Query time vs uncertainty-region size (3D)",
        sweep_name="u_max",
        sweep_values=u_maxes or SCALE.u_maxes,
        dataset_for=lambda u: make_dataset(n=size, u_max=u),
        n_queries=n_queries,
    )


def _dims_sweep(
    figure: str,
    title: str,
    dims: Sequence[int] | None,
    size: int | None,
    n_queries: int | None,
    io_mode: str = "simulated",
) -> FigureResult:
    """Fig 9(e)-(g) share one sweep: d in {2..5}, UV at d=2 only."""
    return _query_sweep(
        figure=figure,
        title=title,
        sweep_name="dims",
        sweep_values=dims or SCALE.dims,
        dataset_for=lambda d: make_dataset(n=size, dims=d),
        builders_for=lambda d: _rtree_and_pv(d)
        + ((build_uv_bundle,) if d == 2 else ()),
        n_queries=n_queries,
        io_mode=io_mode,
        notes="UV-index rows appear only at d=2 (its supported case).",
    )


def fig9e_query_vs_dims(
    dims: Sequence[int] | None = None,
    size: int | None = None,
    n_queries: int | None = None,
) -> FigureResult:
    """Fig 9(e): Tq vs dimensionality (R-tree, PV; UV at 2D)."""
    return _dims_sweep(
        "Fig 9(e)", "Query time vs dimensionality", dims, size, n_queries
    )


def fig9f_or_vs_dims(
    dims: Sequence[int] | None = None,
    size: int | None = None,
    n_queries: int | None = None,
) -> FigureResult:
    """Fig 9(f): Step-1 (OR) time vs dimensionality."""
    return _dims_sweep(
        "Fig 9(f)", "Object-retrieval time vs dimensionality",
        dims, size, n_queries,
    )


def fig9g_io_vs_dims(
    dims: Sequence[int] | None = None,
    size: int | None = None,
    n_queries: int | None = None,
    io_mode: str = "simulated",
) -> FigureResult:
    """Fig 9(g): per-query page I/O vs dimensionality.

    ``io_mode="measured"`` adds an ``io_pages_measured`` column (real
    snapshot-file pages per query); see :func:`fig9c_query_io_vs_size`.
    """
    return _dims_sweep(
        "Fig 9(g)", "Query I/O (pages) vs dimensionality",
        dims, size, n_queries, io_mode=io_mode,
    )


def fig9h_real_datasets(
    names: Sequence[str] = ("roads", "rrlines", "airports"),
    size: int | None = None,
    n_queries: int | None = None,
) -> FigureResult:
    """Fig 9(h): Tq on the (simulated) real datasets."""
    result = FigureResult(
        figure="Fig 9(h)",
        title="Query time on real datasets",
        columns=("dataset", "index", "tq_ms", "t_or_ms", "t_pc_ms",
                 "io_pages"),
        notes="roads/rrlines are 2D (UV applicable); airports is 3D.",
    )
    for name in names:
        dataset = real_dataset(name, n=size)
        queries = query_points(dataset, n=n_queries)
        builders: list[Callable] = [build_rtree_bundle, build_pv_bundle]
        if dataset.dims == 2:
            builders.append(build_uv_bundle)
        for builder in builders:
            bundle = builder(dataset.copy())
            tq, t_or, t_pc, io, _iom = _mean_query_ms(bundle, queries)
            result.add(
                dataset=name, index=bundle.name, tq_ms=tq,
                t_or_ms=t_or, t_pc_ms=t_pc, io_pages=io,
            )
    return result


# ----------------------------------------------------------------------
# Figure 10 — construction and maintenance
# ----------------------------------------------------------------------
def fig10a_construction_vs_delta(
    deltas: Sequence[float] | None = None, size: int | None = None
) -> FigureResult:
    """Fig 10(a): PV-index construction time vs SE threshold Δ."""
    result = FigureResult(
        figure="Fig 10(a)",
        title="Construction time vs delta",
        columns=("delta", "tc_seconds", "se_iterations"),
        notes="Larger delta stops SE earlier: fewer bisection rounds.",
    )
    dataset = make_dataset(n=size)
    for delta in deltas or SCALE.deltas:
        bundle = build_pv_bundle(dataset.copy(), delta=delta)
        result.add(
            delta=delta,
            tc_seconds=bundle.build_seconds,
            se_iterations=bundle.index.se.stats.iterations,
        )
    return result


def fig10b_cset_all_fs_is(
    sizes: Sequence[int] | None = None,
) -> FigureResult:
    """Fig 10(b): construction time of ALL vs FS vs IS.

    ALL evaluates every domination test against the entire database, so
    its cost explodes; the paper runs it to 20k (103 hours) — the bench
    keeps it to tiny sizes to expose the same blow-up shape.
    """
    result = FigureResult(
        figure="Fig 10(b)",
        title="Construction time: ALL vs FS vs IS",
        columns=("size", "strategy", "tc_seconds"),
    )
    for n in sizes or SCALE.all_sizes:
        dataset = make_dataset(n=n)
        for strategy_name in ("ALL", "FS", "IS"):
            bundle = build_pv_bundle(
                dataset.copy(), strategy=strategy_by_name(strategy_name)
            )
            result.add(
                size=n,
                strategy=strategy_name,
                tc_seconds=bundle.build_seconds,
            )
    return result


def fig10c_construction_vs_size(
    sizes: Sequence[int] | None = None,
) -> FigureResult:
    """Fig 10(c): construction time of FS vs IS over |S|."""
    result = FigureResult(
        figure="Fig 10(c)",
        title="Construction time vs database size (FS vs IS)",
        columns=("size", "strategy", "tc_seconds", "mean_cset"),
    )
    for n in sizes or SCALE.sizes:
        dataset = make_dataset(n=n)
        for strategy_name in ("FS", "IS"):
            bundle = build_pv_bundle(
                dataset.copy(), strategy=strategy_by_name(strategy_name)
            )
            result.add(
                size=n,
                strategy=strategy_name,
                tc_seconds=bundle.build_seconds,
                mean_cset=bundle.index.se.stats.mean_cset_size,
            )
    return result


def fig10d_construction_vs_region(
    u_maxes: Sequence[float] | None = None, size: int | None = None
) -> FigureResult:
    """Fig 10(d): construction time of FS vs IS over |u(o)|."""
    result = FigureResult(
        figure="Fig 10(d)",
        title="Construction time vs uncertainty-region size (FS vs IS)",
        columns=("u_max", "strategy", "tc_seconds", "mean_cset"),
    )
    for u in u_maxes or SCALE.u_maxes:
        dataset = make_dataset(n=size, u_max=u)
        for strategy_name in ("FS", "IS"):
            bundle = build_pv_bundle(
                dataset.copy(), strategy=strategy_by_name(strategy_name)
            )
            result.add(
                u_max=u,
                strategy=strategy_name,
                tc_seconds=bundle.build_seconds,
                mean_cset=bundle.index.se.stats.mean_cset_size,
            )
    return result


def fig10e_se_time_split(size: int | None = None) -> FigureResult:
    """Fig 10(e): SE time split into chooseCSet and UBR computation."""
    result = FigureResult(
        figure="Fig 10(e)",
        title="SE time decomposition (chooseCSet vs UBR computation)",
        columns=("strategy", "choose_cset_s", "ubr_s", "mean_cset"),
        notes=(
            "IS spends more choosing its C-set but the smaller C-set "
            "makes the UBR phase cheaper — the paper's explanation for "
            "IS beating FS overall."
        ),
    )
    dataset = make_dataset(n=size)
    for strategy_name in ("FS", "IS"):
        bundle = build_pv_bundle(
            dataset.copy(), strategy=strategy_by_name(strategy_name)
        )
        stats = bundle.index.se.stats
        result.add(
            strategy=strategy_name,
            choose_cset_s=stats.choose_cset_seconds,
            ubr_s=stats.ubr_seconds,
            mean_cset=stats.mean_cset_size,
        )
    return result


def fig10f_real_construction(
    names: Sequence[str] = ("roads", "rrlines", "airports"),
    size: int | None = None,
) -> FigureResult:
    """Fig 10(f): construction time of FS vs IS on real datasets."""
    result = FigureResult(
        figure="Fig 10(f)",
        title="Construction time on real datasets (FS vs IS)",
        columns=("dataset", "strategy", "tc_seconds"),
    )
    for name in names:
        dataset = real_dataset(name, n=size)
        for strategy_name in ("FS", "IS"):
            bundle = build_pv_bundle(
                dataset.copy(), strategy=strategy_by_name(strategy_name)
            )
            result.add(
                dataset=name,
                strategy=strategy_name,
                tc_seconds=bundle.build_seconds,
            )
    return result


def fig10g_uv_speedup(
    names: Sequence[str] = ("roads", "rrlines"),
    size: int | None = None,
) -> FigureResult:
    """Fig 10(g): PV-index vs UV-index construction on 2D datasets.

    The paper reports the PV-index building 15-25x faster.
    """
    result = FigureResult(
        figure="Fig 10(g)",
        title="Construction speedup of PV- over UV-index (2D)",
        columns=("dataset", "pv_tc_seconds", "uv_tc_seconds", "speedup"),
    )
    for name in names:
        dataset = real_dataset(name, n=size)
        pv = build_pv_bundle(dataset.copy())
        uv = build_uv_bundle(dataset.copy())
        result.add(
            dataset=name,
            pv_tc_seconds=pv.build_seconds,
            uv_tc_seconds=uv.build_seconds,
            speedup=uv.build_seconds / max(pv.build_seconds, 1e-12),
        )
    return result


#: UV-index maintenance parameters for the update sweeps: a small
#: candidate set keeps each mutation's affected fraction low (the
#: locality regime the paper's update experiments run in) at feasible
#: bench sizes; the boxes stay conservative, so answers stay exact.
_UV_UPDATE_K_CAND = 8
_UV_UPDATE_DELTA = 1.0


def _update_sweep(
    figure: str,
    title: str,
    operation: str,
    sizes: Sequence[int] | None,
    update_fraction: float | None,
    dims: int | None = None,
) -> FigureResult:
    """Fig 10(h)/(i): per-object update cost, Inc vs Rebuild.

    Both maintained index families run both arms: the PV-index's
    Section VI-B incremental maintenance and the UV-index's localized
    cell recomputation, each against full reconstruction.  ``cells``
    counts the expensive unit of work — SE UBR / UV-cell derivations —
    over the whole update batch, and ``io_pages`` the simulated page
    traffic per updated object, both read off the shared index/pager
    instrumentation rather than driver-side re-bracketing.

    The incremental advantage depends on update *locality*: the
    affected set must be a small fraction of the database.  At the
    paper's density (60k objects in the 3D domain) that holds
    trivially; at bench scale the drivers default to denser 2D data so
    the same locality regime — and therefore the paper's shape — is
    reproduced at feasible sizes.
    """
    if operation not in ("insertion", "deletion"):
        raise ValueError("operation must be 'insertion' or 'deletion'")
    result = FigureResult(
        figure=figure,
        title=title,
        columns=(
            "size", "index", "method", "tu_seconds", "cells", "io_pages"
        ),
        notes=(
            "Tu is seconds per updated object; Rebuild reconstructs the "
            "whole index per batch and is amortized over the batch. "
            "cells counts UBR/UV-cell derivations over the batch."
        ),
    )
    fraction = (
        update_fraction
        if update_fraction is not None
        else SCALE.update_fraction
    )
    for n in sizes or SCALE.sizes:
        d = dims if dims is not None else 2
        dataset = make_dataset(n=n, dims=d)
        n_updates = max(1, int(n * fraction))
        rng = np.random.default_rng(7)
        victim_ids = [
            int(i)
            for i in rng.choice(dataset.ids, size=n_updates, replace=False)
        ]

        builders: list[tuple[str, Callable]] = [
            ("PV-index", build_pv_bundle)
        ]
        if d == 2:  # the UV-index is 2D-only
            builders.append((
                "UV-index",
                lambda ds: build_uv_bundle(
                    ds,
                    k_cand=_UV_UPDATE_K_CAND,
                    delta=_UV_UPDATE_DELTA,
                ),
            ))

        # Shared across index families: the reduced database (victims
        # removed) and the removed objects themselves.  Builders never
        # mutate their input, so only the Inc arms (which apply live
        # updates) get private copies.
        reduced = dataset.copy()
        victims = [reduced.delete(oid) for oid in victim_ids]

        for index_name, build in builders:
            if operation == "deletion":
                # Inc: delete the victims one at a time from a live
                # index; Rebuild: drop them, reconstruct from scratch.
                inc = build(dataset.copy())
                updates = [("delete", oid) for oid in victim_ids]
                rebuild_input = reduced
            else:
                # Paper protocol: remove the batch, then re-insert it.
                inc = build(reduced.copy())
                updates = [("insert", obj) for obj in victims]
                rebuild_input = dataset

            cells_before = inc.index.stats.cells_recomputed
            io_before = inc.pager.stats.snapshot()
            watch = Stopwatch()
            with watch:
                for op, arg in updates:
                    getattr(inc.index, op)(arg)
            result.add(
                size=n,
                index=index_name,
                method="Inc",
                tu_seconds=watch.seconds / n_updates,
                cells=inc.index.stats.cells_recomputed - cells_before,
                io_pages=inc.pager.stats.delta(io_before).total
                / n_updates,
            )
            watch = Stopwatch()
            with watch:
                rebuilt = build(rebuild_input)
            result.add(
                size=n,
                index=index_name,
                method="Rebuild",
                tu_seconds=watch.seconds / n_updates,
                cells=rebuilt.index.stats.cells_recomputed,
                io_pages=rebuilt.pager.stats.total / n_updates,
            )
    return result


def fig10h_insertion(
    sizes: Sequence[int] | None = None,
    update_fraction: float | None = None,
    dims: int | None = None,
) -> FigureResult:
    """Fig 10(h): per-object insertion cost, Inc vs Rebuild."""
    return _update_sweep(
        "Fig 10(h)", "Insertion: incremental vs rebuild",
        "insertion", sizes, update_fraction, dims,
    )


def fig10i_deletion(
    sizes: Sequence[int] | None = None,
    update_fraction: float | None = None,
    dims: int | None = None,
) -> FigureResult:
    """Fig 10(i): per-object deletion cost, Inc vs Rebuild."""
    return _update_sweep(
        "Fig 10(i)", "Deletion: incremental vs rebuild",
        "deletion", sizes, update_fraction, dims,
    )


# ----------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ----------------------------------------------------------------------
def ablation_mmax(
    m_maxes: Sequence[int] | None = None, size: int | None = None
) -> FigureResult:
    """A1: sensitivity to the domination-count partition budget m_max.

    Section V-B remarks that partition granularity trades test accuracy
    (UBR tightness) against runtime; this sweep quantifies both sides.
    """
    result = FigureResult(
        figure="Ablation A1",
        title="m_max: construction time vs UBR tightness",
        columns=("m_max", "tc_seconds", "mean_ubr_volume"),
    )
    dataset = make_dataset(n=size)
    for m in m_maxes or SCALE.m_maxes:
        bundle = build_pv_bundle(dataset.copy(), m_max=m)
        volumes = [
            bundle.index.ubr_of(oid).volume for oid in dataset.ids
        ]
        result.add(
            m_max=m,
            tc_seconds=bundle.build_seconds,
            mean_ubr_volume=float(np.mean(volumes)),
        )
    return result


def ablation_cset_parameters(
    ks: Sequence[int] | None = None,
    kpartitions: Sequence[int] | None = None,
    size: int | None = None,
    n_queries: int | None = None,
) -> FigureResult:
    """A2: k (FS) and kpartition (IS) sensitivity (Section VII-C(a)).

    The paper reports Tq 'quite stable' across these parameters; Tc
    grows with both.
    """
    result = FigureResult(
        figure="Ablation A2",
        title="C-set parameter sensitivity (FS k; IS kpartition)",
        columns=("strategy", "parameter", "value", "tc_seconds", "tq_ms"),
    )
    dataset = make_dataset(n=size)
    queries = query_points(dataset, n=n_queries)
    for k in ks or SCALE.ks:
        bundle = build_pv_bundle(
            dataset.copy(), strategy=FixedSelection(k=k)
        )
        tq, _or, _pc, _io, _iom = _mean_query_ms(bundle, queries)
        result.add(
            strategy="FS", parameter="k", value=k,
            tc_seconds=bundle.build_seconds, tq_ms=tq,
        )
    for kp in kpartitions or SCALE.kpartitions:
        bundle = build_pv_bundle(
            dataset.copy(),
            strategy=IncrementalSelection(
                kpartition=kp, kglobal=SCALE.default_kglobal
            ),
        )
        tq, _or, _pc, _io, _iom = _mean_query_ms(bundle, queries)
        result.add(
            strategy="IS", parameter="kpartition", value=kp,
            tc_seconds=bundle.build_seconds, tq_ms=tq,
        )
    return result


def ablation_ubr_tightness(
    deltas: Sequence[float] | None = None,
    size: int | None = None,
    n_probe: int = 4096,
) -> FigureResult:
    """A3: UBR volume vs a Monte-Carlo estimate of the true MBR.

    Checks the paper's claim that SE's UBR is 'only a bit larger' than
    the (intractable) exact MBR of the PV-cell, and that the looseness
    degrades gracefully with Δ.
    """
    result = FigureResult(
        figure="Ablation A3",
        title="UBR tightness vs Monte-Carlo MBR",
        columns=("delta", "mean_volume_ratio", "max_volume_ratio",
                 "containment_violations"),
        notes=(
            "volume_ratio = vol(UBR) / vol(MC-MBR) >= 1; violations "
            "count sampled PV-cell points outside their UBR (must be 0)."
        ),
    )
    from ..core.pvcell import pv_cell_contains_many

    dataset = make_dataset(n=size if size is not None else 120)
    for delta in deltas or (0.1, 1.0, 10.0, 100.0):
        bundle = build_pv_bundle(dataset.copy(), delta=delta)
        ratios = []
        violations = 0
        for oid in dataset.ids[:40]:
            ubr = bundle.index.ubr_of(oid)
            rng = np.random.default_rng(oid)
            mc_box = monte_carlo_mbr(
                dataset, oid, n_samples=n_probe, rng=rng
            )
            if mc_box.volume > 0:
                ratios.append(ubr.volume / mc_box.volume)
            probe = dataset.domain.sample_points(
                n_probe, np.random.default_rng(oid + 1)
            )
            inside = pv_cell_contains_many(dataset, oid, probe)
            for p in probe[inside]:
                if not ubr.contains_point(p):
                    violations += 1
        result.add(
            delta=delta,
            mean_volume_ratio=float(np.mean(ratios)) if ratios else 1.0,
            max_volume_ratio=float(np.max(ratios)) if ratios else 1.0,
            containment_violations=violations,
        )
    return result


def ablation_verifier(
    size: int | None = None,
    n_queries: int | None = None,
    tau: float = 0.1,
) -> FigureResult:
    """A4: probabilistic-verifier bounds vs full Step-2 evaluation.

    The paper notes ([11]) that cheap probability bounds shift PNNQ cost
    toward Step 1; this measures how many exact evaluations the verifier
    avoids at threshold tau.
    """
    result = FigureResult(
        figure="Ablation A4",
        title="Verifier: avoided exact Step-2 evaluations",
        columns=("index", "candidates", "exact_evals", "avoided_frac",
                 "tq_ms"),
    )
    # Large uncertainty regions so queries see several candidates —
    # the regime where bound-based pruning has something to prune.
    dataset = make_dataset(n=size, u_max=2000.0)
    queries = query_points(dataset, n=n_queries)
    bundle = build_pv_bundle(dataset.copy())
    verifier = VerifierEngine(dataset, bundle.index)
    total_candidates = 0
    watch = Stopwatch()
    for q in queries:
        with watch:
            decisions = verifier.query(q, tau=tau)
        total_candidates += len(decisions)
    n = max(len(queries), 1)
    avoided = verifier.verified_only / max(total_candidates, 1)
    result.add(
        index=bundle.name,
        candidates=total_candidates / n,
        exact_evals=verifier.exact_evaluations / n,
        avoided_frac=avoided,
        tq_ms=watch.seconds / n * 1e3,
    )
    return result


def ablation_bulkload(
    sizes: Sequence[int] | None = None,
) -> FigureResult:
    """A5: bulkloading and compression (conclusion's future work).

    Compares sequential construction against Z-order bulkloading on
    build time and write I/O, and reports pages reclaimed by compaction
    after construction.
    """
    from ..core.bulk import bulk_build, compact

    result = FigureResult(
        figure="Ablation A5",
        title="Bulkloading (Z-order) and compression vs sequential build",
        columns=("size", "method", "tc_seconds", "write_pages",
                 "pages_reclaimed"),
        notes=(
            "Both constructions produce identical indexes; bulkloading "
            "changes only the build I/O profile.  pages_reclaimed is "
            "post-build compaction yield."
        ),
    )
    for n in sizes or (200, 400):
        dataset = make_dataset(n=n)

        pager = Pager()
        watch = Stopwatch()
        with watch:
            index = PVIndex.build(dataset.copy(), pager=pager)
        seq_reclaimed = compact(index).pages_reclaimed
        result.add(
            size=n, method="sequential", tc_seconds=watch.seconds,
            write_pages=pager.stats.writes,
            pages_reclaimed=seq_reclaimed,
        )

        report = bulk_build(dataset.copy())
        bulk_reclaimed = compact(report.index).pages_reclaimed
        result.add(
            size=n, method="bulk(z-order)",
            tc_seconds=report.build_seconds,
            write_pages=report.write_pages,
            pages_reclaimed=bulk_reclaimed,
        )
    return result


def ablation_topk(
    ks: Sequence[int] = (1, 2, 4, 8),
    size: int | None = None,
    n_queries: int | None = None,
) -> FigureResult:
    """A6: top-k probable NN latency and bound-pruning yield vs k."""
    from ..core.topk import TopKEngine

    result = FigureResult(
        figure="Ablation A6",
        title="Top-k probable NN: latency and pruning vs k",
        columns=("k", "tq_ms", "mean_pruned", "mean_candidates"),
    )
    dataset = make_dataset(n=size, u_max=2000.0)
    bundle = build_pv_bundle(dataset.copy())
    queries = query_points(dataset, n=n_queries)
    for k in ks:
        engine = TopKEngine(dataset, bundle.index)
        pruned = RunningMean()
        candidates = RunningMean()
        watch = Stopwatch()
        for q in queries:
            with watch:
                res = engine.query(q, k=k)
            pruned.add(res.pruned)
            candidates.add(len(res.ranking))
        result.add(
            k=k,
            tq_ms=watch.seconds / max(len(queries), 1) * 1e3,
            mean_pruned=pruned.mean,
            mean_candidates=candidates.mean,
        )
    return result


def ablation_knn(
    ks: Sequence[int] = (1, 2, 4, 8),
    size: int | None = None,
    n_queries: int | None = None,
) -> FigureResult:
    """A7: probabilistic k-NN — candidate growth and Step-2 cost vs k.

    The PV-index accelerates k = 1; for k > 1 the exact k-th-maxdist
    filter takes over.  Step-2 cost grows with both the candidate count
    and the O(n·k) Poisson-binomial dynamic program.
    """
    from ..core.knn import KNNEngine

    result = FigureResult(
        figure="Ablation A7",
        title="k-PNN: candidates and query cost vs k",
        columns=("k", "tq_ms", "mean_candidates", "prob_mass"),
        notes=(
            "prob_mass = mean over queries of the summed membership "
            "probabilities; per query the sum is exactly "
            "min(k, candidates) — the expected answer-set size."
        ),
    )
    dataset = make_dataset(n=size, u_max=2000.0)
    bundle = build_pv_bundle(dataset.copy())
    queries = query_points(dataset, n=n_queries)
    for k in ks:
        engine = KNNEngine(dataset, retriever=bundle.index)
        cands = RunningMean()
        mass = RunningMean()
        watch = Stopwatch()
        for q in queries:
            with watch:
                res = engine.query(q, k=k)
            cands.add(len(res.candidate_ids))
            mass.add(sum(res.probabilities.values()))
        result.add(
            k=k,
            tq_ms=watch.seconds / max(len(queries), 1) * 1e3,
            mean_candidates=cands.mean,
            prob_mass=mass.mean,
        )
    return result


def ablation_batch(
    size: int | None = None,
    n_queries: int = 200,
    n_hot: int = 32,
) -> FigureResult:
    """A8: batched execution vs the equivalent single-query loop.

    Runs the same PNNQ workload twice through one PV-index engine —
    once as ``engine.query`` in a loop, once as one
    ``engine.query_batch`` call — and cross-checks that both produce
    identical answers.  The batch path deduplicates repeat queries,
    shares Step-1 retrieval, and vectorizes Step-2 distance work across
    queries with a common candidate set, so its advantage grows with
    workload locality: ``uniform`` bounds the overhead on all-distinct
    queries, ``hotspot`` is the serving regime the batch API targets.
    """
    result = FigureResult(
        figure="Ablation A8",
        title="Batched queries vs single-query loop (PNNQ, PV-index)",
        columns=("workload", "n_queries", "distinct", "loop_ms",
                 "batch_ms", "speedup"),
        notes=(
            "Identical engine and index for both paths; answers are "
            "cross-checked per query.  speedup = loop_ms / batch_ms."
        ),
    )
    dataset = make_dataset(n=size)
    bundle = build_pv_bundle(dataset.copy())
    engine = bundle.engine
    for name, queries in (
        ("uniform", query_points(dataset, n=n_queries)),
        ("hotspot", hotspot_query_points(
            dataset, n=n_queries, n_hot=n_hot
        )),
    ):
        engine.stats.reset()
        watch = Stopwatch()
        with watch:
            loop_results = [engine.query(q) for q in queries]
        loop_seconds = watch.seconds

        engine.stats.reset()
        watch = Stopwatch()
        with watch:
            batch_results = engine.query_batch(queries)
        batch_seconds = watch.seconds

        for single, batched in zip(loop_results, batch_results):
            assert set(single.candidate_ids) == set(batched.candidate_ids)
            assert set(single.probabilities) == set(batched.probabilities)
            assert all(
                abs(p - batched.probabilities[oid]) < 1e-9
                for oid, p in single.probabilities.items()
            )
        result.add(
            workload=name,
            n_queries=len(queries),
            distinct=len({q.tobytes() for q in np.asarray(queries)}),
            loop_ms=loop_seconds * 1e3,
            batch_ms=batch_seconds * 1e3,
            speedup=loop_seconds / max(batch_seconds, 1e-12),
        )
    return result


#: name -> driver registry used by the CLI and the smoke tests.
ALL_FIGURES: dict[str, Callable[..., FigureResult]] = {
    "table1": table1_defaults,
    "fig9a": fig9a_query_vs_size,
    "fig9b": fig9b_or_pc_split,
    "fig9c": fig9c_query_io_vs_size,
    "fig9d": fig9d_query_vs_region,
    "fig9e": fig9e_query_vs_dims,
    "fig9f": fig9f_or_vs_dims,
    "fig9g": fig9g_io_vs_dims,
    "fig9h": fig9h_real_datasets,
    "fig10a": fig10a_construction_vs_delta,
    "fig10b": fig10b_cset_all_fs_is,
    "fig10c": fig10c_construction_vs_size,
    "fig10d": fig10d_construction_vs_region,
    "fig10e": fig10e_se_time_split,
    "fig10f": fig10f_real_construction,
    "fig10g": fig10g_uv_speedup,
    "fig10h": fig10h_insertion,
    "fig10i": fig10i_deletion,
    "ablation_mmax": ablation_mmax,
    "ablation_cset": ablation_cset_parameters,
    "ablation_tightness": ablation_ubr_tightness,
    "ablation_verifier": ablation_verifier,
    "ablation_bulkload": ablation_bulkload,
    "ablation_topk": ablation_topk,
    "ablation_knn": ablation_knn,
    "ablation_batch": ablation_batch,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: regenerate one figure and print its rows."""
    from .reporting import format_figure

    parser = argparse.ArgumentParser(
        description="Regenerate one paper figure/table."
    )
    parser.add_argument("figure", choices=sorted(ALL_FIGURES))
    parser.add_argument(
        "--io-mode",
        choices=("simulated", "measured"),
        default="simulated",
        help=(
            "For the I/O figures (fig9c, fig9g): 'measured' adds real "
            "snapshot-file page counts beside the simulated counters."
        ),
    )
    args = parser.parse_args(argv)
    driver = ALL_FIGURES[args.figure]
    kwargs: dict = {}
    if args.io_mode != "simulated":
        import inspect

        if "io_mode" not in inspect.signature(driver).parameters:
            parser.error(
                f"{args.figure} does not support --io-mode "
                "(only fig9c and fig9g report I/O columns)"
            )
        kwargs["io_mode"] = args.io_mode
    result = driver(**kwargs)
    print(format_figure(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
