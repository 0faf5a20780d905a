"""Workload construction shared by all figure drivers.

Centralizes dataset builders (synthetic sweep points and the three
simulated real datasets), query-point generation, and "index bundles" —
an index plus the pager it charges I/O to, so drivers can measure both
time and page traffic without re-plumbing the storage layer each time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import (
    CSetStrategy,
    FixedSelection,
    IncrementalSelection,
    PNNQEngine,
    PVIndex,
    SEConfig,
    sekernel,
)
from ..rtree import RTreePNNQ
from ..storage import OctreeConfig, Pager
from ..uncertain import (
    UncertainDataset,
    simulate_airports,
    simulate_roads,
    simulate_rrlines,
    synthetic_dataset,
)
from ..uvindex import UVIndex
from .config import SCALE

__all__ = [
    "IndexBundle",
    "make_dataset",
    "real_dataset",
    "query_points",
    "hotspot_query_points",
    "build_pv_bundle",
    "build_rtree_bundle",
    "build_uv_bundle",
    "strategy_by_name",
]

REAL_BUILDERS = {
    "roads": simulate_roads,
    "rrlines": simulate_rrlines,
    "airports": simulate_airports,
}


@dataclass
class IndexBundle:
    """A Step-1 index, its engine, and the pager it does I/O through."""

    name: str
    index: object
    engine: PNNQEngine
    pager: Pager
    build_seconds: float

    def candidates(self, query: np.ndarray) -> list[int]:
        """Step-1 answer of the wrapped index."""
        return self.index.candidates(query)


def make_dataset(
    n: int | None = None,
    dims: int | None = None,
    u_max: float | None = None,
    seed: int = 0,
    n_samples: int | None = None,
) -> UncertainDataset:
    """Synthetic dataset at bench scale with per-figure overrides."""
    return synthetic_dataset(
        n=n if n is not None else SCALE.default_size,
        dims=dims if dims is not None else SCALE.default_dims,
        u_max=u_max if u_max is not None else SCALE.default_u_max,
        n_samples=n_samples if n_samples is not None else SCALE.n_samples,
        seed=seed,
        domain_size=SCALE.domain_size,
    )


def real_dataset(name: str, n: int | None = None) -> UncertainDataset:
    """One of the simulated real datasets (roads / rrlines / airports)."""
    if name not in REAL_BUILDERS:
        raise KeyError(
            f"unknown real dataset {name!r}; "
            f"expected one of {sorted(REAL_BUILDERS)}"
        )
    return REAL_BUILDERS[name](
        n=n if n is not None else SCALE.real_sizes[name],
        n_samples=SCALE.n_samples,
    )


def query_points(
    dataset: UncertainDataset, n: int | None = None, seed: int = 1
) -> np.ndarray:
    """Random PNNQ query points drawn uniformly from the domain."""
    rng = np.random.default_rng(seed)
    domain = dataset.domain
    count = n if n is not None else SCALE.n_queries
    return rng.uniform(
        domain.lo, domain.hi, size=(count, dataset.dims)
    )


def hotspot_query_points(
    dataset: UncertainDataset,
    n: int | None = None,
    n_hot: int = 32,
    seed: int = 1,
) -> np.ndarray:
    """A serving-style workload: ``n`` queries over ``n_hot`` hot spots.

    Heavy-traffic query streams concentrate on a small set of popular
    locations (POIs, cell towers, depots); this draws each query
    uniformly from ``n_hot`` fixed points, so repeat queries are common
    — the regime the batched engine API and its result reuse target.
    """
    rng = np.random.default_rng(seed)
    hot = query_points(dataset, n=n_hot, seed=seed)
    count = n if n is not None else SCALE.n_queries
    return hot[rng.integers(0, len(hot), size=count)]


def strategy_by_name(name: str, **kwargs) -> CSetStrategy:
    """``chooseCSet`` strategy factory keyed by the paper's names."""
    if name == "FS":
        return FixedSelection(k=kwargs.get("k", SCALE.default_k))
    if name == "IS":
        return IncrementalSelection(
            kpartition=kwargs.get("kpartition", SCALE.default_kpartition),
            kglobal=kwargs.get("kglobal", SCALE.default_kglobal),
        )
    if name == "ALL":
        from ..core import AllCSet

        return AllCSet()
    raise KeyError(f"unknown strategy {name!r}; expected FS, IS, or ALL")


def _octree_config() -> OctreeConfig:
    return OctreeConfig(memory_budget=SCALE.memory_budget)


def build_pv_bundle(
    dataset: UncertainDataset,
    strategy: CSetStrategy | None = None,
    delta: float | None = None,
    m_max: int | None = None,
) -> IndexBundle:
    """PV-index bundle: build, wire PNNQ engine, record build time."""
    # The first build of a process would otherwise time the compiler
    # run of the compiled loops (inside its first C-set choice).
    sekernel.load()
    pager = Pager(page_size=SCALE.page_size)
    index = PVIndex.build(
        dataset,
        strategy=strategy or IncrementalSelection(
            kpartition=SCALE.default_kpartition,
            kglobal=SCALE.default_kglobal,
        ),
        se_config=SEConfig(
            delta=delta if delta is not None else SCALE.default_delta,
            m_max=m_max if m_max is not None else SCALE.default_m_max,
        ),
        octree_config=_octree_config(),
        pager=pager,
    )
    engine = PNNQEngine(dataset, index, secondary=index.secondary)
    return IndexBundle(
        name="PV-index",
        index=index,
        engine=engine,
        pager=pager,
        build_seconds=index.stats.build_seconds,
    )


def build_rtree_bundle(dataset: UncertainDataset) -> IndexBundle:
    """R*-tree branch-and-prune baseline bundle."""
    pager = Pager(page_size=SCALE.page_size)
    from .instruments import Stopwatch

    watch = Stopwatch()
    with watch:
        index = RTreePNNQ.build(
            dataset, max_entries=SCALE.rtree_fanout, pager=pager
        )
    engine = PNNQEngine(dataset, index)
    return IndexBundle(
        name="R-tree",
        index=index,
        engine=engine,
        pager=pager,
        build_seconds=watch.seconds,
    )


def build_uv_bundle(
    dataset: UncertainDataset,
    k_cand: int | None = None,
    delta: float | None = None,
) -> IndexBundle:
    """UV-index baseline bundle (2D datasets only).

    ``k_cand`` / ``delta`` override the index defaults; the update
    sweeps use a small candidate set so incremental maintenance runs in
    the locality regime of the paper's Fig 10(h)/(i).
    """
    pager = Pager(page_size=SCALE.page_size)
    kwargs = {}
    if k_cand is not None:
        kwargs["k_cand"] = k_cand
    if delta is not None:
        kwargs["delta"] = delta
    index = UVIndex.build(
        dataset, pager=pager, octree_config=_octree_config(), **kwargs
    )
    engine = PNNQEngine(dataset, index)
    return IndexBundle(
        name="UV-index",
        index=index,
        engine=engine,
        pager=pager,
        build_seconds=index.build_seconds,
    )
