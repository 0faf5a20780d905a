"""Paper parameters (Table I) and the bench-scale mapping.

Two dataclasses:

* :class:`PaperDefaults` — the exact values of Table I of the paper, for
  reference.
* :class:`BenchScale` — the values the benchmarks actually run at.  The
  paper's C++ implementation handles |S| up to 100k objects with 500 pdf
  samples each; pure Python is two orders of magnitude slower on
  pointer-chasing index code, so default sweep sizes are scaled down
  ~100x while keeping every *shape-defining* parameter (dimensionality,
  domain size, uncertainty-region sizes, Δ, m_max, C-set parameters)
  identical.  All drivers accept overrides, so the harness can be run at
  paper scale given enough patience.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PaperDefaults", "BenchScale", "PAPER", "SCALE"]


@dataclass(frozen=True)
class PaperDefaults:
    """Table I of the paper: parameters and their default values."""

    #: database sizes swept in the synthetic experiments (default 60k)
    sizes: tuple[int, ...] = (20_000, 40_000, 60_000, 80_000, 100_000)
    default_size: int = 60_000
    #: dimensionalities swept (default 3)
    dims: tuple[int, ...] = (2, 3, 4, 5)
    default_dims: int = 3
    #: max uncertainty-region side lengths swept (default 60)
    u_maxes: tuple[float, ...] = (20.0, 40.0, 60.0, 80.0, 100.0)
    default_u_max: float = 60.0
    #: SE convergence thresholds swept (default 1)
    deltas: tuple[float, ...] = (0.1, 0.5, 1.0, 10.0, 100.0, 1000.0)
    default_delta: float = 1.0
    #: domination-count partition budgets swept (default 10)
    m_maxes: tuple[int, ...] = (2, 3, 4, 5, 10, 20, 40)
    default_m_max: int = 10
    #: FS candidate-set sizes swept (default 200)
    ks: tuple[int, ...] = (20, 40, 100, 200, 400)
    default_k: int = 200
    #: IS per-partition counters swept (default 10)
    kpartitions: tuple[int, ...] = (2, 5, 10, 20, 50)
    default_kpartition: int = 10
    #: IS global NN cutoff (fixed at 200)
    default_kglobal: int = 200
    #: pdf discretization (instances per object)
    n_samples: int = 500
    #: domain extent per dimension ([0, 10k]^d)
    domain_size: float = 10_000.0
    #: real dataset sizes: roads / rrlines / airports
    real_sizes: dict[str, int] = field(
        default_factory=lambda: {
            "roads": 30_000,
            "rrlines": 36_000,
            "airports": 20_000,
        }
    )
    #: R-tree fanout, main-memory budget, page size
    rtree_fanout: int = 100
    memory_budget: int = 5 * 1024 * 1024
    page_size: int = 4096


@dataclass(frozen=True)
class BenchScale:
    """Default scale the shipped benchmarks run at (see module docs).

    Every field mirrors a :class:`PaperDefaults` field; values that do
    not influence the *shape* of the curves (dimensions, u_max, Δ,
    m_max, k, kpartition) are unchanged from the paper.
    """

    sizes: tuple[int, ...] = (200, 400, 600, 800, 1_000)
    default_size: int = 600
    dims: tuple[int, ...] = (2, 3, 4, 5)
    default_dims: int = 3
    u_maxes: tuple[float, ...] = (20.0, 40.0, 60.0, 80.0, 100.0)
    default_u_max: float = 60.0
    deltas: tuple[float, ...] = (0.1, 0.5, 1.0, 10.0, 100.0, 1000.0)
    default_delta: float = 1.0
    m_maxes: tuple[int, ...] = (2, 3, 4, 5, 10, 20, 40)
    default_m_max: int = 10
    ks: tuple[int, ...] = (20, 40, 100, 200, 400)
    default_k: int = 200
    kpartitions: tuple[int, ...] = (2, 5, 10, 20, 50)
    default_kpartition: int = 10
    default_kglobal: int = 200
    #: pdf discretization, scaled 5x down (Step 2 is O(samples^2)-ish)
    n_samples: int = 100
    domain_size: float = 10_000.0
    #: simulated real datasets, scaled 10x down
    real_sizes: dict[str, int] = field(
        default_factory=lambda: {
            "roads": 1_500,
            "rrlines": 1_800,
            "airports": 1_000,
        }
    )
    rtree_fanout: int = 100
    #: memory budget scaled with |S| so octree depth behaves like the
    #: paper's (5 MB over 100k objects ≈ 52 B/object; keep the ratio).
    memory_budget: int = 64 * 1024
    page_size: int = 4096
    #: queries averaged per data point (paper: 50)
    n_queries: int = 20
    #: sizes used where the ALL strategy appears (it is O(|S|²) overall)
    all_sizes: tuple[int, ...] = (50, 100, 150, 200)
    #: update batch: the paper removes/re-inserts 1k of 20k (5%)
    update_fraction: float = 0.05


PAPER = PaperDefaults()
SCALE = BenchScale()
