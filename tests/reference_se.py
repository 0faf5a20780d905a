"""Pre-batching Shrink-and-Expand implementations, kept as test oracles.

These are the one-object-at-a-time SE loop, the scalar
``DominationTester`` emptiness test it called once per slab, and the
R*-tree-backed FS/IS C-set strategies that browsed a per-strategy tree
of object means.  They are retained verbatim (modulo imports, and an
epoch check replacing the index's old ``notify_*`` calls) so the
differential tests in ``tests/test_se_batch.py`` can pin the lockstep
batched SE and the numpy C-set ranking against the original code: same
UBRs, lower bounds, iteration counts and SE counters, bit for bit.

:class:`ReferenceShrinkExpand` has the ``compute_ubrs`` entry point that
:class:`~repro.core.PVIndex` calls, implemented as a serial loop, so a
PV-index can be built and maintained through it unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.cset import CSet, CSetStrategy
from repro.core.se import SEConfig, SEResult
from repro.geometry import Rect
from repro.rtree import RStarTree

__all__ = [
    "ReferenceDominationTester",
    "ReferenceShrinkExpand",
    "ReferenceSEStats",
    "RTreeFixedSelection",
    "RTreeIncrementalSelection",
]


# ----------------------------------------------------------------------
# Domination-count estimation, one region per call
# ----------------------------------------------------------------------
def _margin_extrema(a_lo, a_hi, b_lo, b_hi, r_lo, r_hi, want_min):
    a_mid = (a_lo + a_hi) * 0.5
    a_half = (a_hi - a_lo) * 0.5
    b_mid = (b_lo + b_hi) * 0.5
    b_half = (b_hi - b_lo) * 0.5
    zeros = np.zeros(np.broadcast_shapes(a_mid.shape, np.shape(r_lo)))
    x = np.stack(
        (
            r_lo + zeros,
            r_hi + zeros,
            np.clip(a_mid, r_lo, r_hi) + zeros,
            np.clip(b_lo, r_lo, r_hi) + zeros,
            np.clip(b_hi, r_lo, r_hi) + zeros,
        ),
        axis=-1,
    )
    far = np.abs(x - a_mid[..., None])
    far += a_half[..., None]
    gap = np.abs(x - b_mid[..., None])
    gap -= b_half[..., None]
    np.maximum(gap, 0.0, out=gap)
    g = far * far
    g -= gap * gap
    g_max = g.max(axis=-1).sum(axis=-1)
    g_min = g.min(axis=-1).sum(axis=-1) if want_min else None
    return g_max, g_min


def margin_bounds_batch(a_los, a_his, b, region):
    g_max, g_min = _margin_extrema(
        np.asarray(a_los, dtype=np.float64),
        np.asarray(a_his, dtype=np.float64),
        b.lo[None, :],
        b.hi[None, :],
        region.lo[None, :],
        region.hi[None, :],
        want_min=True,
    )
    return g_min, g_max


def _any_point_undominated(points, a_los, a_his, b):
    a_mid = (a_los + a_his) * 0.5
    a_half = (a_his - a_los) * 0.5
    far = np.abs(points[:, None, :] - a_mid[None, :, :])
    far += a_half[None, :, :]
    max_sq = np.einsum("knd,knd->kn", far, far)
    gap = np.maximum(np.maximum(b.lo - points, points - b.hi), 0.0)
    min_sq = np.einsum("kd,kd->k", gap, gap)
    dominated = (max_sq < min_sq[:, None]).any(axis=1)
    return bool((~dominated).any())


def _slice_region(region, n_slices):
    dim = int(np.argmax(region.side_lengths))
    edges = np.linspace(region.lo[dim], region.hi[dim], n_slices + 1)
    los = np.tile(region.lo, (n_slices, 1))
    his = np.tile(region.hi, (n_slices, 1))
    los[:, dim] = edges[:-1]
    his[:, dim] = edges[1:]
    return los, his


def _grid_covered(a_los, a_his, b, part_los, part_his):
    a_mid = ((a_los + a_his) * 0.5)[None, :, :, None]
    a_half = ((a_his - a_los) * 0.5)[None, :, :, None]
    b_mid = ((b.lo + b.hi) * 0.5)[None, None, :, None]
    b_half = ((b.hi - b.lo) * 0.5)[None, None, :, None]
    r_lo = part_los[:, None, :]
    r_hi = part_his[:, None, :]
    m, d = part_los.shape
    n = len(a_los)
    x = np.empty((m, n, d, 5))
    x[..., 0] = r_lo
    x[..., 1] = r_hi
    x[..., 2] = np.clip((a_los + a_his) * 0.5, r_lo, r_hi)
    x[..., 3] = np.clip(b.lo, r_lo, r_hi)
    x[..., 4] = np.clip(b.hi, r_lo, r_hi)
    far = np.abs(x - a_mid)
    far += a_half
    gap = np.abs(x - b_mid)
    gap -= b_half
    np.maximum(gap, 0.0, out=gap)
    g = far * far
    g -= gap * gap
    margins = g.max(axis=-1).sum(axis=-1)
    return bool((margins < 0.0).any(axis=1).all())


@dataclass
class ReferenceDominationTester:
    """The scalar emptiness test: one region, one C-set per call."""

    m_max: int = 10
    tests: int = 0

    def region_intersects_nondominated(
        self, region, cset_los, cset_his, obj_region
    ):
        self.tests += 1
        if len(cset_los) == 0:
            return True
        mins, maxs = margin_bounds_batch(
            cset_los, cset_his, obj_region, region
        )
        if bool((maxs < 0.0).any()):
            return False
        active = mins < 0.0
        if not bool(active.any()):
            return True
        act_los = cset_los[active]
        act_his = cset_his[active]
        if region.dims <= 6:
            witnesses = np.vstack(
                [region.center[None, :], region.corners()]
            )
        else:
            witnesses = region.center[None, :]
        if _any_point_undominated(witnesses, act_los, act_his, obj_region):
            return True
        if self.m_max == 1:
            return True
        part_los, part_his = _slice_region(region, self.m_max)
        covered = _grid_covered(
            act_los, act_his, obj_region, part_los, part_his
        )
        return not covered


# ----------------------------------------------------------------------
# R*-tree-backed C-set strategies
# ----------------------------------------------------------------------
class _RTreeBackedStrategy(CSetStrategy):
    """An R*-tree over object means, kept in step with the dataset.

    The tree is synchronised by dataset identity and epoch: a mutation
    inserts/deletes the changed means, exactly the upkeep the index's
    ``notify_insert``/``notify_delete`` calls used to do.
    """

    def __init__(self) -> None:
        self._tree: RStarTree | None = None
        self._dataset_token: int | None = None
        self._epoch: int | None = None
        self._means: dict[int, np.ndarray] = {}

    def bind(self, dataset) -> None:
        if self._tree is None or self._dataset_token != id(dataset):
            self._tree = RStarTree(dims=dataset.dims, max_entries=32)
            self._means = {}
            self._dataset_token = id(dataset)
            self._epoch = None
        if self._epoch == dataset.epoch:
            return
        live = set(dataset.ids)
        for oid in [o for o in self._means if o not in live]:
            self._tree.delete(oid, Rect.from_point(self._means.pop(oid)))
        for o in dataset:
            if o.oid not in self._means:
                self._means[o.oid] = o.mean
                self._tree.insert(o.oid, Rect.from_point(o.mean))
        self._epoch = dataset.epoch

    def _ensure_tree(self, dataset) -> RStarTree:
        self.bind(dataset)
        assert self._tree is not None
        return self._tree


class RTreeFixedSelection(_RTreeBackedStrategy):
    """FS by R*-tree k-NN over means."""

    name = "FS"

    def __init__(self, k: int = 200) -> None:
        super().__init__()
        self.k = k

    def choose(self, obj, dataset) -> CSet:
        tree = self._ensure_tree(dataset)
        hits = tree.knn(obj.mean, self.k, skip=lambda e: e.key == obj.oid)
        if not hits:
            return CSet.empty(dataset.dims)
        return CSet.from_objects([dataset[e.key] for _, e in hits])


class RTreeIncrementalSelection(_RTreeBackedStrategy):
    """IS by R*-tree distance browsing over means."""

    name = "IS"

    def __init__(self, kpartition: int = 10, kglobal: int = 200) -> None:
        super().__init__()
        self.kpartition = kpartition
        self.kglobal = kglobal

    def browse(self, obj, dataset) -> list[int]:
        """Ids in the tree's distance-browsing order (excluding ``obj``)."""
        tree = self._ensure_tree(dataset)
        return [
            e.key
            for _, e in tree.nearest_iter(
                obj.mean, skip=lambda e: e.key == obj.oid
            )
        ]

    def choose(self, obj, dataset) -> CSet:
        tree = self._ensure_tree(dataset)
        d = dataset.dims
        counters = np.zeros(1 << d, dtype=np.int64)
        mean = obj.mean
        selected = []
        examined = 0
        for _, entry in tree.nearest_iter(
            mean, skip=lambda e: e.key == obj.oid
        ):
            if examined >= self.kglobal:
                break
            examined += 1
            cand = dataset[entry.key]
            if cand.region.intersects(obj.region):
                continue
            parts = self._touched_partitions(cand, mean, d)
            counters[parts] += 1
            selected.append(cand)
            if np.all(counters >= self.kpartition):
                break
        if not selected:
            return CSet.empty(d)
        return CSet.from_objects(selected)

    @staticmethod
    def _touched_partitions(cand, mean, d):
        lo_side = cand.region.lo < mean
        hi_side = cand.region.hi >= mean
        parts = [0]
        for j in range(d):
            nxt = []
            if lo_side[j]:
                nxt.extend(parts)
            if hi_side[j]:
                nxt.extend(p | (1 << j) for p in parts)
            parts = nxt
        return parts


# ----------------------------------------------------------------------
# The serial SE loop
# ----------------------------------------------------------------------
@dataclass
class ReferenceSEStats:
    """The SE counters, with the original per-run C-set size list."""

    choose_cset_seconds: float = 0.0
    ubr_seconds: float = 0.0
    runs: int = 0
    iterations: int = 0
    emptiness_tests: int = 0
    shrinks: int = 0
    expands: int = 0
    cset_sizes: list[int] = field(default_factory=list)

    @property
    def mean_cset_size(self) -> float:
        if not self.cset_sizes:
            return 0.0
        return float(np.mean(self.cset_sizes))


class ReferenceShrinkExpand:
    """Algorithm 1, one object at a time."""

    def __init__(self, strategy=None, config=None) -> None:
        self.strategy = strategy or RTreeIncrementalSelection()
        self.config = config or SEConfig()
        self.stats = ReferenceSEStats()

    def compute_ubrs(self, objs, dataset, lowers=None, uppers=None):
        """Serial stand-in for the batched entry point PVIndex calls."""
        out = []
        for i, obj in enumerate(objs):
            lower = obj.region if lowers is None else lowers[i]
            upper = dataset.domain if uppers is None else uppers[i]
            out.append(self._run(obj, dataset, lower, upper))
        return out

    def compute_ubr(self, obj, dataset) -> SEResult:
        return self._run(obj, dataset, obj.region, dataset.domain)

    def recompute_after_deletion(self, obj, dataset, old_ubr) -> SEResult:
        return self._run(obj, dataset, old_ubr, dataset.domain)

    def recompute_after_insertion(self, obj, dataset, old_ubr) -> SEResult:
        return self._run(obj, dataset, obj.region, old_ubr)

    def _run(self, obj, dataset, lower, upper) -> SEResult:
        t0 = time.perf_counter()
        cset = self.strategy.choose(obj, dataset)
        t1 = time.perf_counter()
        result = self.refine(obj, cset, dataset.domain, lower, upper)
        t2 = time.perf_counter()
        self.stats.choose_cset_seconds += t1 - t0
        self.stats.ubr_seconds += t2 - t1
        self.stats.runs += 1
        self.stats.cset_sizes.append(len(cset))
        return result

    def refine(self, obj, cset, domain, lower, upper) -> SEResult:
        if not upper.contains_rect(lower):
            lower = upper.intersection(lower) or Rect(
                np.clip(lower.lo, upper.lo, upper.hi),
                np.clip(lower.hi, upper.lo, upper.hi),
            )
        tester = ReferenceDominationTester(m_max=self.config.m_max)
        h_lo = upper.lo.copy()
        h_hi = upper.hi.copy()
        l_lo = lower.lo.copy()
        l_hi = lower.hi.copy()
        d = domain.dims
        delta = self.config.delta
        iterations = 0
        act_los = cset.los
        act_his = cset.his

        def gap() -> float:
            return float(max(np.max(l_lo - h_lo), np.max(h_hi - l_hi)))

        while gap() >= delta and gap() > 0:
            iterations += 1
            if len(act_los):
                mins, _ = margin_bounds_batch(
                    act_los, act_his, obj.region, Rect(h_lo, h_hi)
                )
                live = mins < 0.0
                if not live.all():
                    act_los = act_los[live]
                    act_his = act_his[live]
            for j in range(d):
                if l_lo[j] - h_lo[j] >= delta:
                    mid = (h_lo[j] + l_lo[j]) / 2.0
                    slab_lo = h_lo.copy()
                    slab_hi = h_hi.copy()
                    slab_hi[j] = mid
                    if not tester.region_intersects_nondominated(
                        Rect(slab_lo, slab_hi), act_los, act_his,
                        obj.region,
                    ):
                        h_lo[j] = mid
                        self.stats.shrinks += 1
                    else:
                        l_lo[j] = mid
                        self.stats.expands += 1
                if h_hi[j] - l_hi[j] >= delta:
                    mid = (h_hi[j] + l_hi[j]) / 2.0
                    slab_lo = h_lo.copy()
                    slab_hi = h_hi.copy()
                    slab_lo[j] = mid
                    if not tester.region_intersects_nondominated(
                        Rect(slab_lo, slab_hi), act_los, act_his,
                        obj.region,
                    ):
                        h_hi[j] = mid
                        self.stats.shrinks += 1
                    else:
                        l_hi[j] = mid
                        self.stats.expands += 1
        self.stats.iterations += iterations
        self.stats.emptiness_tests += tester.tests
        return SEResult(
            ubr=Rect(h_lo, h_hi),
            lower=Rect(l_lo, l_hi),
            iterations=iterations,
            cset_size=len(cset),
        )
