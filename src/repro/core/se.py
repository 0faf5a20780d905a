"""The Shrink-and-Expand (SE) algorithm — Algorithm 1 of the paper.

SE computes the UBR ``B(o)`` of a PV-cell without ever materializing the
cell.  It keeps two rectangles sandwiching the cell's MBR ``M(o)``:

* ``l(o)`` — contained in ``M(o)``; initialized to ``u(o)`` (valid by
  Lemma 5: ``u(o) ⊆ V(o) ⊆ M(o)``);
* ``h(o)`` — containing ``M(o)``; initialized to the domain ``D``.

Each iteration sweeps every (dimension, direction) pair.  For direction
``ρ`` of dimension ``j`` it places the plane ``i^ρ_j`` midway between the
corresponding faces of ``h(o)`` and ``l(o)``, forms the slab ``R^ρ_j``
between ``i^ρ_j`` and ``h(o)``'s face, and asks whether the slab can
touch ``I(Cset(o), o) ⊇ V(o)``:

* provably not → *shrink*: ``h(o)``'s face moves to ``i^ρ_j``;
* possibly    → *expand*: ``l(o)``'s face moves to ``i^ρ_j``.

The per-direction gap halves every sweep, so
``log2(|D|_max / Δ) · 2d`` emptiness tests suffice (Section V,
Discussions).  The emptiness test is the domination-count estimation of
:mod:`repro.geometry.domination`; a conservative "may touch" answer can
only inflate the final UBR, never make it miss part of the cell.

The incremental variants of Section VI-B reuse the same loop with warm
starts (the ``lowers`` / ``uppers`` of :meth:`ShrinkExpand.compute_ubrs`):
after a *deletion* the cell can only grow (Lemma 9), so the old UBR
becomes the new lower bound ``l(o)``; after an *insertion* the cell can
only shrink, so the old UBR becomes the new upper bound ``h(o)``.

Objects are independent, so :meth:`ShrinkExpand.compute_ubrs` chooses
the C-sets of a block of objects in one
:meth:`~repro.core.cset.CSetStrategy.choose_many` call (FS and IS run
the compiled selection, ``cset_kernel.c``), and
:meth:`ShrinkExpand.refine_many` packs many objects into padded
``(objects, C-set, d)`` tensors and hands the whole batch to one row
loop.  There are two row loops, with identical results:

* **The compiled loop** (``se_kernel.c``, built and loaded by
  :mod:`repro.core.sekernel`) runs every row to its stopping point in
  one C call: the per-sweep cull of candidates that dominate no point
  of ``h(o)``, then each (dimension, direction) step with the staged
  emptiness test (whole-region margins, center/corner witnesses,
  ``m_max`` slices along the longest side).  It is bit-identical to the
  numpy loop because it performs the same IEEE operations in the same
  order: ``mid = (h + l) / 2.0``, ``a_mid = (lo + hi) * 0.5``, margins
  summed over d left to right as ``_sum_dims`` does (numpy's pairwise
  sum from d = 8), witness distances in the two-lane order of numpy's
  float64 ``einsum``, ``linspace``'s slice edges including its
  ``step == 0`` branch, and the first longest side; it is compiled with
  ``-O2 -fno-fast-math -ffp-contract=off`` and no ``-march``.
* **The numpy loop** (:func:`refine_rows_numpy`) runs the rows in
  lockstep, one batched emptiness test per step over the rows still
  running.  It is the fallback and the compiled loop's test oracle.

The compiled loop is built on the first SE or Step-2 call of each
process (about 0.3-0.6 s of gcc, once, in one library with the C-set
selection and the Step-2 walk: the three compiled loops) into a
temporary directory that is removed right after loading.  When that
fails (no compiler, ``CC`` naming one that fails, an unwritable
temporary directory, a ``noexec`` mount), SE runs the numpy loop and
the numpy C-set selection; :func:`kernel_name` and
``Database.describe()["kernel"]`` say which ones are in use, for all
three loops.  Either way every object's C-set and sequence of
decisions are exactly the one-object loop's, so the UBRs are too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..geometry import Rect
from ..geometry.domination import (
    compact_candidates,
    intersects_nondominated_batch,
    margin_extrema,
)
from ..uncertain import UncertainDataset, UncertainObject
from . import sekernel
from .cset import CSet, CSetStrategy, IncrementalSelection

__all__ = [
    "SEConfig",
    "SEStats",
    "SEResult",
    "ShrinkExpand",
    "kernel_name",
    "refine_rows_numpy",
]

#: Upper bound on the elements of the largest temporary of one lockstep
#: batch (about 2 MB of float64).  Objects are batched until
#: ``rows x C-set size x per-candidate elements`` would exceed it, which
#: keeps a whole-dataset build from materialising every C-set's
#: partition grid at once.
CHUNK_ELEMENTS = 1 << 18

#: Objects whose C-sets one ``choose_many`` call picks.  A write's
#: affected set is one block; a whole-dataset build is many, so it
#: never holds every C-set at once.
SELECT_BLOCK = 256


def refine_rows_numpy(
    b_lo: np.ndarray,
    b_hi: np.ndarray,
    h_lo: np.ndarray,
    h_hi: np.ndarray,
    l_lo: np.ndarray,
    l_hi: np.ndarray,
    a_lo: np.ndarray,
    a_hi: np.ndarray,
    valid: np.ndarray,
    delta: float,
    m_max: int,
) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Algorithm 1 for every row of the packed tensors, in lockstep.

    Row ``i`` refines object region ``[b_lo[i], b_hi[i]]`` with upper
    bound ``h`` and lower bound ``l`` (``(K, d)``, updated in place to
    the final bounds) against its padded C-set ``a_lo[i], a_hi[i]``
    (``(K, N, d)``, real entries where ``valid[i]``).  Returns each
    row's sweep count and the totals of emptiness tests, shrinks and
    expands.  The compiled loop (:func:`repro.core.sekernel.refine_rows`)
    computes exactly the same; this is its fallback and its oracle.
    """
    k, d = b_lo.shape
    out_h_lo, out_h_hi, out_l_lo, out_l_hi = h_lo, h_hi, l_lo, l_hi
    iterations = np.zeros(k, dtype=np.int64)
    rows = np.arange(k)  # the original index of each running row
    tests = shrinks = expands = 0

    while len(rows):
        gap = np.maximum(
            (l_lo - h_lo).max(axis=1), (h_hi - l_hi).max(axis=1)
        )
        go = (gap >= delta) & (gap > 0)
        if not go.all():
            done = rows[~go]
            out_h_lo[done] = h_lo[~go]
            out_h_hi[done] = h_hi[~go]
            out_l_lo[done] = l_lo[~go]
            out_l_hi[done] = l_hi[~go]
            if not go.any():
                break
            rows = rows[go]
            h_lo, h_hi, l_lo, l_hi = h_lo[go], h_hi[go], l_lo[go], l_hi[go]
            b_lo, b_hi = b_lo[go], b_hi[go]
            a_lo, a_hi, valid = a_lo[go], a_hi[go], valid[go]
        iterations[rows] += 1

        _, mins = margin_extrema(
            a_lo, a_hi, b_lo[:, None, :], b_hi[:, None, :],
            h_lo[:, None, :], h_hi[:, None, :], want_min=True,
        )
        live = valid & (mins < 0.0)
        if (live != valid).any():
            a_lo, a_hi, valid = compact_candidates(live, a_lo, a_hi)

        for j in range(d):
            for low in (True, False):
                if low:
                    need = l_lo[:, j] - h_lo[:, j] >= delta
                    mid = (h_lo[:, j] + l_lo[:, j]) / 2.0
                else:
                    need = h_hi[:, j] - l_hi[:, j] >= delta
                    mid = (h_hi[:, j] + l_hi[:, j]) / 2.0
                sel = np.flatnonzero(need)
                if not len(sel):
                    continue
                # The slab between the plane and h(o)'s face.
                slab_lo, slab_hi = h_lo[sel], h_hi[sel]
                (slab_hi if low else slab_lo)[:, j] = mid[sel]
                hit, _ = intersects_nondominated_batch(
                    slab_lo, slab_hi, a_lo[sel], a_hi[sel], valid[sel],
                    b_lo[sel], b_hi[sel], m_max,
                )
                shrink, expand = sel[~hit], sel[hit]
                if low:
                    h_lo[shrink, j] = mid[shrink]
                    l_lo[expand, j] = mid[expand]
                else:
                    h_hi[shrink, j] = mid[shrink]
                    l_hi[expand, j] = mid[expand]
                tests += len(sel)
                shrinks += len(shrink)
                expands += len(expand)
    return iterations, (tests, shrinks, expands)


#: The two implementations of the row loop, by :func:`kernel_name`.
ROW_KERNELS = {"c": sekernel.refine_rows, "numpy": refine_rows_numpy}


#: Which row loop SE runs (:func:`repro.core.sekernel.kernel_name`);
#: a module global so tests can pin SE to one loop.
kernel_name = sekernel.kernel_name


@dataclass(frozen=True)
class SEConfig:
    """Tuning parameters of the SE algorithm.

    Parameters
    ----------
    delta:
        Convergence threshold Δ: iteration stops once the maximum
        per-dimension distance between ``h(o)`` and ``l(o)`` drops below
        it (Table I default 1).
    m_max:
        Partition budget of the domination-count estimation (Table I
        default 10).
    """

    delta: float = 1.0
    m_max: int = 10

    def __post_init__(self) -> None:
        # Δ must be positive: at 0 the stop rule waits for ``h == l``,
        # which bisection cannot reach once they are adjacent floats.
        if not self.delta > 0:
            raise ValueError("delta must be > 0")
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")


@dataclass
class SEStats:
    """Accumulated cost counters across SE runs (Figure 10(e) split).

    ``runs`` counts C-set choices (one per object SE is run for) and
    ``cset_size_total`` sums their sizes, so the mean C-set size is
    kept in constant space on a long-lived index.
    """

    choose_cset_seconds: float = 0.0
    ubr_seconds: float = 0.0
    runs: int = 0
    iterations: int = 0
    emptiness_tests: int = 0
    shrinks: int = 0
    expands: int = 0
    cset_size_total: int = 0

    def reset(self) -> None:
        self.choose_cset_seconds = 0.0
        self.ubr_seconds = 0.0
        self.runs = 0
        self.iterations = 0
        self.emptiness_tests = 0
        self.shrinks = 0
        self.expands = 0
        self.cset_size_total = 0

    @property
    def mean_cset_size(self) -> float:
        """Average candidate-set size over all runs."""
        if not self.runs:
            return 0.0
        return self.cset_size_total / self.runs


@dataclass(frozen=True)
class SEResult:
    """Outcome of one SE run."""

    ubr: Rect
    lower: Rect
    iterations: int
    cset_size: int


class ShrinkExpand:
    """Computes UBRs via the SE algorithm.

    Many objects are refined in lockstep (:meth:`refine_many`): every
    object keeps its own sandwich, C-set and stopping point, and each
    (dimension, direction) step asks one batched emptiness test for all
    objects still running.  The single-object methods are batches of
    one.

    Parameters
    ----------
    strategy:
        The ``chooseCSet`` implementation (defaults to IS with Table I
        parameters).
    config:
        Δ and partition budget.
    """

    def __init__(
        self,
        strategy: CSetStrategy | None = None,
        config: SEConfig | None = None,
    ) -> None:
        self.strategy = strategy or IncrementalSelection()
        self.config = config or SEConfig()
        self.stats = SEStats()

    # ------------------------------------------------------------------
    def compute_ubrs(
        self,
        objs: Sequence[UncertainObject],
        dataset: UncertainDataset,
        lowers: Sequence[Rect] | None = None,
        uppers: Sequence[Rect] | None = None,
    ) -> list[SEResult]:
        """Run SE for every object of ``objs`` against ``dataset``.

        ``lowers`` / ``uppers`` are the warm starts (default ``u(o)`` and
        the domain ``D``; see :meth:`refine_many`): after a deletion
        the old UBRs are the lower bounds, after an insertion the upper
        bounds (Lemma 9).  C-sets are chosen :data:`SELECT_BLOCK`
        objects per ``choose_many`` call, and objects are refined in
        lockstep batches bounded by :data:`CHUNK_ELEMENTS`.
        """
        d = dataset.dims
        per_cand = d * max(5 * self.config.m_max, (1 << d) + 1)
        if lowers is None:
            lowers = [o.region for o in objs]
        if uppers is None:
            uppers = [dataset.domain] * len(objs)
        results: list[SEResult] = []

        def refine(lo: int, hi: int, csets: list[CSet]) -> None:
            t0 = time.perf_counter()
            results.extend(
                self.refine_many(
                    objs[lo:hi], csets, lowers[lo:hi], uppers[lo:hi]
                )
            )
            self.stats.ubr_seconds += time.perf_counter() - t0

        first, csets, widest = 0, [], 1
        for block in range(0, len(objs), SELECT_BLOCK):
            t0 = time.perf_counter()
            chosen = self.strategy.choose_many(
                objs[block:block + SELECT_BLOCK], dataset
            )
            self.stats.choose_cset_seconds += time.perf_counter() - t0
            self.stats.runs += len(chosen)
            for cset in chosen:
                self.stats.cset_size_total += len(cset)
                widest = max(widest, len(cset))
                if (csets and (len(csets) + 1) * widest * per_cand
                        > CHUNK_ELEMENTS):
                    refine(first, first + len(csets), csets)
                    first, csets, widest = (
                        first + len(csets), [], max(1, len(cset))
                    )
                csets.append(cset)
        if csets:
            refine(first, len(objs), csets)
        return results

    def compute_ubr(
        self, obj: UncertainObject, dataset: UncertainDataset
    ) -> SEResult:
        """Run SE for ``obj`` against ``dataset`` (Algorithm 1)."""
        return self.compute_ubrs([obj], dataset)[0]

    def refine(
        self,
        obj: UncertainObject,
        cset: CSet,
        domain: Rect,
        lower: Rect,
        upper: Rect,
    ) -> SEResult:
        """The shrink/expand loop for one object (see :meth:`refine_many`).

        ``domain`` is Algorithm 1's ``D``; the bounds already lie in it.
        """
        return self.refine_many([obj], [cset], [lower], [upper])[0]

    def refine_many(
        self,
        objs: Sequence[UncertainObject],
        csets: Sequence[CSet],
        lowers: Sequence[Rect],
        uppers: Sequence[Rect],
    ) -> list[SEResult]:
        """The shrink/expand loop for many objects at once, in lockstep.

        ``lowers[i]`` must be contained in object ``i``'s cell MBR and
        ``uppers[i]`` must contain it; the standard run uses ``u(o)``
        and ``D``, the incremental variants pass old UBRs (Section VI-B,
        Step 3).  A stale lower bound poking out of its upper bound
        (e.g. an old UBR marginally tighter than the new bound) is
        clipped into it, which is the intersection whenever they
        overlap.

        Each object's computation is exactly the one-object loop: rows
        stop independently, each sweep first culls the candidates whose
        dominated region misses the row's current ``h(o)`` (they can
        never prove a future slab empty, since slabs only shrink with
        ``h``), and each (dimension, direction) step tests only the rows
        whose gap there is still at least Δ.
        """
        k = len(objs)
        if k == 0:
            return []
        d = objs[0].region.dims
        b_lo = np.array([o.region.lo for o in objs], dtype=np.float64)
        b_hi = np.array([o.region.hi for o in objs], dtype=np.float64)
        h_lo = np.array([u.lo for u in uppers], dtype=np.float64)
        h_hi = np.array([u.hi for u in uppers], dtype=np.float64)
        l_lo = np.clip(np.array([lw.lo for lw in lowers]), h_lo, h_hi)
        l_hi = np.clip(np.array([lw.hi for lw in lowers]), h_lo, h_hi)
        sizes = np.array([len(c) for c in csets])
        n = int(sizes.max())
        a_lo = np.zeros((k, n, d))
        a_hi = np.zeros((k, n, d))
        for i, c in enumerate(csets):
            a_lo[i, : len(c)] = c.los
            a_hi[i, : len(c)] = c.his
        valid = np.arange(n) < sizes[:, None]

        refine_rows = ROW_KERNELS[kernel_name()]
        iterations, (tests, shrinks, expands) = refine_rows(
            b_lo, b_hi, h_lo, h_hi, l_lo, l_hi, a_lo, a_hi, valid,
            self.config.delta, self.config.m_max,
        )
        self.stats.iterations += int(iterations.sum())
        self.stats.emptiness_tests += tests
        self.stats.shrinks += shrinks
        self.stats.expands += expands
        return [
            SEResult(
                ubr=Rect(h_lo[i], h_hi[i]),
                lower=Rect(l_lo[i], l_hi[i]),
                iterations=int(iterations[i]),
                cset_size=len(csets[i]),
            )
            for i in range(k)
        ]
