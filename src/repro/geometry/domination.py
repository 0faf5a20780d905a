"""Spatial domination and domination-count estimation.

This module implements the two pruning techniques from Emrich et al.
(SIGMOD 2010) that the paper uses in Step 9 of the SE algorithm
(Section V-B):

* **Spatial domination** — decide, for rectangles ``A``, ``B`` and a query
  region ``R``, whether *every* point ``r`` of ``R`` is strictly closer to
  every point of ``A`` than to every point of ``B``, i.e. whether
  ``R ⊆ dom(A, B)`` with ``dom`` as in Definition 3 of the paper.

* **Domination-count estimation** — decide whether a region ``R`` is
  entirely covered by the union of dominated regions ``dom(x, o)`` over a
  candidate set, i.e. whether ``R ∩ I(Cset, o) = ∅`` (Definition 5 /
  Lemma 3).  A single dominator often does not cover ``R`` even when the
  union does (Figure 6(b) in the paper), so ``R`` is adaptively partitioned
  and each partition is tested individually.

The domination decision is *exact* (not corner-sampling).  Writing

``f(r) = distmax(A, r)^2 - distmin(B, r)^2 = Σ_j g_j(r_j)``

each per-dimension term ``g_j`` is continuous piecewise with pieces that
are linear or convex quadratics (the ``r^2`` coefficients of the max- and
min-distance branches cancel to 0 or 1).  Both the maximum *and* the
minimum of such a function over a closed interval are attained at piece
boundaries or the convex piece's vertex, and the only such coordinates
are: the interval's two ends, the midpoint of ``A``'s extent (branch
switch of the farthest corner, also the convex vertex), and the two
bounds of ``B``'s extent (branch switches of the closest point).
Evaluating ``g_j`` at those five candidates therefore yields the exact
per-dimension extrema in O(1), and because the dimensions decouple over
a box,

``max_{r∈R} f(r) = Σ_j max g_j``   and   ``min_{r∈R} f(r) = Σ_j min g_j``.

The emptiness test exploits both directions:

* ``max f < 0`` for some candidate ⇒ the whole region is dominated;
* ``min f >= 0`` for a candidate ⇒ it dominates *no* point of the region
  and can be dropped before partitioning (a large constant-factor win —
  this is what keeps SE fast in Python);
* any sampled point of ``R`` dominated by *no* candidate is an exact
  witness that ``R`` intersects ``I(Cset, o)``.

:func:`intersects_nondominated_batch` runs the test for many
independent (region, C-set, object) rows at once — the form SE uses —
and :class:`DominationTester` is its one-region view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rect import Rect, corner_bits

__all__ = [
    "dominates",
    "dominates_batch",
    "max_domination_margin",
    "margin_bounds_batch",
    "margin_extrema",
    "compact_candidates",
    "intersects_nondominated_batch",
    "region_fully_dominated",
    "DominationTester",
    "DominationStats",
]


def _sum_dims(g: np.ndarray) -> np.ndarray:
    """``g.sum(axis=-1)`` for per-dimension terms, in the same order.

    numpy sums fewer than 8 terms strictly left to right, so explicit
    adds give bit-identical results without a reduction over a tiny
    axis.
    """
    d = g.shape[-1]
    if d >= 8 or d == 1:
        return g.sum(axis=-1)
    out = g[..., 0] + g[..., 1]
    for j in range(2, d):
        out += g[..., j]
    return out


def margin_extrema(
    a_lo: np.ndarray,
    a_hi: np.ndarray,
    b_lo: np.ndarray,
    b_hi: np.ndarray,
    r_lo: np.ndarray,
    r_hi: np.ndarray,
    want_min: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact per-candidate extrema of ``f(r)`` over the box ``R``.

    Inputs broadcast with the last axis indexing dimensions.  Returns
    ``(max_margins, min_margins)`` summed over dimensions; the minima are
    ``None`` unless ``want_min``.
    """
    a_mid = (a_lo + a_hi) * 0.5
    a_half = (a_hi - a_lo) * 0.5
    b_mid = (b_lo + b_hi) * 0.5
    b_half = (b_hi - b_lo) * 0.5

    # Five exact candidate coordinates per dimension (see module doc).
    # Four of them (R's bounds, B's bounds clipped into R) do not depend
    # on A, so their B-gap terms are computed once per region.  They are
    # stacked on a leading axis, which numpy reduces fastest.
    x = np.empty((4,) + np.broadcast(r_lo, b_lo).shape)  # (4, ..., d)
    x[0] = r_lo
    x[1] = r_hi
    np.minimum(np.maximum(b_lo, r_lo), r_hi, out=x[2])  # clip
    np.minimum(np.maximum(b_hi, r_lo), r_hi, out=x[3])
    gap = np.abs(x - b_mid)
    gap -= b_half
    np.maximum(gap, 0.0, out=gap)
    gap *= gap
    far = np.abs(x - a_mid)
    far += a_half
    g = far * far
    g -= gap  # (4, ..., d)
    # The fifth: A's midpoint clipped into R.
    x = np.minimum(np.maximum(a_mid, r_lo), r_hi)
    far = np.abs(x - a_mid)
    far += a_half
    gap = np.abs(x - b_mid)
    gap -= b_half
    np.maximum(gap, 0.0, out=gap)
    g_mid = far * far
    g_mid -= gap * gap
    top = g.max(axis=0)
    g_max = _sum_dims(np.maximum(top, g_mid, out=top))
    g_min = None
    if want_min:
        bottom = g.min(axis=0)
        g_min = _sum_dims(np.minimum(bottom, g_mid, out=bottom))
    return g_max, g_min


def max_domination_margin(a: Rect, b: Rect, region: Rect) -> float:
    """``max_{r in region} [distmax(a, r)^2 - distmin(b, r)^2]``, exactly.

    Negative iff ``region ⊆ dom(a, b)``.
    """
    g_max, _ = margin_extrema(
        a.lo, a.hi, b.lo, b.hi, region.lo, region.hi, want_min=False
    )
    return float(g_max)


def dominates(a: Rect, b: Rect, region: Rect) -> bool:
    """True iff every point of ``region`` lies in ``dom(a, b)``.

    I.e. for all ``r`` in ``region``: ``distmax(a, r) < distmin(b, r)``.
    Exact — no false positives and no false negatives.
    """
    return max_domination_margin(a, b, region) < 0.0


def dominates_batch(
    a_los: np.ndarray,
    a_his: np.ndarray,
    b: Rect,
    region: Rect,
) -> np.ndarray:
    """Vectorized :func:`dominates` for ``n`` candidate dominators.

    ``a_los`` / ``a_his`` are ``(n, d)`` packed corners; returns a
    boolean ``(n,)`` array, entry ``i`` True iff ``region ⊆ dom(A_i, b)``.
    """
    g_max, _ = margin_extrema(
        np.asarray(a_los, dtype=np.float64),
        np.asarray(a_his, dtype=np.float64),
        b.lo[None, :],
        b.hi[None, :],
        region.lo[None, :],
        region.hi[None, :],
        want_min=False,
    )
    return g_max < 0.0


def margin_bounds_batch(
    a_los: np.ndarray,
    a_his: np.ndarray,
    b: Rect,
    region: Rect,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(min, max)`` domination margins for ``n`` candidates.

    ``max[i] < 0``  ⇔ candidate ``i`` dominates all of ``region``;
    ``min[i] >= 0`` ⇔ candidate ``i`` dominates no point of ``region``.
    """
    g_max, g_min = margin_extrema(
        np.asarray(a_los, dtype=np.float64),
        np.asarray(a_his, dtype=np.float64),
        b.lo[None, :],
        b.hi[None, :],
        region.lo[None, :],
        region.hi[None, :],
        want_min=True,
    )
    assert g_min is not None
    return g_min, g_max


#: Verdict stages of :func:`intersects_nondominated_batch`, in the order
#: the test tries them.  Each region is settled by exactly one stage.
STAGE_NO_CANDIDATES = 0  # empty C-set: nothing dominates -> intersects
STAGE_ONE_DOMINATOR = 1  # a single candidate covers R -> empty
STAGE_NONE_ACTIVE = 2  # no candidate dominates any point -> intersects
STAGE_WITNESS = 3  # an undominated center/corner -> intersects
STAGE_NO_SPLIT = 4  # m_max == 1 and nothing settled it -> intersects
STAGE_PARTITIONED = 5  # the m_max-slice coverage test decided


def compact_candidates(
    mask: np.ndarray, a_lo: np.ndarray, a_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep only the padded ``(R, N, d)`` candidates where ``mask`` holds.

    Each row's kept candidates move to the front in their original
    order; returns ``(a_lo, a_hi, valid)`` narrowed to the largest
    surviving row count, ``valid`` marking the real entries.
    """
    counts = mask.sum(axis=1)
    n = int(counts.max()) if len(counts) else 0
    rows, cols = np.nonzero(mask)
    slot = np.cumsum(mask, axis=1)[rows, cols] - 1
    shape = (len(mask), n, a_lo.shape[2])
    out_lo = np.zeros(shape)
    out_hi = np.zeros(shape)
    out_lo[rows, slot] = a_lo[rows, cols]
    out_hi[rows, slot] = a_hi[rows, cols]
    return out_lo, out_hi, np.arange(n) < counts[:, None]


def _witnesses(r_lo: np.ndarray, r_hi: np.ndarray) -> np.ndarray:
    """``(R, W, d)`` witness points: each region's center, then corners.

    Corners are used up to ``d = 6``; beyond that only the center.
    """
    center = (r_lo + r_hi) / 2.0
    d = r_lo.shape[1]
    if d > 6:
        return center[:, None, :]
    corners = np.where(corner_bits(d), r_hi[:, None, :], r_lo[:, None, :])
    return np.concatenate((center[:, None, :], corners), axis=1)


def _any_point_undominated(
    points: np.ndarray,
    a_lo: np.ndarray,
    a_hi: np.ndarray,
    active: np.ndarray,
    b_lo: np.ndarray,
    b_hi: np.ndarray,
) -> np.ndarray:
    """Exact witness test per row: is some point dominated by *no* candidate?

    A pointwise membership check of ``I(Cset, b)`` (Lemma 4 direction):
    point ``p`` is in the non-dominated intersection iff every active
    candidate has ``distmax(a, p) >= distmin(b, p)``.  ``points`` is
    ``(R, W, d)``, candidates ``(R, n, d)`` with mask ``active``.
    """
    a_mid = (a_lo + a_hi) * 0.5
    a_half = (a_hi - a_lo) * 0.5
    far = np.abs(points[:, :, None, :] - a_mid[:, None, :, :])
    far += a_half[:, None, :, :]
    max_sq = np.einsum("rwnd,rwnd->rwn", far, far)
    gap = np.maximum(
        np.maximum(b_lo[:, None, :] - points, points - b_hi[:, None, :]),
        0.0,
    )
    min_sq = np.einsum("rwd,rwd->rw", gap, gap)
    dominated = ((max_sq < min_sq[:, :, None]) & active[:, None, :]).any(
        axis=2
    )
    return (~dominated).any(axis=1)


def _slice_regions(
    r_lo: np.ndarray, r_hi: np.ndarray, n_slices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform slabs of every region along its longest side.

    Returns ``(los, his)`` of shape ``(R, n_slices, d)``.  The slab
    edges follow :func:`numpy.linspace` arithmetic per region, so they
    are bit-identical to slicing one region at a time.
    """
    rows = np.arange(len(r_lo))
    dim = np.argmax(r_hi - r_lo, axis=1)
    start = r_lo[rows, dim][:, None]
    stop = r_hi[rows, dim][:, None]
    delta = stop - start
    step = delta / n_slices
    y = np.arange(n_slices + 1, dtype=np.float64)
    # numpy.linspace switches to (y / div) * delta when the step is 0.
    edges = np.where(step == 0, (y / n_slices) * delta, y * step) + start
    edges[:, -1] = stop[:, 0]
    los = np.repeat(r_lo[:, None, :], n_slices, axis=1)
    his = np.repeat(r_hi[:, None, :], n_slices, axis=1)
    los[rows, :, dim] = edges[:, :-1]
    his[rows, :, dim] = edges[:, 1:]
    return los, his


def intersects_nondominated_batch(
    r_lo: np.ndarray,
    r_hi: np.ndarray,
    a_lo: np.ndarray,
    a_hi: np.ndarray,
    valid: np.ndarray,
    b_lo: np.ndarray,
    b_hi: np.ndarray,
    m_max: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Conservative ``R ∩ I(Cset, o) ≠ ∅`` for ``R`` independent triples.

    Row ``i`` asks whether region ``[r_lo[i], r_hi[i]]`` meets the
    non-dominated intersection of its padded C-set ``a_lo[i], a_hi[i]``
    (``(R, N, d)``, entries where ``valid[i]`` is False are ignored)
    with respect to object region ``[b_lo[i], b_hi[i]]``.  Returns
    ``(intersects, stage)``: ``intersects`` is safe in one direction —
    ``False`` ("empty") is always correct, ``True`` can be a false alarm
    when ``m_max`` is too coarse — and ``stage`` names the ``STAGE_*``
    that settled each row.

    Every row goes through the same pipeline, and a later stage runs
    only on the rows the earlier ones left open: (1) exact min/max
    margins over the whole region settle the easy verdicts and shed
    candidates that cannot dominate any point of it; (2) exact pointwise
    witnesses at the region's center and corners; (3) a uniform
    partitioning into ``m_max`` slices along the region's longest side
    ([17]'s scheme), each tested against every remaining candidate.  The
    slices cut SE's long thin slabs crosswise, so each slice can be
    covered by the locally nearest dominator.
    """
    n_rows = len(r_lo)
    intersects = np.ones(n_rows, dtype=bool)
    stage = np.full(n_rows, STAGE_NO_CANDIDATES, dtype=np.int8)
    rows = np.flatnonzero(valid.any(axis=1))
    if not len(rows):
        return intersects, stage
    if len(rows) < n_rows:
        r_lo, r_hi = r_lo[rows], r_hi[rows]
        a_lo, a_hi, valid = a_lo[rows], a_hi[rows], valid[rows]
        b_lo, b_hi = b_lo[rows], b_hi[rows]

    maxs, mins = margin_extrema(
        a_lo, a_hi, b_lo[:, None, :], b_hi[:, None, :],
        r_lo[:, None, :], r_hi[:, None, :], want_min=True,
    )
    empty = (valid & (maxs < 0.0)).any(axis=1)
    active = valid & (mins < 0.0)
    open_ = ~empty & active.any(axis=1)
    intersects[rows[empty]] = False
    stage[rows[empty]] = STAGE_ONE_DOMINATOR
    stage[rows[~empty & ~open_]] = STAGE_NONE_ACTIVE
    if not open_.any():
        return intersects, stage

    # Only the undecided rows and their active candidates go on.
    rows = rows[open_]
    a_lo, a_hi, active = compact_candidates(
        active[open_], a_lo[open_], a_hi[open_]
    )
    r_lo, r_hi = r_lo[open_], r_hi[open_]
    b_lo, b_hi = b_lo[open_], b_hi[open_]

    witnessed = _any_point_undominated(
        _witnesses(r_lo, r_hi), a_lo, a_hi, active, b_lo, b_hi
    )
    stage[rows[witnessed]] = STAGE_WITNESS
    left = ~witnessed
    if not left.any():
        return intersects, stage
    if m_max == 1:
        stage[rows[left]] = STAGE_NO_SPLIT  # whole-region test failed
        return intersects, stage

    rows = rows[left]
    part_lo, part_hi = _slice_regions(r_lo[left], r_hi[left], m_max)
    margins, _ = margin_extrema(
        a_lo[left][:, None, :, :], a_hi[left][:, None, :, :],
        b_lo[left][:, None, None, :], b_hi[left][:, None, None, :],
        part_lo[:, :, None, :], part_hi[:, :, None, :], want_min=False,
    )  # (rows, m_max, n)
    covered = ((margins < 0.0) & active[left][:, None, :]).any(axis=2).all(
        axis=1
    )
    intersects[rows[covered]] = False
    stage[rows] = STAGE_PARTITIONED
    return intersects, stage


@dataclass
class DominationStats:
    """Counters describing the work done by a :class:`DominationTester`."""

    tests: int = 0
    partitions_examined: int = 0
    splits: int = 0
    fast_empty: int = 0
    fast_intersect: int = 0

    def reset(self) -> None:
        self.tests = 0
        self.partitions_examined = 0
        self.splits = 0
        self.fast_empty = 0
        self.fast_intersect = 0


@dataclass
class DominationTester:
    """Domination-count estimation with adaptive partitioning.

    Decides (conservatively) whether a region ``R`` intersects the
    non-dominated intersection ``I(Cset, o)``.  The answer is safe in one
    direction: ``False`` ("does not intersect") is always correct, while
    ``True`` ("may intersect") can be a false alarm when the partition
    budget ``m_max`` is too coarse.  In SE a false alarm only prevents a
    shrink, producing a looser — still conservative — UBR (Section V-B).

    A one-region view of :func:`intersects_nondominated_batch` (SE calls
    that directly, for many objects at once) that keeps per-stage
    counters.

    Parameters
    ----------
    m_max:
        Maximum number of partitions of ``R`` (Table I's ``m_max``,
        default 10).
    """

    m_max: int = 10
    stats: DominationStats = field(default_factory=DominationStats)

    def __post_init__(self) -> None:
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")

    def region_intersects_nondominated(
        self,
        region: Rect,
        cset_los: np.ndarray,
        cset_his: np.ndarray,
        obj_region: Rect,
    ) -> bool:
        """Conservative test for ``region ∩ I(Cset, o) ≠ ∅``."""
        a_lo = np.asarray(cset_los, dtype=np.float64).reshape(
            1, -1, region.dims
        )
        a_hi = np.asarray(cset_his, dtype=np.float64).reshape(a_lo.shape)
        hit, stage = intersects_nondominated_batch(
            region.lo[None, :], region.hi[None, :], a_lo, a_hi,
            np.ones(a_lo.shape[:2], dtype=bool),
            obj_region.lo[None, :], obj_region.hi[None, :], self.m_max,
        )
        s = int(stage[0])
        self.stats.tests += 1
        if s == STAGE_ONE_DOMINATOR:
            self.stats.fast_empty += 1
        elif s in (STAGE_NONE_ACTIVE, STAGE_WITNESS):
            self.stats.fast_intersect += 1
        elif s == STAGE_PARTITIONED:
            self.stats.partitions_examined += self.m_max
            self.stats.splits += self.m_max - 1
        return bool(hit[0])


def region_fully_dominated(
    region: Rect,
    cset_los: np.ndarray,
    cset_his: np.ndarray,
    obj_region: Rect,
    m_max: int = 10,
) -> bool:
    """Convenience wrapper: True iff ``region ∩ I(Cset, o) = ∅`` is proven.

    Equivalent to ``not DominationTester(m_max).region_intersects_...``.
    """
    tester = DominationTester(m_max=m_max)
    return not tester.region_intersects_nondominated(
        region, cset_los, cset_his, obj_region
    )
