"""C-set selection strategies (the ``chooseCSet`` routine, Section V-A).

SE bounds the PV-cell by the non-dominated intersection of a *candidate
set* ``Cset(o) ⊆ S`` (Definition 8).  By Lemma 7, any non-empty subset of
``S \\ {o}`` is valid — correctness never depends on the choice — but the
tightness of the resulting UBR and the cost of every domination test do.
Three strategies from the paper:

* :class:`AllCSet` — returns the whole database ("ALL" in Figure 10(b));
  tightest possible bound, prohibitively slow.
* :class:`FixedSelection` (FS) — the ``k`` objects with nearest mean
  positions.
* :class:`IncrementalSelection` (IS) — examines nearest neighbors of
  ``o`` in distance order, skips objects whose uncertainty regions
  overlap ``u(o)`` (their ``dom`` is empty by Lemma 2, so they cannot
  shrink anything), and spreads the selection
  over the ``2^d`` quadrants around ``o``'s mean until each quadrant has
  ``kpartition`` members or ``kglobal`` neighbors were scanned.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..geometry import corner_bits, mindist_sq_point_rects
from ..uncertain import UncertainDataset, UncertainObject

__all__ = [
    "CSet",
    "CSetStrategy",
    "AllCSet",
    "FixedSelection",
    "IncrementalSelection",
]


@dataclass(frozen=True)
class CSet:
    """A packed candidate set: ids plus corner arrays for vectorization."""

    ids: np.ndarray  # (n,) int64
    los: np.ndarray  # (n, d)
    his: np.ndarray  # (n, d)

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def empty(cls, dims: int) -> "CSet":
        """A candidate set with no members in ``dims`` dimensions."""
        return cls(
            ids=np.empty(0, dtype=np.int64),
            los=np.empty((0, dims)),
            his=np.empty((0, dims)),
        )

    @classmethod
    def from_objects(cls, objects: list[UncertainObject]) -> "CSet":
        """Pack a non-empty list of uncertain objects.

        An empty list cannot tell the dimensionality; use
        :meth:`empty` for that.
        """
        if not objects:
            raise ValueError(
                "cannot pack an empty object list; use CSet.empty(dims)"
            )
        return cls(
            ids=np.array([o.oid for o in objects], dtype=np.int64),
            los=np.array([o.region.lo for o in objects]),
            his=np.array([o.region.hi for o in objects]),
        )


class CSetStrategy(ABC):
    """Interface of a ``chooseCSet`` implementation."""

    name: str = "abstract"

    @abstractmethod
    def choose(
        self, obj: UncertainObject, dataset: UncertainDataset
    ) -> CSet:
        """Candidate set for the object's SE run (must exclude ``obj``)."""


class AllCSet(CSetStrategy):
    """``chooseCSet`` returning the entire database (minus ``o``)."""

    name = "ALL"

    def choose(
        self, obj: UncertainObject, dataset: UncertainDataset
    ) -> CSet:
        ids, los, his = dataset.packed_regions()
        mask = ids != obj.oid
        return CSet(ids=ids[mask], los=los[mask], his=his[mask])


def rank_by_mean(
    obj: UncertainObject, dataset: UncertainDataset
) -> np.ndarray:
    """Rows of ``dataset.packed_regions()`` nearest-first by mean position.

    FS and IS rank objects by the distance between *mean positions*
    (region centers).  The squared distances use the same per-dimension
    gap formula as an R*-tree's point-to-rectangle ``mindist`` and a
    stable sort, so the order is the tree's distance-browsing order
    whenever distances are distinct, and dataset order among ties.
    ``obj`` itself is left out.
    """
    ids, los, his = dataset.packed_regions()
    centres = (los + his) / 2.0
    order = np.argsort(
        mindist_sq_point_rects(obj.mean, centres, centres), kind="stable"
    )
    return order[ids[order] != obj.oid]


def _quadrant_mask(
    los: np.ndarray, his: np.ndarray, mean: np.ndarray
) -> np.ndarray:
    """``(k, 2^d)``: which quadrants around ``mean`` each region touches.

    Quadrant bit ``j`` is set for the half-space ``x_j >= mean_j``.  A
    region straddling the split plane in some dimension touches
    quadrants with either bit value there.
    """
    bits = corner_bits(len(mean))
    lo_side = (los < mean)[:, None, :]  # touches the low half-space
    hi_side = (his >= mean)[:, None, :]  # touches the high half-space
    return np.where(bits, hi_side, lo_side).all(axis=2)


class FixedSelection(CSetStrategy):
    """FS: the ``k`` nearest objects by mean position.

    Parameters
    ----------
    k:
        Number of neighbors returned (Table I default 200).
    """

    name = "FS"

    def __init__(self, k: int = 200) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def choose(
        self, obj: UncertainObject, dataset: UncertainDataset
    ) -> CSet:
        ids, los, his = dataset.packed_regions()
        rows = rank_by_mean(obj, dataset)[: self.k]
        return CSet(ids=ids[rows], los=los[rows], his=his[rows])


class IncrementalSelection(CSetStrategy):
    """IS: quadrant-balanced incremental selection.

    Examines the ``kglobal`` nearest objects (by mean) in order, skips
    those overlapping ``u(o)``, and stops after the first selection that
    gives every quadrant ``kpartition`` members.  The walk is evaluated
    at once: a cumulative sum over the touched-quadrant mask of the
    examined prefix finds the stopping point.

    Parameters
    ----------
    kpartition:
        Target number of selected neighbors per domain quadrant
        (Table I default 10).
    kglobal:
        Hard cap on how many nearest neighbors are examined
        (Table I default 200).
    """

    name = "IS"

    def __init__(self, kpartition: int = 10, kglobal: int = 200) -> None:
        if kpartition < 1:
            raise ValueError("kpartition must be >= 1")
        if kglobal < 1:
            raise ValueError("kglobal must be >= 1")
        self.kpartition = kpartition
        self.kglobal = kglobal

    def choose(
        self, obj: UncertainObject, dataset: UncertainDataset
    ) -> CSet:
        ids, los, his = dataset.packed_regions()
        rows = rank_by_mean(obj, dataset)[: self.kglobal]
        c_lo, c_hi = los[rows], his[rows]
        # Lemma 2: a region overlapping u(o) has empty dom(cand, o) —
        # useless for shrinking, so it is examined but never selected.
        keep = ~(
            np.all(c_lo <= obj.region.hi, axis=1)
            & np.all(obj.region.lo <= c_hi, axis=1)
        )
        touched = _quadrant_mask(c_lo, c_hi, obj.mean) & keep[:, None]
        full = np.cumsum(touched, axis=0) >= self.kpartition
        done = np.flatnonzero(full.all(axis=1))
        if len(done):
            keep[done[0] + 1:] = False
        rows = rows[keep]
        return CSet(ids=ids[rows], los=los[rows], his=his[rows])

    @staticmethod
    def _touched_partitions(
        cand: UncertainObject, mean: np.ndarray, d: int
    ) -> list[int]:
        """Indices of the 2^d quadrants intersected by ``u(cand)``."""
        mask = _quadrant_mask(
            cand.region.lo[None, :], cand.region.hi[None, :], mean
        )
        return np.flatnonzero(mask[0]).tolist()
