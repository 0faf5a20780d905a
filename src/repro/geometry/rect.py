"""Axis-parallel hyper-rectangles.

The :class:`Rect` is the workhorse geometric primitive of the whole library:
uncertainty regions ``u(o)``, UBRs ``B(o)``, SE's lower/upper bounds ``l(o)``
and ``h(o)``, octree node regions, and R-tree MBRs are all axis-parallel
rectangles in a ``d``-dimensional domain.

Rectangles are *closed*: a point on the boundary is contained.  Coordinates
are stored as two ``float64`` numpy arrays ``lo`` and ``hi`` with
``lo[j] <= hi[j]`` for every dimension ``j``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Rect", "corner_bits"]


@lru_cache(maxsize=None)
def corner_bits(d: int) -> np.ndarray:
    """``(2^d, d)`` boolean mask: entry ``[c, j]`` is bit ``j`` of ``c``.

    Row ``c`` picks, per dimension, the upper (True) or lower bound of
    corner ``c`` — equivalently, the half-spaces of orthant ``c`` around
    a split point.  Cached and read-only.
    """
    bits = ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1).astype(bool)
    bits.flags.writeable = False
    return bits


class Rect:
    """A closed axis-parallel hyper-rectangle ``[lo[0], hi[0]] x ...``.

    Parameters
    ----------
    lo, hi:
        Array-likes of equal length giving the lower and upper corner.

    Raises
    ------
    ValueError
        If the corners have mismatched lengths, are empty, or if any
        ``lo[j] > hi[j]``.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Iterable[float], hi: Iterable[float]) -> None:
        lo_arr = np.asarray(lo, dtype=np.float64)
        hi_arr = np.asarray(hi, dtype=np.float64)
        if lo_arr.ndim != 1 or hi_arr.ndim != 1:
            raise ValueError("Rect corners must be 1-dimensional arrays")
        if lo_arr.shape != hi_arr.shape:
            raise ValueError(
                f"corner shapes differ: {lo_arr.shape} vs {hi_arr.shape}"
            )
        if lo_arr.size == 0:
            raise ValueError("Rect must have at least one dimension")
        if np.any(lo_arr > hi_arr):
            raise ValueError(f"lo must be <= hi, got lo={lo_arr}, hi={hi_arr}")
        self.lo = lo_arr
        self.hi = hi_arr

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, point: Iterable[float]) -> "Rect":
        """A degenerate rectangle covering exactly one point."""
        arr = np.asarray(point, dtype=np.float64)
        return cls(arr, arr.copy())

    @classmethod
    def from_center(cls, center: Iterable[float], half_widths) -> "Rect":
        """Rectangle centered at ``center`` with the given half side lengths.

        ``half_widths`` may be a scalar (same extent in every dimension) or a
        per-dimension array-like.
        """
        c = np.asarray(center, dtype=np.float64)
        h = np.broadcast_to(
            np.asarray(half_widths, dtype=np.float64), c.shape
        )
        if np.any(h < 0):
            raise ValueError("half_widths must be non-negative")
        return cls(c - h, c + h)

    @classmethod
    def cube(cls, lo: float, hi: float, dims: int) -> "Rect":
        """The hyper-cube ``[lo, hi]^dims`` — typically the domain ``D``."""
        if dims < 1:
            raise ValueError("dims must be >= 1")
        return cls(np.full(dims, lo), np.full(dims, hi))

    @classmethod
    def bounding(cls, rects: Sequence["Rect"]) -> "Rect":
        """Minimum bounding rectangle of a non-empty sequence of rectangles."""
        if not rects:
            raise ValueError("cannot bound an empty sequence of rectangles")
        lo = np.min([r.lo for r in rects], axis=0)
        hi = np.max([r.hi for r in rects], axis=0)
        return cls(lo, hi)

    @classmethod
    def bounding_points(cls, points: np.ndarray) -> "Rect":
        """Minimum bounding rectangle of an ``(n, d)`` array of points."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        return cls(pts.min(axis=0), pts.max(axis=0))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        """Number of dimensions."""
        return self.lo.size

    @property
    def center(self) -> np.ndarray:
        """The geometric center (the *mean position* used by FS/IS)."""
        return (self.lo + self.hi) / 2.0

    @property
    def side_lengths(self) -> np.ndarray:
        """Per-dimension extents ``hi - lo``."""
        return self.hi - self.lo

    @property
    def max_side(self) -> float:
        """Length of the longest side."""
        return float(np.max(self.hi - self.lo))

    @property
    def volume(self) -> float:
        """Product of side lengths (zero for degenerate rectangles)."""
        return float(np.prod(self.hi - self.lo))

    def margin(self) -> float:
        """Sum of side lengths (the R*-tree 'margin' heuristic)."""
        return float(np.sum(self.hi - self.lo))

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: Iterable[float]) -> bool:
        """True iff ``point`` lies inside this (closed) rectangle."""
        p = np.asarray(point, dtype=np.float64)
        return bool(np.all(self.lo <= p) and np.all(p <= self.hi))

    def contains_rect(self, other: "Rect") -> bool:
        """True iff ``other`` lies entirely inside this rectangle."""
        return bool(
            np.all(self.lo <= other.lo) and np.all(other.hi <= self.hi)
        )

    def intersects(self, other: "Rect") -> bool:
        """True iff this rectangle and ``other`` share at least one point."""
        return bool(
            np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi)
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlap rectangle, or ``None`` when disjoint."""
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(lo > hi):
            return None
        return Rect(lo, hi)

    def union(self, other: "Rect") -> "Rect":
        """Minimum bounding rectangle of this rectangle and ``other``."""
        return Rect(
            np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi)
        )

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def clip_point(self, point: np.ndarray) -> np.ndarray:
        """The point of this rectangle closest to ``point``."""
        return np.clip(np.asarray(point, dtype=np.float64), self.lo, self.hi)

    def corners(self) -> np.ndarray:
        """All ``2^d`` corner points as a ``(2^d, d)`` array.

        Exponential in ``d`` — intended for tests and low-dimensional
        visualisation, never for the hot path (the paper's whole point is
        avoiding corner enumeration).
        """
        return np.where(corner_bits(self.dims), self.hi, self.lo)

    def split_at(self, dim: int, coord: float) -> tuple["Rect", "Rect"]:
        """Split into (low part, high part) at ``coord`` along ``dim``.

        ``coord`` must lie inside the rectangle's extent along ``dim``.
        """
        if not (self.lo[dim] <= coord <= self.hi[dim]):
            raise ValueError(
                f"split coordinate {coord} outside [{self.lo[dim]}, "
                f"{self.hi[dim]}] in dim {dim}"
            )
        lo_hi = self.hi.copy()
        lo_hi[dim] = coord
        hi_lo = self.lo.copy()
        hi_lo[dim] = coord
        return Rect(self.lo, lo_hi), Rect(hi_lo, self.hi)

    def quadrant(self, index: int) -> "Rect":
        """The ``index``-th of the ``2^d`` equal sub-rectangles.

        Bit ``j`` of ``index`` selects the high half along dimension ``j``.
        Used by the octree primary index, whose children split every
        dimension in half.
        """
        d = self.dims
        if not 0 <= index < (1 << d):
            raise ValueError(f"quadrant index {index} out of range for d={d}")
        mid = self.center
        lo = self.lo.copy()
        hi = self.hi.copy()
        for j in range(d):
            if (index >> j) & 1:
                lo[j] = mid[j]
            else:
                hi[j] = mid[j]
        return Rect(lo, hi)

    def quadrants(self) -> Iterator["Rect"]:
        """Iterate over all ``2^d`` equal sub-rectangles."""
        for index in range(1 << self.dims):
            yield self.quadrant(index)

    def sample_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` points uniformly distributed inside the rectangle."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return rng.uniform(self.lo, self.hi, size=(n, self.dims))

    def expanded(self, amount: float) -> "Rect":
        """A copy grown by ``amount`` on every side (may be negative)."""
        grown_lo = self.lo - amount
        grown_hi = self.hi + amount
        if np.any(grown_lo > grown_hi):
            raise ValueError("expansion amount collapses the rectangle")
        return Rect(grown_lo, grown_hi)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return bool(
            np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def __hash__(self) -> int:
        return hash((self.lo.tobytes(), self.hi.tobytes()))

    def __repr__(self) -> str:
        return f"Rect(lo={self.lo.tolist()}, hi={self.hi.tolist()})"

    def copy(self) -> "Rect":
        """An independent copy (corner arrays are not shared)."""
        return Rect(self.lo.copy(), self.hi.copy())

    def nbytes(self) -> int:
        """Serialized size used by the simulated pager (two float64 rows)."""
        return 16 * self.dims
