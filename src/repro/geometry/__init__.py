"""Geometric substrate: rectangles, distances, domination tests.

Everything in the PV-index reproduction reduces to axis-parallel
rectangle geometry; this package holds those primitives.
"""

from .bisector import (
    domination_margin,
    domination_margins,
    locate_bisector_on_segment,
    point_in_dom,
    point_in_nondom,
    sample_bisector,
)
from .distance import (
    maxdist_point_rect,
    maxdist_rect_rect,
    maxdist_sq_point_rect,
    maxdist_sq_point_rects,
    maxdist_sq_points_rect,
    maxdist_sq_rect_rect,
    mindist_point_rect,
    mindist_rect_rect,
    mindist_sq_point_rect,
    mindist_sq_point_rects,
    mindist_sq_points_rect,
    mindist_sq_rect_rect,
)
from .domination import (
    DominationTester,
    dominates,
    dominates_batch,
    max_domination_margin,
    region_fully_dominated,
)
from .rect import Rect, corner_bits

__all__ = [
    "Rect",
    "corner_bits",
    "mindist_point_rect",
    "maxdist_point_rect",
    "mindist_sq_point_rect",
    "maxdist_sq_point_rect",
    "mindist_sq_points_rect",
    "maxdist_sq_points_rect",
    "mindist_sq_point_rects",
    "maxdist_sq_point_rects",
    "mindist_rect_rect",
    "maxdist_rect_rect",
    "mindist_sq_rect_rect",
    "maxdist_sq_rect_rect",
    "dominates",
    "dominates_batch",
    "max_domination_margin",
    "region_fully_dominated",
    "DominationTester",
    "domination_margin",
    "domination_margins",
    "point_in_dom",
    "point_in_nondom",
    "locate_bisector_on_segment",
    "sample_bisector",
]
