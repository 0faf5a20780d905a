"""Core contribution: PV-cells, SE, C-set strategies, PV-index, PNNQ."""

from .cset import (
    AllCSet,
    CSet,
    CSetStrategy,
    FixedSelection,
    IncrementalSelection,
)
from .pnnq import (
    PNNQEngine,
    PNNQResult,
    Retriever,
    qualification_probabilities,
)
from .pvcell import (
    monte_carlo_mbr,
    monte_carlo_volume,
    possible_nn_ids,
    pv_cell_contains,
    pv_cell_contains_many,
)
from .pvindex import PVIndex, PVIndexStats, SecondaryRecord
from .se import SEConfig, SEResult, SEStats, ShrinkExpand
from .verifier import ProbabilityBounds, VerifierEngine, probability_bounds
from .expected import ExpectedNNEngine, ExpectedNNResult, expected_distance
from .knn import KNNEngine, KNNResult
from .topk import TopKEngine, TopKResult
from .groupnn import Aggregate, GroupNNEngine, GroupNNResult
from .reversenn import ReverseNNEngine, ReverseNNResult
from .bulk import (
    BulkBuildReport,
    CompactionReport,
    bulk_build,
    compact,
    z_order,
)

__all__ = [
    "CSet",
    "CSetStrategy",
    "AllCSet",
    "FixedSelection",
    "IncrementalSelection",
    "SEConfig",
    "SEStats",
    "SEResult",
    "ShrinkExpand",
    "PVIndex",
    "PVIndexStats",
    "SecondaryRecord",
    "PNNQEngine",
    "PNNQResult",
    "Retriever",
    "qualification_probabilities",
    "pv_cell_contains",
    "pv_cell_contains_many",
    "possible_nn_ids",
    "monte_carlo_mbr",
    "monte_carlo_volume",
    "ProbabilityBounds",
    "probability_bounds",
    "VerifierEngine",
    "ExpectedNNEngine",
    "ExpectedNNResult",
    "expected_distance",
    "KNNEngine",
    "KNNResult",
    "TopKEngine",
    "TopKResult",
    "Aggregate",
    "GroupNNEngine",
    "GroupNNResult",
    "ReverseNNEngine",
    "ReverseNNResult",
    "BulkBuildReport",
    "CompactionReport",
    "bulk_build",
    "compact",
    "z_order",
]
