"""Unified query-execution layer: one runtime for every engine.

This package is the seam between the paper's query classes and the
serving-oriented roadmap: :class:`BaseEngine` owns the OR→PC template,
retriever resolution, shared :class:`ExecutionStats` instrumentation
(timing + simulated page I/O from one object), a batched query API
that shares Step-1 work across a block, and an optional LRU result
cache.  The concrete engines in :mod:`repro.core` are thin subclasses
implementing only their probability-computation step.
"""

from .base import BaseEngine
from .batch import (
    KERNEL_CHUNK_BYTES,
    batched_qualification_probabilities,
    element_survival_probabilities,
    element_survivals,
    group_by_candidates,
    instance_distance_matrix,
    survival_products,
)
from .cache import LRUCache
from .cost import CostEstimate, expected_candidates
from .frozen import FrozenDict, readonly_array
from .retrievers import (
    BruteForceRetriever,
    Retriever,
    discover_pagers,
    resolve_retriever,
)
from .stats import ExecutionStats

__all__ = [
    "BaseEngine",
    "CostEstimate",
    "expected_candidates",
    "FrozenDict",
    "readonly_array",
    "ExecutionStats",
    "Retriever",
    "BruteForceRetriever",
    "resolve_retriever",
    "discover_pagers",
    "LRUCache",
    "batched_qualification_probabilities",
    "element_survival_probabilities",
    "element_survivals",
    "group_by_candidates",
    "instance_distance_matrix",
    "survival_products",
    "KERNEL_CHUNK_BYTES",
]
