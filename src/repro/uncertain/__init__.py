"""Uncertain-data model: objects, discrete pdfs, datasets, generators."""

from .dataset import UncertainDataset, check_index_in_sync
from .generators import (
    clustered_dataset,
    simulate_airports,
    simulate_roads,
    simulate_rrlines,
    synthetic_dataset,
)
from .objects import UncertainObject
from .pdfs import gaussian_pdf, point_pdf, uniform_pdf
from .store import (
    GatherBlock,
    InstanceStore,
    MappedInstanceStore,
    MappedSnapshot,
    attach_file,
)

__all__ = [
    "UncertainObject",
    "UncertainDataset",
    "check_index_in_sync",
    "InstanceStore",
    "GatherBlock",
    "MappedInstanceStore",
    "MappedSnapshot",
    "attach_file",
    "uniform_pdf",
    "gaussian_pdf",
    "point_pdf",
    "synthetic_dataset",
    "clustered_dataset",
    "simulate_roads",
    "simulate_rrlines",
    "simulate_airports",
]
