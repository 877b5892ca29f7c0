"""Regional on-road carbon emission regression from road networks and
origin-destination flows, via hierarchical heterogeneous graph attention."""

from .config import RunConfig
from .data import Dataset, load_dataset, split_dataset, write_dataset
from .graphs import Hierarchy, ODFlow, RoadGraph
from .model import (
    EmissionModel,
    NormStats,
    RegionCache,
    fit_normalization,
    load_checkpoint,
    prepare_dataset,
    refresh_region_cache,
    save_checkpoint,
    set_ablation,
)
from .synth import SynthParams, generate_synthetic, oracle_emission
from .train import Metrics, compute_metrics, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EmissionModel",
    "Hierarchy",
    "Metrics",
    "NormStats",
    "ODFlow",
    "RegionCache",
    "RoadGraph",
    "RunConfig",
    "SynthParams",
    "compute_metrics",
    "evaluate",
    "fit_normalization",
    "generate_synthetic",
    "load_checkpoint",
    "load_dataset",
    "oracle_emission",
    "prepare_dataset",
    "refresh_region_cache",
    "save_checkpoint",
    "set_ablation",
    "split_dataset",
    "train",
    "write_dataset",
]
