"""Benchmark harness for agricultural downstream tasks.

Featurizes satellite/climate/embedding inputs, trains tree-ensemble models,
and evaluates them under leakage-aware cross-validation and transfer schemes
on synthetic or user-supplied data bundles.
"""

__version__ = "0.1.0"

from .dataset import Dataset, SpectralBand, load_dataset

__all__ = ["Dataset", "SpectralBand", "load_dataset", "__version__"]
