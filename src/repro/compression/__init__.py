"""Compressed representations for periodic data (section 3 of the paper)."""

from repro.compression.adaptive import AdaptiveEnergyCompressor
from repro.compression.base import SpectralSketch
from repro.compression.batch import batch_compress, spectra_matrix, supports_batch
from repro.compression.best_k import (
    BestErrorCompressor,
    BestKCompressor,
    BestMinCompressor,
    BestMinErrorCompressor,
)
from repro.compression.budget import BEST_METHODS, FIRST_METHODS, StorageBudget
from repro.compression.codes import RowCodes
from repro.compression.database import SketchDatabase
from repro.compression.first_k import (
    FirstKCompressor,
    GeminiCompressor,
    WangCompressor,
)

__all__ = [
    "SpectralSketch",
    "SketchDatabase",
    "RowCodes",
    "FirstKCompressor",
    "GeminiCompressor",
    "WangCompressor",
    "BestKCompressor",
    "BestMinCompressor",
    "BestErrorCompressor",
    "BestMinErrorCompressor",
    "AdaptiveEnergyCompressor",
    "batch_compress",
    "spectra_matrix",
    "supports_batch",
    "StorageBudget",
    "FIRST_METHODS",
    "BEST_METHODS",
]
