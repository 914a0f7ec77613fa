"""repro — reproduction of *Identifying Similarities, Periodicities and
Bursts for Online Search Queries* (Vlachos, Meek, Vagena & Gunopulos,
SIGMOD 2004).

The package mirrors the paper's structure:

* :mod:`repro.timeseries` — series containers, standardisation, moving
  averages;
* :mod:`repro.spectral` — the normalised DFT, periodogram and
  reconstruction machinery of section 2;
* :mod:`repro.compression` — the first-/best-coefficient compressed
  representations and the equal-storage budgeting of sections 3 and 7.1;
* :mod:`repro.bounds` — the LB/UB algorithms (GEMINI, Wang, BestMin,
  BestError, BestMinError) plus vectorised batch kernels;
* :mod:`repro.index` — the compressed-vantage-point VP-tree of section 4
  and the linear-scan baseline;
* :mod:`repro.engine` — the shared query-execution core: one verifier
  behind every index, a string-keyed registry (``get_index``) and the
  batched ``search_many`` entry point;
* :mod:`repro.cluster` — horizontal partitioning: deterministic shard
  assignment, per-shard page stores with a checksummed manifest, and the
  flat-filtered ``ShardRouter`` behind the same engine protocol;
* :mod:`repro.periods` — the exponential-threshold period detector of
  section 5;
* :mod:`repro.bursts` — burst detection, compaction, similarity and
  query-by-burst of section 6 over a stdlib ``sqlite3`` table;
* :mod:`repro.storage` — the page store and its cache;
* :mod:`repro.stream` — crash-safe streaming ingest: WAL-backed live
  tier, generational manifests, seal + recoverable compaction;
* :mod:`repro.datagen` — the synthetic MSN-style query-log source;
* :mod:`repro.wavelets` — a Haar basis proving the orthonormal-basis
  generality claim;
* :mod:`repro.evaluation` — the section 7 experiment harness;
* :mod:`repro.obs` — opt-in metrics/tracing over every hot path;
* :mod:`repro.tools` — terminal plotting and the S2 explorer (§7.5).

Quickstart::

    from repro import QueryLogGenerator, VPTreeIndex, detect_periods

    gen = QueryLogGenerator(seed=0)
    collection = gen.catalog_collection().standardize()
    index = VPTreeIndex(collection.as_matrix(), names=list(collection.names))
    neighbors, _ = index.search(collection["cinema"].values, k=5)
    periods = detect_periods(collection["cinema"])
"""

from repro import obs
from repro.bounds import BoundPair, batch_bounds, bounds_for
from repro.bursts import (
    Burst,
    BurstDatabase,
    BurstDetector,
    burst_similarity,
    compact_bursts,
)
from repro.compression import (
    AdaptiveEnergyCompressor,
    BestErrorCompressor,
    BestKCompressor,
    BestMinCompressor,
    BestMinErrorCompressor,
    GeminiCompressor,
    SketchDatabase,
    SpectralSketch,
    StorageBudget,
    WangCompressor,
)
from repro.datagen import CATALOG, QueryLogGenerator
from repro.exceptions import ReproError
from repro.index import LinearScanIndex, Neighbor, SearchStats, VPTreeIndex

# The index structures import the engine's verification core, so the
# index package must initialise before the engine package does.
from repro.engine import ApproxPolicy, available_indexes, get_index, search_many
from repro.cluster import (
    Partitioner,
    ShardRouter,
    build_sharded,
    open_sharded,
)
from repro.miner import QueryLogMiner
from repro.obs import MetricsRegistry, observed, span
from repro.placement import PlacementPlan, plan_placement
from repro.periods import PeriodDetector, detect_periods
from repro.spectral import Periodogram, Spectrum, periodogram
from repro.stream import StreamStore
from repro.timeseries import TimeSeries, TimeSeriesCollection

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "TimeSeries",
    "TimeSeriesCollection",
    "Spectrum",
    "Periodogram",
    "periodogram",
    "SpectralSketch",
    "SketchDatabase",
    "GeminiCompressor",
    "WangCompressor",
    "BestKCompressor",
    "BestMinCompressor",
    "BestErrorCompressor",
    "BestMinErrorCompressor",
    "AdaptiveEnergyCompressor",
    "StorageBudget",
    "BoundPair",
    "bounds_for",
    "batch_bounds",
    "LinearScanIndex",
    "VPTreeIndex",
    "Neighbor",
    "SearchStats",
    "ApproxPolicy",
    "available_indexes",
    "get_index",
    "search_many",
    "Partitioner",
    "ShardRouter",
    "build_sharded",
    "open_sharded",
    "PeriodDetector",
    "detect_periods",
    "BurstDetector",
    "Burst",
    "BurstDatabase",
    "burst_similarity",
    "compact_bursts",
    "QueryLogGenerator",
    "QueryLogMiner",
    "StreamStore",
    "obs",
    "MetricsRegistry",
    "observed",
    "span",
    "PlacementPlan",
    "plan_placement",
    "CATALOG",
]
