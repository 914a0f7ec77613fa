"""Burst discovery, compaction and query-by-burst (section 6 of the paper)."""

from repro.bursts.compaction import Burst, compact_bursts, expand_bursts
from repro.bursts.detection import BurstAnnotation, BurstDetector
from repro.bursts.elastic import ShiftedWaveletTree
from repro.bursts.kernel import TrailingMA, burst_cutoff
from repro.bursts.leaderboard import BurstinessLeaderboard, LeaderboardEntry
from repro.bursts.models import (
    ElasticModel,
    KleinbergModel,
    MACDModel,
    MovingAverageModel,
)
from repro.bursts.protocol import (
    BurstModel,
    BurstRegion,
    OnlineDetector,
    RegionAlert,
    ReplayDetector,
    mask_regions,
)
from repro.bursts.query import (
    BurstDatabase,
    BurstMatch,
    BurstRegionDatabase,
    region_overlap_score,
)
from repro.bursts.registry import (
    MODEL_BUILDERS,
    available_burst_models,
    get_burst_model,
)
from repro.bursts.similarity import (
    burst_similarity,
    intersect,
    overlap,
    value_similarity,
)
from repro.bursts.weighted import (
    burst_weight_vector,
    rank_by_weighted_euclidean,
    weighted_euclidean,
)

__all__ = [
    "BurstAnnotation",
    "BurstDetector",
    "TrailingMA",
    "burst_cutoff",
    "BurstModel",
    "BurstRegion",
    "OnlineDetector",
    "RegionAlert",
    "ReplayDetector",
    "mask_regions",
    "MovingAverageModel",
    "KleinbergModel",
    "ElasticModel",
    "MACDModel",
    "MODEL_BUILDERS",
    "available_burst_models",
    "get_burst_model",
    "Burst",
    "compact_bursts",
    "expand_bursts",
    "overlap",
    "intersect",
    "value_similarity",
    "burst_similarity",
    "BurstDatabase",
    "BurstMatch",
    "BurstRegionDatabase",
    "region_overlap_score",
    "BurstinessLeaderboard",
    "LeaderboardEntry",
    "ShiftedWaveletTree",
    "burst_weight_vector",
    "weighted_euclidean",
    "rank_by_weighted_euclidean",
]
