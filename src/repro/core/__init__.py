"""The paper's contribution: IQN routing and its extensions."""

from .adaptive import AdaptiveSpecPolicy, needs_repost
from .aggregation import (
    AggregationStrategy,
    PerPeerAggregation,
    PerPeerState,
    PerTermAggregation,
    PerTermState,
)
from .correlations import CorrelationAwarePerTerm, estimate_distinct_mass
from .fastpath import FastPathUnsupported, RoutingStats
from .budget import (
    allocate_budget,
    benefit_list_length,
    benefit_score_mass_quantile,
    benefit_score_threshold,
    build_adaptive_posts,
    uniform_budget,
)
from .histogram_routing import (
    HistogramAggregation,
    HistogramState,
    cell_midpoint_weights,
    per_cell_novelties,
    top_heavy_weights,
    weighted_histogram_novelty,
)
from .iqn import IQNRouter, IQNSelection
from .novelty import estimate_novelty
from .stopping import (
    AnyOf,
    CoverageTarget,
    MaxPeers,
    MinimumNoveltyGain,
    StoppingCriterion,
)

__all__ = [
    "IQNRouter",
    "IQNSelection",
    "RoutingStats",
    "FastPathUnsupported",
    "estimate_novelty",
    "AggregationStrategy",
    "PerPeerAggregation",
    "PerPeerState",
    "PerTermAggregation",
    "PerTermState",
    "CorrelationAwarePerTerm",
    "estimate_distinct_mass",
    "AdaptiveSpecPolicy",
    "needs_repost",
    "HistogramAggregation",
    "HistogramState",
    "weighted_histogram_novelty",
    "per_cell_novelties",
    "cell_midpoint_weights",
    "top_heavy_weights",
    "StoppingCriterion",
    "MaxPeers",
    "CoverageTarget",
    "MinimumNoveltyGain",
    "AnyOf",
    "allocate_budget",
    "uniform_budget",
    "benefit_list_length",
    "benefit_score_threshold",
    "benefit_score_mass_quantile",
    "build_adaptive_posts",
]
