"""Popularity-trend prediction on temporal bipartite user-item networks."""

from .events import DAY, HOUR, TemporalBipartiteGraph, build
from .evaluation import (
    EvalConfig,
    EvaluationReport,
    evaluate,
    make_test_dates,
)
from .predictors import PredictorSpec, ScoredRanking, ibp_weights, score
from .social import (
    InfluenceVector,
    SocialGraph,
    compute_influence,
    load_social_graph,
)

__version__ = "0.1.0"
