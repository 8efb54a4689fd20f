"""Popularity-trend prediction on temporal bipartite user-item networks."""

from .events import DAY, HOUR, Event, TemporalBipartiteGraph, build
from .evaluation import (
    EvalConfig,
    EvaluationReport,
    evaluate,
    make_test_dates,
    new_entries,
    precision,
    true_ranking,
)
from .predictors import PredictorSpec, ScoredRanking, score
from .social import (
    InfluenceVector,
    SocialGraph,
    compute_influence,
    influence_in_degree,
    influence_leaderrank,
    influence_pagerank,
    load_social_graph,
)

__version__ = "0.1.0"
