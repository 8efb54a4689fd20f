"""Item scoring at a test date.

Five predictor kinds, each one formula in :func:`score_vector`, which
scores every item at once. :func:`score` is the one-shot entry point: it
ranks those scores into a :class:`ScoredRanking` over the items already
seen by the test date (items with zero degree then are not ranked):

* ``total_pop``  - score is the item's current degree;
* ``recent_pop`` - score is the degree increase inside the past window;
* ``pbp``        - blends the two: ``k(t) - lam * k(t - t_past)``;
* ``wpp``        - each collecting user inside the window contributes
  ``(their total degree)**gamma`` instead of 1;
* ``ibp``        - contributions weighted by ``(social influence)**eta``.

Scores are float64; rankings sort by decreasing score with ties broken by
ascending item id, so identical inputs give bit-identical rankings.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .events import TemporalBipartiteGraph
from .social import MEASURES, InfluenceVector, SocialGraph, compute_influence

log = logging.getLogger(__name__)

KINDS = ("total_pop", "recent_pop", "pbp", "wpp", "ibp")
_WINDOWED = ("recent_pop", "pbp", "wpp", "ibp")


@dataclass(frozen=True)
class PredictorSpec:
    """Which predictor to run and with what parameters.

    ``lam`` applies to ``pbp`` (must lie in [0, 1]), ``gamma`` to ``wpp``,
    ``eta`` and ``centrality`` to ``ibp``. ``t_past`` is the past-window
    length in seconds and is required by every kind except ``total_pop``.
    """

    kind: str
    lam: float | None = None
    gamma: float | None = None
    eta: float | None = None
    t_past: int | None = None
    centrality: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown predictor kind {self.kind!r} (choose from {KINDS})")
        if self.kind == "pbp":
            if self.lam is None or not 0.0 <= self.lam <= 1.0:
                raise ValueError(f"pbp needs lam in [0, 1], got {self.lam}")
        if self.kind == "wpp" and self.gamma is None:
            raise ValueError("wpp needs gamma")
        if self.kind == "ibp":
            if self.eta is None:
                raise ValueError("ibp needs eta")
            if self.centrality not in MEASURES:
                raise ValueError(f"ibp needs a centrality from {MEASURES}, got {self.centrality}")
        elif self.centrality is not None:
            raise ValueError("centrality is only meaningful for ibp")
        if self.kind in _WINDOWED and self.t_past is not None and self.t_past <= 0:
            raise ValueError(f"t_past must be positive, got {self.t_past}")

    def with_t_past(self, t_past: int) -> "PredictorSpec":
        return PredictorSpec(self.kind, self.lam, self.gamma, self.eta, t_past, self.centrality)


@dataclass
class ScoredRanking:
    """Items with scores, sorted by decreasing score then ascending id."""

    entries: list[tuple[int, float]]
    test_date: int
    spec: PredictorSpec

    def top(self, n: int) -> list[int]:
        return [item for item, _ in self.entries[:n]]


def score_vector(graph: TemporalBipartiteGraph, spec: PredictorSpec, test_date,
                 infl=None) -> np.ndarray:
    """Float64 score of every item at ``test_date``, aligned with ``item_ids``.

    Windowed kinds need ``spec.t_past``; ibp needs ``infl``, the influence of
    every user aligned with ``graph.user_ids``. A wpp user's weight is their
    total degree at ``test_date``, at least 1 for anyone collecting in the
    window, so 0**gamma never arises.
    """
    if spec.kind == "total_pop":
        return graph.item_degree_vector(test_date).astype(np.float64)
    if spec.kind in ("recent_pop", "pbp"):
        lam = 1.0 if spec.kind == "recent_pop" else spec.lam
        now = graph.item_degree_vector(test_date).astype(np.float64)
        past = graph.item_degree_vector(test_date - spec.t_past).astype(np.float64)
        return now - lam * past
    win_users, win_items = graph.window_events(test_date, spec.t_past)
    if spec.kind == "wpp":
        contrib = graph.user_degree_vector(test_date).astype(np.float64)[win_users] ** spec.gamma
    else:
        weight = infl[win_users]
        if spec.eta < 0:
            # zero influence is defined to contribute 0, not inf
            contrib = np.zeros(len(weight))
            nonzero = weight != 0.0
            contrib[nonzero] = weight[nonzero] ** spec.eta
        else:
            # 0**0 == 1 by convention, which is exactly what the eta=0
            # reduction to the plain degree increase requires.
            contrib = weight**spec.eta
    return np.bincount(win_items, weights=contrib, minlength=graph.num_items)


def zero_influence_users(graph: TemporalBipartiteGraph, test_date, t_past, infl) -> int:
    """Distinct users collecting inside ``(test_date - t_past, test_date]`` with influence 0."""
    win_users, _ = graph.window_events(test_date, t_past)
    return len(np.unique(win_users[infl[win_users] == 0.0]))


def score(
    graph: TemporalBipartiteGraph,
    spec: PredictorSpec,
    test_date,
    social_graph: SocialGraph | None = None,
    influence: InfluenceVector | None = None,
) -> ScoredRanking:
    """Rank the items seen by ``test_date`` with the predictor ``spec``.

    Every kind except ``total_pop`` needs ``spec.t_past``. ibp takes the
    precomputed ``influence`` vector if given (pass one when sweeping eta:
    the centrality is the expensive part), else computes ``spec.centrality``
    on ``social_graph``. Users absent from the social graph carry influence
    0: they contribute 0 for eta > 0, 1 for eta = 0 (the plain degree
    increase), and by definition 0 for eta < 0, which is logged.
    """
    if spec.kind != "total_pop" and spec.t_past is None:
        raise ValueError(f"{spec.kind} needs t_past")
    infl = None
    if spec.kind == "ibp":
        if influence is None:
            if social_graph is None:
                raise ValueError("ibp needs a social graph or a precomputed influence vector")
            influence = compute_influence(social_graph, spec.centrality)
        infl = influence.lookup(graph.user_ids)
        affected = zero_influence_users(graph, test_date, spec.t_past, infl) if spec.eta < 0 else 0
        if affected:
            log.warning("ibp: %d zero-influence users in the window contribute 0 under eta=%g",
                        affected, spec.eta)
    scores = score_vector(graph, spec, test_date, infl)
    order = graph.rank_items(scores, np.flatnonzero(graph.item_degree_vector(test_date) > 0))
    entries = list(zip(graph.item_ids[order].tolist(), scores[order].tolist()))
    if math.isfinite(test_date):
        test_date = int(test_date)
    return ScoredRanking(entries, test_date, spec)
