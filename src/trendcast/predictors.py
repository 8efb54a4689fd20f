"""Item scoring at a test date.

Five predictor kinds, scored per item by :func:`score_vector` and ranked
into a :class:`ScoredRanking` over the items already seen by the test date
(items with zero degree at the test date are not ranked):

* ``total_pop``  - score is the item's current degree;
* ``recent_pop`` - score is the degree increase inside the past window;
* ``pbp``        - blends the two: ``k(t) - lam * k(t - t_past)``;
* ``wpp``        - each collecting user inside the window contributes
  ``(their degree)**gamma`` instead of 1;
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

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _ranking(graph, scores, test_date, spec) -> ScoredRanking:
    order = graph.rank_items(scores, np.flatnonzero(graph.item_degree_vector(test_date) > 0))
    entries = list(zip(graph.item_ids[order].tolist(), scores[order].tolist()))
    if math.isfinite(test_date):
        test_date = int(test_date)
    return ScoredRanking(entries, test_date, spec)


def score_vector(
    graph: TemporalBipartiteGraph, spec: PredictorSpec, test_date, infl=None, user_weight="total"
) -> np.ndarray:
    """Float64 score of every item at ``test_date``, aligned with ``item_ids``.

    Windowed kinds need ``spec.t_past``; ibp needs ``infl``, the influence of
    every user aligned with ``graph.user_ids``. For ``user_weight`` see
    :func:`score_wpp`.
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
        activity = graph.user_degree_vector(test_date).astype(np.float64)
        if user_weight == "recent":
            activity = activity - graph.user_degree_vector(test_date - spec.t_past)
        contrib = activity[win_users] ** spec.gamma
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


def score_total_pop(graph: TemporalBipartiteGraph, test_date) -> ScoredRanking:
    """Rank items by their total degree at the test date."""
    return score(graph, PredictorSpec("total_pop"), test_date)


def score_recent_pop(graph: TemporalBipartiteGraph, test_date, t_past) -> ScoredRanking:
    """Rank items by their degree increase inside ``(test_date - t_past, test_date]``."""
    return score(graph, PredictorSpec("recent_pop", t_past=t_past), test_date)


def score_pbp(graph: TemporalBipartiteGraph, test_date, t_past, lam) -> ScoredRanking:
    """Blend total degree with windowed increase: ``k(t) - lam * k(t - t_past)``.

    ``lam=0`` reproduces the total-degree ordering, ``lam=1`` the
    degree-increase ordering.
    """
    return score(graph, PredictorSpec("pbp", lam=lam, t_past=t_past), test_date)


def score_wpp(
    graph: TemporalBipartiteGraph, test_date, t_past, gamma, user_weight="total"
) -> ScoredRanking:
    """Degree increase with each collecting user weighted by activity**gamma.

    ``user_weight`` selects the activity measure: ``"total"`` uses the
    user's full degree at the test date, ``"recent"`` only the degree gained
    inside the window. Either way a contributing user has activity >= 1
    (they collected at least one item in the window), so 0**gamma never
    arises. ``gamma=0`` reduces exactly to the degree increase.
    """
    if user_weight not in ("total", "recent"):
        raise ValueError(f"user_weight must be 'total' or 'recent', got {user_weight!r}")
    spec = PredictorSpec("wpp", gamma=gamma, t_past=t_past)
    scores = score_vector(graph, spec, test_date, user_weight=user_weight)
    return _ranking(graph, scores, test_date, spec)


def score_ibp(
    graph: TemporalBipartiteGraph,
    social_graph: SocialGraph | None,
    test_date,
    t_past,
    eta,
    centrality="in_degree",
    influence: InfluenceVector | None = None,
) -> ScoredRanking:
    """Degree increase with each collecting user weighted by influence**eta.

    Influence comes from ``social_graph`` via the chosen centrality measure,
    or from a precomputed ``influence`` vector (pass one when sweeping eta,
    the centrality is the expensive part). Users absent from the social
    graph carry influence 0: their contribution is 0 for eta > 0, 1 for
    eta = 0 (the predictor then degenerates to the plain degree increase),
    and is *defined* as 0 for eta < 0 (logged, rather than letting the
    weight blow up).
    """
    if influence is None:
        if social_graph is None:
            raise ValueError("ibp needs a social graph or a precomputed influence vector")
        influence = compute_influence(social_graph, centrality)
    spec = PredictorSpec("ibp", eta=eta, t_past=t_past, centrality=influence.measure)
    infl = influence.lookup(graph.user_ids)
    affected = zero_influence_users(graph, test_date, t_past, infl) if eta < 0 else 0
    if affected:
        log.warning("ibp: %d zero-influence users in the window contribute 0 under eta=%g",
                    affected, eta)
    return _ranking(graph, score_vector(graph, spec, test_date, infl), test_date, spec)


def score(
    graph: TemporalBipartiteGraph,
    spec: PredictorSpec,
    test_date,
    social_graph: SocialGraph | None = None,
    influence: InfluenceVector | None = None,
) -> ScoredRanking:
    """Run the predictor described by ``spec`` at ``test_date``."""
    if spec.kind != "total_pop" and spec.t_past is None:
        raise ValueError(f"{spec.kind} needs t_past")
    if spec.kind == "ibp":
        return score_ibp(
            graph, social_graph, test_date, spec.t_past, spec.eta, spec.centrality, influence
        )
    return _ranking(graph, score_vector(graph, spec, test_date), test_date, spec)
