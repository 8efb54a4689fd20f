"""Item scoring at a test date.

Five predictor kinds, each one formula in :func:`score_vector`, which
scores every item at once from a :class:`Window`, the spec-independent
arrays of one test date and past window. :func:`score` is the one-shot
entry point: it ranks those scores into a :class:`ScoredRanking` over the
items already seen by the test date (items with zero degree then are not
ranked):

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
from functools import cached_property

import numpy as np

from .events import TemporalBipartiteGraph
from .social import MEASURES, InfluenceVector, SocialGraph, compute_influence

log = logging.getLogger(__name__)

# the parameters each kind reads; a spec may set no other
_READS = {"total_pop": (), "recent_pop": ("t_past",), "pbp": ("lam", "t_past"),
          "wpp": ("gamma", "t_past"), "ibp": ("eta", "centrality", "t_past")}
KINDS = tuple(_READS)


@dataclass(frozen=True)
class PredictorSpec:
    """Which predictor to run and with what parameters.

    ``lam`` applies to ``pbp`` (must lie in [0, 1]), ``gamma`` to ``wpp``,
    ``eta`` and ``centrality`` to ``ibp``; ``gamma`` and ``eta`` must be finite.
    ``t_past`` is the past-window length in seconds and is required by every
    kind except ``total_pop``. A parameter that its kind does not read is a
    ``ValueError``.
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
        for name in ("lam", "gamma", "eta", "centrality", "t_past"):
            if getattr(self, name) is not None and name not in _READS[self.kind]:
                readers = ", ".join(kind for kind, reads in _READS.items() if name in reads)
                raise ValueError(f"{name} is only meaningful for {readers}")
        for name in ("gamma", "eta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.kind == "pbp":
            if self.lam is None or not 0.0 <= self.lam <= 1.0:
                raise ValueError(f"pbp needs lam in [0, 1], got {self.lam}")
        if self.kind == "wpp" and self.gamma is None:
            raise ValueError("wpp needs gamma")
        if self.kind == "ibp":
            if self.eta is None:
                raise ValueError("ibp needs eta")
            if self.centrality not in MEASURES:
                raise ValueError(
                    f"ibp needs a centrality from {tuple(MEASURES)}, got {self.centrality}")
        if self.t_past is not None and self.t_past <= 0:
            raise ValueError(f"t_past must be positive, got {self.t_past}")

    def with_t_past(self, t_past: int) -> "PredictorSpec":
        return PredictorSpec(self.kind, self.lam, self.gamma, self.eta, t_past, self.centrality)


@dataclass
class ScoredRanking:
    """Items with scores, sorted by decreasing score then ascending id."""

    entries: list[tuple[int, float]]

    def top(self, n: int) -> list[int]:
        return [item for item, _ in self.entries[:n]]


class Window:
    """What every predictor reads at one test date and past window.

    Each array is computed on first use and then shared by every spec
    scored at that (date, window), so do not mutate one. ``influence`` maps
    a centrality to the influence of every user, aligned with
    ``graph.user_ids``, as :func:`align` returns it.
    """

    def __init__(self, graph: TemporalBipartiteGraph, test_date, t_past, influence: dict):
        self.graph = graph
        self.test_date = test_date
        self.t_past = t_past
        self.influence = influence
        self._weights = {}

    @cached_property
    def now(self) -> np.ndarray:
        """Item degrees at the test date, as float64; read-only, as total_pop's scores."""
        now = self.graph.item_degree_vector(self.test_date).astype(np.float64)
        now.flags.writeable = False
        return now

    @cached_property
    def seen(self) -> np.ndarray:
        """Compact indices of the items collected by the test date: the ranked domain."""
        return np.flatnonzero(self.now > 0)

    @cached_property
    def past(self) -> np.ndarray:
        """Item degrees at the start of the window, as float64."""
        return self.graph.item_degree_vector(self.test_date - self.t_past).astype(np.float64)

    @cached_property
    def events(self) -> tuple[np.ndarray, np.ndarray]:
        """Compact (user, item) pairs of the events inside the window."""
        return self.graph.window_events(self.test_date, self.t_past)

    @cached_property
    def user_degree(self) -> np.ndarray:
        """Total degree at the test date of the user of every window event, as float64."""
        return self.graph.user_degree_vector(self.test_date).astype(np.float64)[self.events[0]]

    def influence_weights(self, centrality) -> tuple[np.ndarray, np.ndarray]:
        """Influence of the user of every window event, and its ``!= 0`` mask."""
        if centrality not in self._weights:
            weight = self.influence[centrality][self.events[0]]
            self._weights[centrality] = weight, weight != 0.0
        return self._weights[centrality]


def score_vector(spec: PredictorSpec, window: Window) -> np.ndarray:
    """Float64 score of every item at ``window.test_date``, aligned with ``item_ids``.

    Windowed kinds read ``window.t_past``, which must equal ``spec.t_past``;
    ibp reads ``window.influence[spec.centrality]``. A wpp user's weight is
    their total degree at the test date, at least 1 for anyone collecting in
    the window, so 0**gamma never arises.
    """
    if spec.kind == "total_pop":
        return window.now
    if spec.kind in ("recent_pop", "pbp"):
        lam = 1.0 if spec.kind == "recent_pop" else spec.lam
        return window.now - lam * window.past
    if spec.kind == "wpp":
        contrib = window.user_degree ** spec.gamma
    else:
        weight, nonzero = window.influence_weights(spec.centrality)
        if spec.eta < 0:
            # zero influence is defined to contribute 0, not inf
            contrib = np.zeros(len(weight))
            contrib[nonzero] = weight[nonzero] ** spec.eta
        else:
            # 0**0 == 1 by convention, which is exactly what the eta=0
            # reduction to the plain degree increase requires.
            contrib = weight**spec.eta
    return np.bincount(window.events[1], weights=contrib, minlength=window.graph.num_items)


def warn_zero_influence(graph: TemporalBipartiteGraph, influence: InfluenceVector) -> None:
    """Log one warning counting the users of ``graph`` whose influence is 0,
    users absent from the social graph included: ibp leaves them out under a
    negative eta. Nothing is logged when there are none."""
    zero = int(np.count_nonzero(influence.lookup(graph.user_ids) == 0.0))
    if zero:
        log.warning("ibp(%s): %d of %d users are zero-influence and contribute 0 under eta < 0",
                    influence.measure, zero, graph.num_users)


def align(graph: TemporalBipartiteGraph, vectors, specs) -> dict[str, np.ndarray]:
    """Map each vector's ``measure`` to its values aligned with ``graph.user_ids``,
    skipping ``None``. Two vectors of one measure, or an ibp spec of ``specs``
    whose centrality no vector holds, are a ``ValueError``."""
    aligned = {}
    for vector in vectors:
        if vector is None:
            continue
        if vector.measure in aligned:
            raise ValueError(f"two influence vectors of {vector.measure!r}")
        aligned[vector.measure] = vector.lookup(graph.user_ids)
    missing = sorted({s.centrality for s in specs if s.kind == "ibp"} - aligned.keys())
    if missing:
        raise ValueError(f"influence vectors given for {sorted(aligned)}, but ibp needs "
                         f"{missing}: compute them on a social graph")
    return aligned


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
    on ``social_graph``; :func:`align` rejects a vector of another measure.
    Users absent from the social graph carry influence 0:
    they contribute 0 for eta > 0, 1 for eta = 0 (the plain degree
    increase), and by definition 0 for eta < 0. Nothing is logged; a caller
    that reports the users dropped under eta < 0 calls
    :func:`warn_zero_influence`.
    """
    if spec.kind != "total_pop" and spec.t_past is None:
        raise ValueError(f"{spec.kind} needs t_past")
    if spec.kind == "ibp" and influence is None and social_graph is not None:
        influence = compute_influence(social_graph, spec.centrality)
    window = Window(graph, test_date, spec.t_past, align(graph, [influence], [spec]))
    scores = score_vector(spec, window)
    order = graph.rank_items(scores, window.seen)
    return ScoredRanking(list(zip(graph.item_ids[order].tolist(), scores[order].tolist())))
