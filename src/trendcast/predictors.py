"""Item scoring at a test date.

Five predictor kinds, each one formula in :func:`score_rows`, which scores
every item under many specs in one pass over the arrays they share at one
test date and past window. :func:`score` is the one-shot entry point: it
ranks one spec's row into a :class:`ScoredRanking` over the items already
seen by the test date (items with zero degree then are not ranked):

* ``total_pop``  - score is the item's current degree;
* ``recent_pop`` - score is the degree increase inside the past window;
* ``pbp``        - blends the two: ``k(t) - lam * k(t - t_past)``;
* ``wpp``        - each collecting user inside the window contributes
  ``(their total degree)**gamma`` instead of 1;
* ``ibp``        - as ``wpp``, with ``(their social influence)**eta`` instead.

Scores are float64; rankings sort by decreasing score with ties broken by
ascending item id, so identical inputs give bit-identical rankings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import TemporalBipartiteGraph
from .social import MEASURES, InfluenceVector, SocialGraph, compute_influence

# the parameters each kind reads; a spec may set no other
_READS = {"total_pop": (), "recent_pop": ("t_past",), "pbp": ("lam", "t_past"),
          "wpp": ("gamma", "t_past"), "ibp": ("eta", "centrality", "t_past")}
KINDS = tuple(_READS)


@dataclass(frozen=True)
class PredictorSpec:
    """Which predictor to run and with what parameters.

    ``lam`` applies to ``pbp`` (must lie in [0, 1]), ``gamma`` to ``wpp``,
    ``eta`` and ``centrality`` to ``ibp``; ``gamma`` and ``eta`` must be finite.
    ``t_past`` is the past-window length in seconds, which :func:`score`
    requires of every kind except ``total_pop``; ``evaluate`` scores over its
    window's and leaves it unset. A parameter that its kind does not read, or
    a missing or bad one, is a ``ValueError`` naming the key that specs and
    configs spell it with (``lambda`` for ``lam``).
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
                key = "lambda" if name == "lam" else name  # as specs and configs spell it
                raise ValueError(f"{key} is only meaningful for {readers}")
        for name in ("gamma", "eta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.kind == "pbp":
            if self.lam is None:
                raise ValueError("pbp needs lambda")
            if not 0.0 <= self.lam <= 1.0:
                raise ValueError(f"pbp needs lambda in [0, 1], got {self.lam}")
        if self.kind == "wpp" and self.gamma is None:
            raise ValueError("wpp needs gamma")
        if self.kind == "ibp":
            if self.eta is None:
                raise ValueError("ibp needs eta")
            if self.centrality not in MEASURES:
                got = "" if self.centrality is None else f", got {self.centrality}"
                raise ValueError(f"ibp needs a centrality from {tuple(MEASURES)}{got}")
        if self.t_past is not None and self.t_past <= 0:
            raise ValueError(f"t_past must be positive, got {self.t_past}")


@dataclass
class ScoredRanking:
    """Items with scores, sorted by decreasing score then ascending id."""

    entries: list[tuple[int, float]]

    def top(self, n: int) -> list[int]:
        return [item for item, _ in self.entries[:n]]


def table_key(spec: PredictorSpec) -> str:
    """A wpp or ibp spec's name, ``wpp(gamma=0.5)`` or ``ibp(pagerank, eta=1.0)``:
    the key of its table in :func:`weight_tables`, and its name in errors."""
    return (f"wpp(gamma={spec.gamma})" if spec.kind == "wpp"
            else f"ibp({spec.centrality}, eta={spec.eta})")


def weight_tables(graph: TemporalBipartiteGraph, influence: dict, specs) -> dict:
    """Map each wpp and ibp spec's :func:`table_key` to its users' weights. A
    wpp table holds ``d**gamma`` at index d - 1 for d = 1..D, the largest user
    degree at the last event; a user collecting in a window has degree 1 or
    more. An ibp table holds every user's influence raised to eta, with
    ``influence[centrality]`` aligned with ``graph.user_ids`` (a missing one
    is a ``ValueError``). Zero influence weighs 0 under a negative eta, not
    inf; 0**0 == 1, so eta = 0 reduces ibp to the plain degree increase."""
    missing = sorted({s.centrality for s in specs if s.kind == "ibp"} - influence.keys())
    if missing:
        raise ValueError(f"influence given for {sorted(influence)}, but ibp needs "
                         f"{missing}: compute them on a social graph")
    if any(s.kind == "wpp" for s in specs):
        degrees = np.arange(1.0, graph.user_degree_vector(graph.t_last).max() + 1)
    tables = {}
    for spec in specs:
        if spec.kind == "wpp":
            tables[table_key(spec)] = degrees**spec.gamma
        elif spec.kind == "ibp":
            values = influence[spec.centrality]
            tables[table_key(spec)] = np.power(values, spec.eta, out=np.zeros(len(values)),
                                               where=(values != 0.0) | (spec.eta >= 0))
    return tables


def score_rows(graph: TemporalBipartiteGraph, specs, test_date, t_past, weights: dict):
    """Score every item at ``test_date`` under each spec, in one pass.

    Returns ``(seen, rows)``: the compact indices of the items collected by
    the test date, and one float64 row per spec aligned with ``item_ids``
    (a total_pop row is the shared degree vector, read-only). The arrays
    the specs share are computed once. Windowed kinds read the window
    ``t_past``; a spec's own ``t_past`` is not read. wpp and ibp gather each
    window event's weight from their table in ``weights``, as
    :func:`weight_tables` builds them: ibp at the event's user, wpp at that
    user's degree on the test date.
    """
    kinds = {spec.kind for spec in specs}
    now = graph.item_degree_vector(test_date).astype(np.float64)
    now.flags.writeable = False  # total_pop's row, and what every other row reads
    seen = np.flatnonzero(now > 0)
    if kinds - {"total_pop"}:  # the degrees at the window start are now less its events
        users, items = graph.window_events(test_date, t_past)
        past = now - np.bincount(items, minlength=graph.num_items)
    if "wpp" in kinds:  # a window user's degree d is at index d - 1 of a wpp table
        degree_slot = graph.user_degree_vector(test_date)[users] - 1

    rows = []
    for spec in specs:
        if spec.kind == "total_pop":
            rows.append(now)
            continue
        if spec.kind in ("recent_pop", "pbp"):
            rows.append(now - (1.0 if spec.kind == "recent_pop" else spec.lam) * past)
            continue
        contrib = weights[table_key(spec)][degree_slot if spec.kind == "wpp" else users]
        # an empty window's bincount is int64, weights or not
        rows.append(np.bincount(items, contrib, graph.num_items).astype(np.float64, copy=False))
    return seen, rows


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
    on ``social_graph``; :func:`weight_tables` rejects a vector of another
    measure. Nothing is logged. The ``social_graph`` parameter stays only
    because the benchmark in ``bench/`` passes it.
    """
    if spec.kind != "total_pop" and spec.t_past is None:
        raise ValueError(f"{spec.kind} needs t_past")
    if spec.kind == "ibp" and influence is None and social_graph is not None:
        influence = compute_influence(social_graph, spec.centrality)
    aligned = {} if influence is None else {influence.measure: influence.lookup(graph.user_ids)}
    seen, (scores,) = score_rows(graph, [spec], test_date, spec.t_past,
                                 weight_tables(graph, aligned, [spec]))
    order = graph.rank_items(scores, seen)
    return ScoredRanking(list(zip(graph.item_ids[order].tolist(), scores[order].tolist())))
