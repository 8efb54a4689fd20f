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


def ibp_weights(graph: TemporalBipartiteGraph, vectors, specs) -> dict:
    """Map each ibp spec's ``(centrality, eta)`` to its users' influence
    raised to eta, one float64 per user of ``graph.user_ids``. ``vectors``
    holds one :class:`InfluenceVector` per measure, ``None`` skipped; two of
    one measure, or none for an ibp spec's centrality, is a ``ValueError``.
    Zero influence, absent users' included, weighs 0 under a negative eta,
    not inf; 0**0 == 1, so eta = 0 reduces ibp to the plain degree increase."""
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
    weights = {}
    for spec in specs:
        if spec.kind != "ibp" or (spec.centrality, spec.eta) in weights:
            continue
        influence = aligned[spec.centrality]
        weights[spec.centrality, spec.eta] = np.power(
            influence, spec.eta, out=np.zeros(len(influence)),
            where=(influence != 0.0) | (spec.eta >= 0))
    return weights


def score_rows(graph: TemporalBipartiteGraph, specs, test_date, t_past, weights: dict):
    """Score every item at ``test_date`` under each spec, in one pass.

    Returns ``(seen, rows)``: the compact indices of the items collected by
    the test date, and one float64 row per spec aligned with ``item_ids``
    (a total_pop row is the shared degree vector, read-only). The arrays
    the specs share are computed once. Windowed kinds read the window
    ``t_past``; a spec's own ``t_past`` is not read. ibp reads its
    per-user weights from ``weights``, as :func:`ibp_weights` returns them.
    A wpp user's weight is their total degree at the test date, at least 1
    for anyone collecting in the window, so 0**gamma never arises.
    """
    kinds = {spec.kind for spec in specs}
    now = graph.item_degree_vector(test_date).astype(np.float64)
    now.flags.writeable = False  # total_pop's row, and what every other row reads
    seen = np.flatnonzero(now > 0)
    if kinds - {"total_pop"}:  # the degrees at the window start are now less its events
        users, items = graph.window_events(test_date, t_past)
        past = now - np.bincount(items, minlength=graph.num_items)
    if "wpp" in kinds:
        degree = graph.user_degree_vector(test_date).astype(np.float64)[users]

    rows = []
    for spec in specs:
        if spec.kind == "total_pop":
            rows.append(now)
            continue
        if spec.kind in ("recent_pop", "pbp"):
            rows.append(now - (1.0 if spec.kind == "recent_pop" else spec.lam) * past)
            continue
        if spec.kind == "wpp":
            contrib = degree**spec.gamma
        else:
            contrib = weights[spec.centrality, spec.eta][users]
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
    on ``social_graph``; :func:`ibp_weights` rejects a vector of another
    measure. Nothing is logged. The ``social_graph`` parameter stays only
    because the benchmark in ``bench/`` passes it.
    """
    if spec.kind != "total_pop" and spec.t_past is None:
        raise ValueError(f"{spec.kind} needs t_past")
    if spec.kind == "ibp" and influence is None and social_graph is not None:
        influence = compute_influence(social_graph, spec.centrality)
    seen, (scores,) = score_rows(graph, [spec], test_date, spec.t_past,
                                 ibp_weights(graph, [influence], [spec]))
    order = graph.rank_items(scores, seen)
    return ScoredRanking(list(zip(graph.item_ids[order].tolist(), scores[order].tolist())))
