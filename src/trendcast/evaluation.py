"""True rankings, precision and new-entry metrics, test-date averaging.

The *true ranking* at a test date orders items by their degree increase
over the future window ``(t, t + t_future]``. A predictor is scored by:

* ``P_n`` - fraction of its top-n items that are also in the true top-n;
* ``E_n`` - number of *new entries*: items in the future top-n that were
  not in the past top-n (ranked by increase over ``(t - t_past, t]``);
* ``C_n`` - how many of those the predictor placed in its top-n;
* ``Q_n`` - ``C_n / E_n``, undefined (and excluded from averages) when
  ``E_n`` is 0.

The past top-n is restricted to items already seen by the test date, the
same domain the predictors rank; this keeps the guarantee that the pure
degree-increase predictor can never hit a new entry (its top-n *is* the
past top-n).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .events import TemporalBipartiteGraph
from .predictors import PredictorSpec, score_vector, zero_influence_users
from .social import InfluenceVector

log = logging.getLogger(__name__)


@dataclass
class EvalConfig:
    """Window lengths, ranking depth and the test dates to average over."""

    t_past: int
    t_future: int
    test_dates: Sequence[int]
    n: int = 100

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"ranking depth must be >= 1, got {self.n}")
        if self.t_past <= 0 or self.t_future <= 0:
            raise ValueError("window lengths must be positive")
        dates = list(self.test_dates)
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ValueError("test dates must be strictly increasing")
        self.test_dates = dates


@dataclass
class DateMetrics:
    """Metrics of one predictor at one test date."""

    test_date: int
    precision: float          # P_n
    new_entry_count: int      # E_n
    correct_new_entries: int  # C_n

    @property
    def new_entry_rate(self) -> float | None:  # Q_n
        if self.new_entry_count == 0:
            return None
        return self.correct_new_entries / self.new_entry_count


@dataclass
class EvaluationReport:
    spec: PredictorSpec
    config: EvalConfig
    per_date: list[DateMetrics] = field(default_factory=list)

    @property
    def mean_precision(self) -> float:
        return float(np.mean([d.precision for d in self.per_date]))

    @property
    def mean_new_entry_rate(self) -> float | None:
        rates = [d.new_entry_rate for d in self.per_date if d.new_entry_rate is not None]
        return float(np.mean(rates)) if rates else None


def make_test_dates(graph: TemporalBipartiteGraph, count, t_past, t_future) -> list[int]:
    """Regularly spaced test dates with a t_past margin after the data start
    and a t_future margin before its end (so every window is fully covered).
    """
    if count < 1:
        raise ValueError(f"need at least one test date, got {count}")
    lo = graph.t_first + t_past
    hi = graph.t_last - t_future
    if lo > hi:
        raise ValueError(
            f"data span [{graph.t_first}, {graph.t_last}] too short for "
            f"margins t_past={t_past}, t_future={t_future}"
        )
    if count == 1:
        return [int((lo + hi) // 2)]
    return [int(round(t)) for t in np.linspace(lo, hi, count)]


def true_ranking(graph: TemporalBipartiteGraph, test_date, t_future, n) -> list[int]:
    """Top-n item ids by degree increase over ``(test_date, test_date + t_future]``."""
    if test_date + t_future > graph.t_last:
        raise ValueError(
            f"truncated future window: test date {test_date} + {t_future} "
            f"runs past the last event at {graph.t_last}"
        )
    top = graph.top_items_by_increase(test_date + t_future, t_future, n)
    if top and top[0][1] == 0:
        log.warning("degenerate true ranking at %s: no item gained links", test_date)
    return [item for item, _ in top]


def precision(predicted: Sequence[int], truth: Sequence[int], n) -> float:
    """Overlap of the two top-n lists divided by n (order inside the top-n ignored)."""
    return len(set(predicted[:n]) & set(truth[:n])) / n


def new_entries(graph, test_date, t_past, t_future, n) -> tuple[int, set]:
    """Items in the future top-n missing from the past top-n; returns (E_n, the set)."""
    past = graph.top_items_by_increase(test_date, t_past, n, require_seen=True)
    future = graph.top_items_by_increase(test_date + t_future, t_future, n)
    new = {item for item, _ in future} - {item for item, _ in past}
    return len(new), new


def correctly_guessed(predicted: Sequence[int], new_set: set, n) -> int:
    """How many of the new entries the predicted top-n contains (C_n)."""
    return len(set(predicted[:n]) & new_set)


def evaluate(
    graph: TemporalBipartiteGraph,
    spec: PredictorSpec,
    config: EvalConfig,
    influence: InfluenceVector | None = None,
) -> EvaluationReport:
    """Run one predictor over all test dates and collect the metrics.

    An ibp spec needs ``influence``, the vector of its centrality computed on
    the social graph (:func:`trendcast.social.compute_influence`).
    ``spec.t_past`` may be left unset, in which case the config's window is
    used; if both are set they must agree (E_n is defined against the same
    past window the predictor sees).
    """
    if spec.kind == "ibp" and influence is None:
        raise ValueError("ibp evaluation needs the influence vector of a social graph")
    measures = {spec.centrality: influence} if spec.kind == "ibp" else {}
    return evaluate_many(graph, [spec], config, measures)[0]


def evaluate_many(
    graph: TemporalBipartiteGraph,
    specs: Sequence[PredictorSpec],
    config: EvalConfig,
    influence: Mapping[str, InfluenceVector] | None = None,
) -> list[EvaluationReport]:
    """Run every predictor over all test dates; one report per spec, in order.

    The truth top-n, the new-entry set and the seen items depend only on the
    window and the date, so each is computed once per date and every spec is
    scored against it. ``influence`` maps the centrality of each ibp spec to
    its vector. ``spec.t_past`` is resolved as in :func:`evaluate`.
    """
    for spec in specs:
        if spec.t_past is not None and spec.t_past != config.t_past:
            raise ValueError(
                f"predictor t_past={spec.t_past} disagrees with eval t_past={config.t_past}"
            )
    specs = [s if s.kind == "total_pop" else s.with_t_past(config.t_past) for s in specs]
    aligned = {m: v.lookup(graph.user_ids) for m, v in (influence or {}).items()}
    missing = {s.centrality for s in specs if s.kind == "ibp"} - aligned.keys()
    if missing:
        raise ValueError(f"ibp evaluation needs the influence vectors of {sorted(missing)}")

    reports = [EvaluationReport(spec, config) for spec in specs]
    dropped = [[] for _ in specs]  # zero-influence users left out, per spec and date
    n = config.n
    for date in config.test_dates:
        truth = true_ranking(graph, date, config.t_future, n)
        e_n, new_set = new_entries(graph, date, config.t_past, config.t_future, n)
        seen = np.flatnonzero(graph.item_degree_vector(date) > 0)
        for spec, report, users in zip(specs, reports, dropped):
            scores = score_vector(graph, spec, date, aligned.get(spec.centrality))
            predicted = graph.item_ids[graph.rank_items(scores, seen)[:n]].tolist()
            report.per_date.append(DateMetrics(int(date), precision(predicted, truth, n), e_n,
                                               correctly_guessed(predicted, new_set, n)))
            if spec.kind == "ibp" and spec.eta < 0:
                users.append(zero_influence_users(graph, date, config.t_past,
                                                  aligned[spec.centrality]))

    for spec, users in zip(specs, dropped):
        if any(users):
            log.warning(
                "ibp(%s, eta=%g) T_P=%d T_F=%d n=%d: zero-influence users contribute 0 "
                "on %d of %d test dates (up to %d users in one window)",
                spec.centrality, spec.eta, config.t_past, config.t_future, n,
                sum(map(bool, users)), len(users), max(users),
            )
    return reports


SWEEP_COLUMNS = [
    "kind", "lambda", "gamma", "eta", "centrality",
    "T_P", "T_F", "n", "t_star", "P_n", "E_n", "C_n", "Q_n",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    return str(value)


def report_rows(report: EvaluationReport) -> list[list[str]]:
    """Per-date rows plus one summary row (t_star column set to "mean")."""
    spec, cfg = report.spec, report.config
    head = [spec.kind, _fmt(spec.lam), _fmt(spec.gamma), _fmt(spec.eta),
            _fmt(spec.centrality), _fmt(cfg.t_past), _fmt(cfg.t_future), _fmt(cfg.n)]
    rows = []
    for d in report.per_date:
        rows.append(head + [
            _fmt(d.test_date), _fmt(d.precision),
            _fmt(d.new_entry_count), _fmt(d.correct_new_entries),
            _fmt(d.new_entry_rate),
        ])
    mean_e = float(np.mean([d.new_entry_count for d in report.per_date]))
    mean_c = float(np.mean([d.correct_new_entries for d in report.per_date]))
    rows.append(head + [
        "mean", _fmt(report.mean_precision), _fmt(mean_e), _fmt(mean_c),
        _fmt(report.mean_new_entry_rate),
    ])
    return rows


def write_reports_csv(reports: Sequence[EvaluationReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for report in reports:
            writer.writerows(report_rows(report))
