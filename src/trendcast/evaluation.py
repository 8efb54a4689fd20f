"""P_n, E_n, C_n and Q_n per test date, and their test-date averages.

The *true ranking* at a test date orders items by their degree increase
over the future window ``(t, t + t_future]``. A predictor is scored by:

* ``P_n`` - fraction of its top-n items that are also in the true top-n;
* ``E_n`` - number of *new entries*: items in the future top-n that were
  not in the past top-n (ranked by increase over ``(t - t_past, t]``);
* ``C_n`` - how many of those the predictor placed in its top-n;
* ``Q_n`` - ``C_n / E_n``, undefined (and excluded from averages) when
  ``E_n`` is 0.

All three top-n lists are cut from ``TemporalBipartiteGraph.rank_items``,
ties by ascending id. The truth ranks every item, the past top-n only the
items seen by the test date, as the predictors do, so the pure increase
predictor can never hit a new entry (its top-n *is* the past top-n).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .events import TemporalBipartiteGraph
from .ingestion import write_csv
from .predictors import PredictorSpec, Window, align, score_vector
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
        if not dates:
            raise ValueError("need at least one test date")
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
    Raises ``ValueError`` when the span holds fewer than ``count`` distinct
    integer dates, or when the dates, spaced in float64, do not come out
    strictly increasing inside the span (as they may beyond 2**53).
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
    if count > hi - lo + 1:
        raise ValueError(
            f"test_dates = {count} exceeds the {hi - lo + 1} distinct dates in "
            f"[{lo}, {hi}] (the data span less t_past={t_past}, t_future={t_future})"
        )
    if count == 1:
        dates = [int((lo + hi) // 2)]
    else:
        dates = [int(round(t)) for t in np.linspace(lo, hi, count)]
    if dates[0] < lo or dates[-1] > hi or any(a >= b for a, b in zip(dates, dates[1:])):
        raise ValueError(f"cannot space test_dates = {count} strictly increasing in [{lo}, {hi}] "
                         f"at float64 precision (the data span less t_past={t_past}, "
                         f"t_future={t_future})")
    return dates


def evaluate(
    graph: TemporalBipartiteGraph,
    spec: PredictorSpec,
    config: EvalConfig,
    influence: InfluenceVector | None = None,
) -> EvaluationReport:
    """Run one predictor over all test dates and collect the metrics.

    An ibp spec needs ``influence``, the vector of its centrality computed on
    the social graph (:func:`trendcast.social.compute_influence`); a missing
    vector or one of another measure is a ``ValueError``. ``spec.t_past`` may be
    left unset, in which case the config's window is used; if both are set they
    must agree (E_n is defined against the same past window the predictor sees).
    """
    return evaluate_many(graph, [spec], config, [influence])[0]


def evaluate_many(
    graph: TemporalBipartiteGraph,
    specs: Sequence[PredictorSpec],
    config: EvalConfig,
    influence: Iterable[InfluenceVector] = (),
) -> list[EvaluationReport]:
    """Run every predictor over all test dates; one report per spec, in order.

    Per date, one :class:`Window` holds what the scores read, and the true
    and the past top-n, ranked by ``graph.rank_items`` as each spec's top-n
    is, become two item masks (the true top-n, the new entries) that every
    spec is counted against. ``influence`` holds one vector per measure,
    aligned by :func:`trendcast.predictors.align`, and must cover the
    centrality of every ibp spec. ``spec.t_past`` is resolved as in
    :func:`evaluate`. It does not warn about the zero-influence users that
    ibp leaves out under a negative eta: ``trendcast validate``/``run`` and
    :func:`trendcast.predictors.score` count them.
    """
    for spec in specs:
        if spec.t_past is not None and spec.t_past != config.t_past:
            raise ValueError(
                f"predictor t_past={spec.t_past} disagrees with eval t_past={config.t_past}"
            )
    specs = [s if s.kind == "total_pop" else s.with_t_past(config.t_past) for s in specs]
    aligned = align(graph, influence, specs)

    reports = [EvaluationReport(spec, config) for spec in specs]
    n = config.n
    for date in config.test_dates:
        if date + config.t_future > graph.t_last:
            raise ValueError(
                f"truncated future window: test date {date} + {config.t_future} "
                f"runs past the last event at {graph.t_last}"
            )
        future = graph.item_increase_vector(date + config.t_future, config.t_future)
        truth = graph.rank_items(future, np.arange(graph.num_items))[:n]
        if future[truth[0]] == 0:
            log.warning("degenerate true ranking at %s: no item gained links", date)
        window = Window(graph, date, config.t_past, aligned)
        # the degrees are exact in float64, so this is the integer past increase
        past_top = graph.rank_items(window.now - window.past, window.seen)[:n]
        in_truth = np.zeros(graph.num_items, dtype=bool)
        in_truth[truth] = True
        is_new = in_truth.copy()
        is_new[past_top] = False
        e_n = np.count_nonzero(is_new)
        for spec, report in zip(specs, reports):
            predicted = graph.rank_items(score_vector(spec, window), window.seen)[:n]
            p_n = np.count_nonzero(in_truth[predicted]) / n
            c_n = np.count_nonzero(is_new[predicted])
            report.per_date.append(DateMetrics(int(date), p_n, e_n, c_n))
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
    write_csv(path, SWEEP_COLUMNS, (row for report in reports for row in report_rows(report)))
