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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .events import TemporalBipartiteGraph
from .predictors import PredictorSpec, score_rows


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
    specs: Sequence[PredictorSpec],
    configs: Sequence[EvalConfig],
    weights: dict | None = None,
) -> list[list[EvaluationReport]]:
    """Run every predictor over one window at every ranking depth.

    ``configs`` share their ``t_past``, ``t_future`` and test dates and
    differ in ``n``; the result holds one report list per config, one report
    per spec, in order. Per date, one :func:`trendcast.predictors.score_rows`
    pass scores the past increase (recent_pop's row) and every spec, and
    ``graph.rank_items`` ranks the truth, the past increase and each row
    once; each n cuts those rankings at n. ``weights`` holds every ibp
    spec's user weights, as :func:`trendcast.predictors.ibp_weights` returns
    them once for a whole sweep. A spec's ``t_past`` may be left unset, in
    which case the window's is used; if both are set they must agree (E_n is
    defined against the same past window the predictor sees). Every test
    date's future window is checked before any date is scored. Nothing is
    logged: at a date where no item gains links in that window, every item
    ties at 0, so the true top-n is the n lowest ids and P_n counts padding.
    """
    if len({(c.t_past, c.t_future, tuple(c.test_dates)) for c in configs}) != 1:
        raise ValueError("the configs must share one window: t_past, t_future and test dates")
    window = configs[0]
    for spec in specs:
        if spec.t_past is not None and spec.t_past != window.t_past:
            raise ValueError(f"predictor t_past={spec.t_past} disagrees with eval "
                             f"t_past={window.t_past}")
        if spec.kind == "ibp" and (spec.centrality, spec.eta) not in (weights or {}):
            raise ValueError(f"no weights for ibp({spec.centrality}, eta={spec.eta})")
    specs = [s if s.kind == "total_pop" else s.with_t_past(window.t_past) for s in specs]
    past_increase = PredictorSpec("recent_pop", t_past=window.t_past)
    for date in window.test_dates:
        if date + window.t_future > graph.t_last:
            raise ValueError(f"truncated future window: test date {date} + {window.t_future} "
                             f"runs past the last event at {graph.t_last}")

    reports = [[EvaluationReport(spec, config) for spec in specs] for config in configs]
    for date in window.test_dates:
        future = graph.item_increase_vector(date + window.t_future, window.t_future)
        truth = graph.rank_items(future, np.arange(graph.num_items))
        seen, (past, *rows) = score_rows(graph, [past_increase, *specs], date, window.t_past,
                                         weights)
        past_top = graph.rank_items(past, seen)
        rankings = [graph.rank_items(row, seen) for row in rows]
        for config, config_reports in zip(configs, reports):
            n = config.n
            in_truth = np.zeros(graph.num_items, dtype=bool)
            in_truth[truth[:n]] = True
            is_new = in_truth.copy()
            is_new[past_top[:n]] = False
            e_n = np.count_nonzero(is_new)
            for ranking, report in zip(rankings, config_reports):
                predicted = ranking[:n]
                p_n = np.count_nonzero(in_truth[predicted]) / n
                c_n = np.count_nonzero(is_new[predicted])
                report.per_date.append(DateMetrics(int(date), p_n, e_n, c_n))
    return reports
