"""Config-driven parameter sweeps over predictors and windows.

Experiment configs are flat ``key = value`` files; repeating a key marked
repeatable builds a grid list, and repeating any other is an error. ``#``
starts a comment, blank lines are ignored. Recognized keys:

    dataset = events.csv          # required; path to the event CSV
    format = votes                # votes | ratings
    social = edges.txt            # needed by ibp predictors
    threshold = 3.0               # ratings only
    subset_users = 5000           # ratings only, optional
    min_user_degree = 20
    eligibility = post            # post | pre (threshold order for subsetting)
    predictor = recent_pop        # repeatable: total_pop recent_pop pbp wpp ibp
    lambda = 0.9                  # repeatable; pbp grid
    gamma = 0.5                   # repeatable; wpp grid
    eta = 1.0                     # repeatable; ibp grid
    centrality = pagerank         # repeatable; ibp grid
    t_past = 86400                # repeatable; seconds
    t_future = 86400              # repeatable; seconds
    n = 100                       # repeatable; ranking depth
    test_dates = 7                # count of regularly spaced test dates
    seed = 0
    out = results                 # output directory

Outputs (written under the output directory):

* ``sweep.csv``   - per test date and summary metrics for every grid point;
* ``heatmap.csv`` - mean precision of the windowed-increase predictor on
  the (t_past, t_future) grid, at the first configured n (it has no n
  column);
* ``scatter.csv`` - per-item past/future increases at one test date with a
  flag marking the first predictor's top-n picks at the first configured n.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import ingestion, predictors, social
from .events import build
from .evaluation import EvalConfig, EvaluationReport, evaluate, make_test_dates
from .predictors import PredictorSpec, score_rows

log = logging.getLogger(__name__)

DEFAULT_GAMMA_GRID = [round(-1.0 + 0.1 * k, 1) for k in range(21)]
DEFAULT_ETA_GRID = [round(-1.0 + 0.1 * k, 1) for k in range(21)]

@dataclass
class ExperimentConfig:
    dataset: str = ""
    format: str = "votes"
    social: str | None = None
    threshold: float = 3.0
    subset_users: int | None = None
    min_user_degree: int = 20
    eligibility_pre_threshold: bool = False
    predictors: list[str] = field(default_factory=list)
    lambdas: list[float] = field(default_factory=list)
    gammas: list[float] = field(default_factory=list)
    etas: list[float] = field(default_factory=list)
    centralities: list[str] = field(default_factory=list)
    t_past_values: list[int] = field(default_factory=list)
    t_future_values: list[int] = field(default_factory=list)
    n_values: list[int] = field(default_factory=lambda: [100])
    num_test_dates: int = 7
    seed: int = 0
    out_dir: str = "results"
    unknown_keys: list[str] = field(default_factory=list)


def parse_kv_file(path) -> list[tuple[int, str, str]]:
    """Parse a flat key=value file into (lineno, key, value) triples."""
    triples = []
    for lineno, raw in enumerate(ingestion.text_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = line.split("=", 1)
        triples.append((lineno, key.strip(), value.strip()))
    return triples


# sweep key -> (the ExperimentConfig field it sets, the type of its value)
SWEEP_KEYS = {
    "dataset": ("dataset", str), "format": ("format", str), "social": ("social", str),
    "threshold": ("threshold", float), "subset_users": ("subset_users", int),
    "min_user_degree": ("min_user_degree", int),
    "eligibility": ("eligibility_pre_threshold", {"post": False, "pre": True}),
    "predictor": ("predictors", str), "lambda": ("lambdas", float), "gamma": ("gammas", float),
    "eta": ("etas", float), "centrality": ("centralities", str),
    "t_past": ("t_past_values", int), "t_future": ("t_future_values", int),
    "n": ("n_values", int), "test_dates": ("num_test_dates", int), "seed": ("seed", int),
    "out": ("out_dir", str),
}


def parse_value(key: str, raw: str, type):
    """Convert one config value to ``type``: ``str``, ``int``, ``float`` (``inf``
    may be spelled ``infinite``) or a dict from each allowed word to its value.
    Raises ``ValueError("<key> must be ..., got '<raw>'")``."""
    if isinstance(type, dict):
        if raw not in type:
            raise ValueError(f"{key} must be {' or '.join(map(repr, type))}, got {raw!r}")
        return type[raw]
    try:
        return type("inf" if raw == "infinite" and type is float else raw)
    except ValueError:
        kind = "an integer" if type is int else "a number"
        raise ValueError(f"{key} must be {kind}, got {raw!r}") from None


def parse_experiment_config(path) -> ExperimentConfig:
    """Read a sweep config; unknown keys are kept for :func:`validate`."""
    cfg, first = ExperimentConfig(n_values=[]), {}
    for lineno, key, raw in parse_kv_file(path):
        if key not in SWEEP_KEYS:
            cfg.unknown_keys.append(key)
            continue
        name, type = SWEEP_KEYS[key]
        current = getattr(cfg, name)  # a list field collects every value
        try:
            if first.setdefault(key, lineno) != lineno and not isinstance(current, list):
                raise ValueError(f"{key} is already set on line {first[key]}")
            value = parse_value(key, raw, type)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        setattr(cfg, name, current + [value] if isinstance(current, list) else value)
    cfg.n_values = cfg.n_values or [100]
    return cfg


def predictor_specs(cfg: ExperimentConfig) -> list[PredictorSpec]:
    """Expand the per-kind parameter grids, in config order."""
    specs = []
    for kind in cfg.predictors:
        if kind in ("total_pop", "recent_pop"):
            specs.append(PredictorSpec(kind))
        elif kind == "pbp":
            specs.extend(PredictorSpec("pbp", lam=v) for v in cfg.lambdas)
        elif kind == "wpp":
            gammas = cfg.gammas or DEFAULT_GAMMA_GRID
            specs.extend(PredictorSpec("wpp", gamma=v) for v in gammas)
        elif kind == "ibp":
            etas = cfg.etas or DEFAULT_ETA_GRID
            for measure in cfg.centralities:
                specs.extend(PredictorSpec("ibp", eta=v, centrality=measure) for v in etas)
    return specs


def validate(cfg: ExperimentConfig) -> list[str]:
    """Collect every problem with the config; empty list means runnable.
    This is all of :func:`run_sweep`'s set-up, warnings included, logged as a run logs it."""
    return _check(cfg)[0]


def load_inputs(dataset, dataset_spec, social_path, specs):
    """The set-up every verb shares and the one place that logs it: load and
    build the dataset; if an ibp spec of ``specs`` reads it, load the social
    graph (one with no edges is a failure) and, if both loads passed, compute
    each centrality of the ibp specs, at WARNING if it did not converge, and
    align it with the dataset's users once. One that a spec raises to a
    negative eta also warns, counting the dataset's users of influence 0,
    absent users included. Then it builds the weight tables, and a spec whose
    weights could overflow float64 fails: a row sums at most the largest item
    degree's count of its table's entries. Returns ``(graph, tables,
    failures)``, with ``(prefix, exception)`` per failure: the dataset's load,
    the social graph's, then each overflowing spec, unprefixed; the graph is
    None if the dataset failed. No centrality fails: a social graph with an
    edge has two users, and each spec has checked its centrality."""
    measures = dict.fromkeys(s.centrality for s in specs if s.kind == "ibp")
    graph, social_graph, failures = None, None, []
    try:
        graph = build(ingestion.load_dataset(dataset, dataset_spec))
        if graph.duplicates_collapsed:
            log.debug("collapsed %d duplicate user-item events", graph.duplicates_collapsed)
    except (ValueError, OSError) as exc:
        failures.append(("cannot load dataset: ", exc))
    if measures:  # only ibp reads the social graph
        try:
            social_graph = social.load_social_graph(social_path)
            if social_graph.self_loops_dropped or social_graph.duplicates_dropped:
                log.info("%s: dropped %d self-loops, collapsed %d duplicate edges", social_path,
                         social_graph.self_loops_dropped, social_graph.duplicates_dropped)
            if social_graph.num_links == 0:  # comments, blank lines or self-loops only
                raise ValueError(f"{social_path}: no edges")
        except (ValueError, OSError) as exc:
            failures.append(("cannot load social graph: ", exc))
    if failures:
        return graph, {}, failures
    log.info("loaded %r", graph)
    influence = {}
    for measure in measures:
        infl = social.compute_influence(social_graph, measure)
        log.log(logging.INFO if infl.converged else logging.WARNING,
                "%s influence: %d sweeps, relative residual %.3e, converged %s",
                measure, infl.iterations_used, infl.residual, infl.converged)
        influence[measure] = infl.lookup(graph.user_ids)  # absent users' influence is 0
        zero = np.count_nonzero(influence[measure] == 0.0)
        if zero and any(s.eta < 0 for s in specs if s.centrality == measure):
            log.warning("ibp(%s): %d of %d users are zero-influence and contribute 0 "
                        "under eta < 0", measure, zero, graph.num_users)
    with np.errstate(over="ignore"):  # an overflow is the failure below, not a numpy warning
        tables = predictors.weight_tables(graph, influence, specs)
        if tables:
            most = graph.item_degree_vector(graph.t_last).max()
            failures += [("", ValueError(f"{name}: weights overflow float64"))
                         for name, table in tables.items() if not np.isfinite(most * table.max())]
    return graph, tables, failures


def _check(cfg: ExperimentConfig):
    """The whole set-up of :func:`run_sweep`: the config rules, then
    :func:`load_inputs` and the test dates, with one warning per window naming
    its degenerate dates, where no item gains links in the future window.
    Returns the problems and, to read only when there are none, the specs, the
    graph, the weight tables and each window's ``(t_past, t_future, test
    dates)``, t_past outermost."""
    problems = [f"unknown config key {key!r}" for key in dict.fromkeys(cfg.unknown_keys)]
    for key, (name, _) in SWEEP_KEYS.items():
        values = getattr(cfg, name)  # a repeatable key's values, compared as parsed
        if isinstance(values, list):
            problems += [f"{key} {v} is listed more than once"
                         for v in dict.fromkeys(values) if values.count(v) > 1]
    if not cfg.dataset:
        problems.append("no dataset configured")
    elif not os.path.exists(cfg.dataset):
        problems.append(f"dataset file not found: {cfg.dataset}")
    if "ibp" in cfg.predictors and cfg.social and not os.path.exists(cfg.social):
        problems.append(f"social graph file not found: {cfg.social}")
    if not cfg.predictors:
        problems.append("no predictors configured")
    for kind in cfg.predictors:
        if kind not in predictors.KINDS:
            problems.append(f"unknown predictor kind {kind!r}")
    if "pbp" in cfg.predictors and not cfg.lambdas:
        problems.append("pbp requested but no lambda values given")
    if "ibp" in cfg.predictors:
        if not cfg.social:
            problems.append("ibp requested but no social graph configured")
        if not cfg.centralities:
            problems.append("ibp requested but no centrality given")
    for measure in cfg.centralities:
        if measure not in social.MEASURES:
            problems.append(f"unknown centrality {measure!r}")
    for lam in cfg.lambdas:
        if not 0.0 <= lam <= 1.0:
            problems.append(f"lambda {lam} outside [0, 1]")
    for key, values in (("gamma", cfg.gammas), ("eta", cfg.etas)):
        problems += [f"{key} {v} is not finite" for v in values if not math.isfinite(v)]
    if not cfg.t_past_values:
        problems.append("no t_past values given")
    if not cfg.t_future_values:
        problems.append("no t_future values given")
    if any(v <= 0 for v in cfg.t_past_values + cfg.t_future_values):
        problems.append("window lengths must be positive")
    if any(v < 1 for v in cfg.n_values):
        problems.append("n must be >= 1")
    if cfg.num_test_dates < 1:
        problems.append("test_dates must be >= 1")
    # run makes the output directory only after evaluating the whole grid
    ancestor = os.path.normpath(cfg.out_dir)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor) or "."
    if not cfg.out_dir:
        problems.append("no out directory given")
    elif not os.path.isdir(ancestor):
        problems.append(f"cannot make out directory {cfg.out_dir}: {ancestor} is not a directory")

    try:
        spec = ingestion.DatasetSpec(
            format=cfg.format, threshold=cfg.threshold, subset_users=cfg.subset_users,
            min_user_degree=cfg.min_user_degree, rng_seed=cfg.seed,
            eligibility_pre_threshold=cfg.eligibility_pre_threshold,
        )
    except ValueError as exc:
        problems.append(str(exc))

    if problems:
        return problems, [], None, {}, []

    specs = predictor_specs(cfg)
    graph, tables, failures = load_inputs(cfg.dataset, spec, cfg.social, specs)
    problems = [prefix + str(exc) for prefix, exc in failures]
    windows = []
    if graph is not None:
        for n in sorted({n for n in cfg.n_values if n > graph.num_items}):
            log.warning("n = %d exceeds the %d items of %s: the true top-n holds every "
                        "item, so P_n stays below 1", n, graph.num_items, cfg.dataset)
        # the dates keep a t_future margin, so every future window is covered
        for t_past in cfg.t_past_values:
            for t_future in cfg.t_future_values:
                try:
                    dates = make_test_dates(graph, cfg.num_test_dates, t_past, t_future)
                except ValueError as exc:
                    problems.append(str(exc))
                else:
                    windows.append((t_past, t_future, dates))
                    degenerate = [str(d) for d in dates
                                  if not len(graph.window_events(d + t_future, t_future)[1])]
                    if degenerate:
                        log.warning("degenerate true ranking at %d of %d test dates (%s): no "
                                    "item gained links", len(degenerate), len(dates),
                                    ", ".join(degenerate))
    return problems, specs, graph, tables, windows


def run_sweep(cfg: ExperimentConfig, workers: int | None = None, json_summary: bool = False) -> int:
    """Set up as :func:`validate` does, then evaluate the whole grid and
    write the CSV outputs.

    ``workers`` is ignored, since the sweep runs in this process; it stays
    only because the benchmark in ``bench/`` passes it. Returns 1 when the
    set-up found a problem, each logged as one ``config:`` error line, else 0
    once the outputs are written. Nothing else is caught: an exception from
    the grid or the writes propagates.
    """
    problems, specs, graph, weights, windows = _check(cfg)
    if problems:
        for p in problems:
            log.error("config: %s", p)
        return 1

    grid = []  # one report per spec for each (t_past, t_future, n), in that nesting
    for t_past, t_future, dates in windows:
        grid += evaluate(graph, specs, [EvalConfig(t_past, t_future, dates, n)
                                        for n in cfg.n_values], weights)

    os.makedirs(cfg.out_dir, exist_ok=True)
    sweep_reports = [reports[k] for k in range(len(specs)) for reports in grid]
    write_reports_csv(sweep_reports, os.path.join(cfg.out_dir, "sweep.csv"))
    _write_heatmap([reports[0] for reports in grid[::len(cfg.n_values)]], graph.num_items,
                   os.path.join(cfg.out_dir, "heatmap.csv"))
    _write_scatter(graph, sweep_reports[0], weights, os.path.join(cfg.out_dir, "scatter.csv"))
    log.info("wrote sweep.csv, heatmap.csv, scatter.csv to %s", cfg.out_dir)

    if json_summary:
        for report in sweep_reports:
            line = dict(zip(SWEEP_COLUMNS, _grid_point(report)), dates=len(report.per_date),
                        mean_P_n=report.mean_precision, mean_Q_n=report.mean_new_entry_rate)
            sys.stdout.write(json.dumps(line) + "\n")
    return 0


SWEEP_COLUMNS = [
    "kind", "lambda", "gamma", "eta", "centrality",
    "T_P", "T_F", "n", "t_star", "P_n", "E_n", "C_n", "Q_n",
]


def _grid_point(report: EvaluationReport) -> list:
    """The values of the first eight ``SWEEP_COLUMNS``, which name the report's
    grid point: kind, lambda, gamma, eta, centrality, T_P, T_F and n."""
    spec, cfg = report.spec, report.config
    return [spec.kind, spec.lam, spec.gamma, spec.eta, spec.centrality,
            cfg.t_past, cfg.t_future, cfg.n]


def _fmt(value) -> str:
    if value is None:
        return ""
    return str(value)


def report_rows(report: EvaluationReport) -> list[list[str]]:
    """Per-date rows plus one summary row (t_star column set to "mean")."""
    head, dates = _grid_point(report), report.per_date
    rows = [head + [d.test_date, d.precision, d.new_entry_count, d.correct_new_entries,
                    d.new_entry_rate] for d in dates]
    rows.append(head + ["mean", report.mean_precision,
                        float(np.mean([d.new_entry_count for d in dates])),
                        float(np.mean([d.correct_new_entries for d in dates])),
                        report.mean_new_entry_rate])
    return [[_fmt(v) for v in row] for row in rows]


def write_reports_csv(reports: Sequence[EvaluationReport], path) -> None:
    ingestion.write_csv(path, SWEEP_COLUMNS,
                        (row for report in reports for row in report_rows(report)))


def _write_heatmap(reports: list[EvaluationReport], num_items: int, path) -> None:
    """Per report's window, recent_pop's mean P_n at the report's n. Its top-n
    *is* the past top-n, which holds every true top-n item but the E_n new
    entries, so its P_n at a date is ``(min(n, num_items) - E_n) / n``."""
    ingestion.write_csv(path, ["T_P", "T_F", "P_n"], (
        [r.config.t_past, r.config.t_future,
         float(np.mean([(min(r.config.n, num_items) - d.new_entry_count) / r.config.n
                        for d in r.per_date]))]
        for r in reports))


def _write_scatter(graph, report: EvaluationReport, weights, path) -> None:
    """Past vs future increase for every active item at one test date, with
    the first grid predictor's top-n picks flagged: its row, scored with the
    run's ``weights``, cut at n as :func:`trendcast.evaluation.evaluate` cuts it."""
    config, spec = report.config, report.spec
    date = config.test_dates[len(config.test_dates) // 2]
    seen, (row,) = score_rows(graph, [spec], date, config.t_past, weights)
    picked = set(graph.item_ids[graph.rank_items(row, seen)[:config.n]].tolist())
    past = graph.item_increase_vector(date, config.t_past)
    future = graph.item_increase_vector(date + config.t_future, config.t_future)
    rows = ([item, int(past[pos]), int(future[pos]), int(item in picked)]
            for pos, item in enumerate(graph.item_ids.tolist())
            if past[pos] or future[pos] or item in picked)
    ingestion.write_csv(path, ["item", "past_increase", "future_increase", "predicted_top_n"], rows)
