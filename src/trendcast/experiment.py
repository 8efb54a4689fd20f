"""Config-driven parameter sweeps over predictors and windows.

Experiment configs are flat ``key = value`` files; repeating a key builds a
grid list. ``#`` starts a comment, blank lines are ignored. Recognized keys:

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
  the (t_past, t_future) grid;
* ``scatter.csv`` - per-item past/future increases at one test date with a
  flag marking the first predictor's top-n picks.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import sys
from dataclasses import dataclass, field

from . import ingestion, predictors, social
from .events import TemporalBipartiteGraph, build
from .evaluation import (EvalConfig, EvaluationReport, evaluate_many, make_test_dates,
                         write_reports_csv)
from .predictors import PredictorSpec

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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            triples.append((lineno, key.strip(), value.strip()))
    return triples


def parse_experiment_config(path) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.n_values = []
    for lineno, key, value in parse_kv_file(path):
        try:
            _apply_key(cfg, key, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not cfg.n_values:
        cfg.n_values = [100]
    return cfg


def _apply_key(cfg: ExperimentConfig, key: str, value: str) -> None:
    if key == "dataset":
        cfg.dataset = value
    elif key == "format":
        cfg.format = value
    elif key == "social":
        cfg.social = value
    elif key == "threshold":
        cfg.threshold = float(value)
    elif key == "subset_users":
        cfg.subset_users = int(value)
    elif key == "min_user_degree":
        cfg.min_user_degree = int(value)
    elif key == "eligibility":
        if value not in ("post", "pre"):
            raise ValueError(f"eligibility must be 'post' or 'pre', got {value!r}")
        cfg.eligibility_pre_threshold = value == "pre"
    elif key == "predictor":
        cfg.predictors.append(value)
    elif key == "lambda":
        cfg.lambdas.append(float(value))
    elif key == "gamma":
        cfg.gammas.append(float(value))
    elif key == "eta":
        cfg.etas.append(float(value))
    elif key == "centrality":
        cfg.centralities.append(value)
    elif key == "t_past":
        cfg.t_past_values.append(int(value))
    elif key == "t_future":
        cfg.t_future_values.append(int(value))
    elif key == "n":
        cfg.n_values.append(int(value))
    elif key == "test_dates":
        cfg.num_test_dates = int(value)
    elif key == "seed":
        cfg.seed = int(value)
    elif key == "out":
        cfg.out_dir = value
    else:
        cfg.unknown_keys.append(key)


def predictor_specs(cfg: ExperimentConfig) -> list[PredictorSpec]:
    """Expand the per-kind parameter grids, in config order."""
    specs = []
    for kind in cfg.predictors:
        if kind == "total_pop":
            specs.append(PredictorSpec("total_pop"))
        elif kind == "recent_pop":
            specs.append(PredictorSpec("recent_pop"))
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
    """Collect every problem with the config; empty list means runnable."""
    return _check(cfg)[0]


def _check(cfg: ExperimentConfig) -> tuple[list[str], TemporalBipartiteGraph | None]:
    """The problems :func:`validate` reports, and the dataset graph if it loaded."""
    problems = []
    for key in cfg.unknown_keys:
        problems.append(f"unknown config key {key!r}")
    if not cfg.dataset:
        problems.append("no dataset configured")
    elif not os.path.exists(cfg.dataset):
        problems.append(f"dataset file not found: {cfg.dataset}")
    if cfg.format not in ("votes", "ratings"):
        problems.append(f"unknown dataset format {cfg.format!r}")
    if cfg.social is not None and not os.path.exists(cfg.social):
        problems.append(f"social graph file not found: {cfg.social}")
    if not cfg.predictors:
        problems.append("no predictors configured")
    for kind in cfg.predictors:
        if kind not in predictors.KINDS:
            problems.append(f"unknown predictor kind {kind!r}")
    if "pbp" in cfg.predictors and not cfg.lambdas:
        problems.append("pbp requested but no lambda values given")
    if "ibp" in cfg.predictors:
        if cfg.social is None:
            problems.append("ibp requested but no social graph configured")
        if not cfg.centralities:
            problems.append("ibp requested but no centrality given")
    for measure in cfg.centralities:
        if measure not in social.MEASURES:
            problems.append(f"unknown centrality {measure!r}")
    for lam in cfg.lambdas:
        if not 0.0 <= lam <= 1.0:
            problems.append(f"lambda {lam} outside [0, 1]")
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

    graph = None
    if not problems:
        try:
            spec = ingestion.DatasetSpec(
                format=cfg.format, threshold=cfg.threshold, subset_users=cfg.subset_users,
                min_user_degree=cfg.min_user_degree, rng_seed=cfg.seed,
                eligibility_pre_threshold=cfg.eligibility_pre_threshold,
            )
            graph = build(ingestion.load_dataset(cfg.dataset, spec))
        except (ValueError, OSError) as exc:
            problems.append(f"cannot load dataset: {exc}")
        else:
            # the dates keep a t_future margin, so every future window is covered
            for t_past in cfg.t_past_values:
                for t_future in cfg.t_future_values:
                    try:
                        make_test_dates(graph, cfg.num_test_dates, t_past, t_future)
                    except ValueError as exc:
                        problems.append(str(exc))
    return problems, graph


def run_sweep(cfg: ExperimentConfig, workers: int | None = None, json_summary: bool = False) -> int:
    """Validate, evaluate the whole grid, write the CSV outputs.

    ``workers`` is accepted for compatibility and ignored: the sweep runs in
    this process. Returns a process exit status: 0 on success, 1 when
    validation or any evaluation failed.
    """
    problems, graph = _check(cfg)
    if problems:
        for p in problems:
            log.error("config: %s", p)
        return 1

    log.info("loaded %r", graph)
    influence = {}
    if "ibp" in cfg.predictors:  # only ibp reads the social graph
        social_graph = social.load_social_graph(cfg.social)
        for measure in cfg.centralities:
            infl = influence[measure] = social.compute_influence(social_graph, measure)
            log.info("%s influence: %d sweeps, relative residual %.3e, converged %s",
                     measure, infl.iterations_used, infl.residual, infl.converged)

    specs = predictor_specs(cfg)
    grid = []  # one report per spec for each (t_past, t_future, n), in that nesting
    heat_reports = []
    try:
        for t_past in cfg.t_past_values:
            for t_future in cfg.t_future_values:
                dates = make_test_dates(graph, cfg.num_test_dates, t_past, t_future)
                for j, n in enumerate(cfg.n_values):
                    # the heatmap's recent_pop is scored along with the first n
                    heat = [PredictorSpec("recent_pop")] if j == 0 else []
                    config = EvalConfig(t_past, t_future, dates, n)
                    reports = evaluate_many(graph, specs + heat, config, influence)
                    if heat:
                        heat_reports.append(reports.pop())
                    grid.append(reports)
    except ValueError as exc:
        log.error("evaluation failed: %s", exc)
        return 1

    os.makedirs(cfg.out_dir, exist_ok=True)
    sweep_reports = [reports[k] for k in range(len(specs)) for reports in grid]
    write_reports_csv(sweep_reports, os.path.join(cfg.out_dir, "sweep.csv"))
    _write_heatmap(heat_reports, os.path.join(cfg.out_dir, "heatmap.csv"))
    _write_scatter(graph, sweep_reports[0], influence, os.path.join(cfg.out_dir, "scatter.csv"))
    log.info("wrote sweep.csv, heatmap.csv, scatter.csv to %s", cfg.out_dir)

    if json_summary:
        for report in sweep_reports:
            line = {
                "kind": report.spec.kind,
                "lambda": report.spec.lam,
                "gamma": report.spec.gamma,
                "eta": report.spec.eta,
                "centrality": report.spec.centrality,
                "T_P": report.config.t_past,
                "T_F": report.config.t_future,
                "n": report.config.n,
                "dates": len(report.per_date),
                "mean_P_n": report.mean_precision,
                "mean_Q_n": report.mean_new_entry_rate,
            }
            sys.stdout.write(json.dumps(line) + "\n")
    return 0


def _write_heatmap(reports: list[EvaluationReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["T_P", "T_F", "P_n"])
        for report in reports:
            writer.writerow([report.config.t_past, report.config.t_future,
                             report.mean_precision])


def _write_scatter(graph, report: EvaluationReport, influence, path) -> None:
    """Past vs future increase for every active item at one test date, with
    the first grid predictor's top-n picks flagged."""
    config, spec = report.config, report.spec
    date = config.test_dates[len(config.test_dates) // 2]
    ranking = predictors.score(graph, spec, date, influence=influence.get(spec.centrality))
    picked = set(ranking.top(config.n))
    past = graph.item_increase_vector(date, config.t_past)
    future = graph.item_increase_vector(date + config.t_future, config.t_future)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item", "past_increase", "future_increase", "predicted_top_n"])
        for pos, item in enumerate(graph.item_ids):
            flag = int(item) in picked
            if past[pos] or future[pos] or flag:
                writer.writerow([int(item), int(past[pos]), int(future[pos]), int(flag)])
