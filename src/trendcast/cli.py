"""Command line entry point.

Verbs:

* ``trendcast run <config>``      - run the configured parameter sweep;
* ``trendcast validate <config>`` - print config diagnostics, run nothing;
* ``trendcast gen <gen-config>``  - generate synthetic datasets;
* ``trendcast rank <dataset>``    - one-shot prediction, print the top n.

Progress and warnings go to stderr (level set via the TRENDCAST_LOG
environment variable), data goes to files, and machine-readable summaries
to stdout.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from . import ingestion, predictors, social, synthgen
from .events import build
from .experiment import parse_experiment_config, parse_kv_file, run_sweep, validate

log = logging.getLogger(__name__)


def _setup_logging() -> None:
    level = os.environ.get("TRENDCAST_LOG", "INFO").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _parse_spec_string(text: str) -> predictors.PredictorSpec:
    """Parse "kind,key=value,..." into a PredictorSpec.

    Example: ``pbp,lambda=0.9,t_past=5184000``.
    """
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty predictor spec")
    kind, kwargs = parts[0], {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"expected key=value in predictor spec, got {part!r}")
        key, value = (s.strip() for s in part.split("=", 1))
        if key == "lambda":
            kwargs["lam"] = float(value)
        elif key in ("gamma", "eta"):
            kwargs[key] = float(value)
        elif key == "t_past":
            kwargs["t_past"] = int(value)
        elif key == "centrality":
            kwargs["centrality"] = value
        else:
            raise ValueError(f"unknown predictor spec key {key!r}")
    return predictors.PredictorSpec(kind, **kwargs)


def _cmd_run(args) -> int:
    cfg = parse_experiment_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    return run_sweep(cfg, workers=args.workers, json_summary=args.json_summary)


def _cmd_validate(args) -> int:
    cfg = parse_experiment_config(args.config)
    problems = validate(cfg)
    for p in problems:
        sys.stdout.write(p + "\n")
    return 1 if problems else 0


def _cmd_gen(args) -> int:
    values = {}
    for _, key, value in parse_kv_file(args.config):
        values[key] = value

    def _num(key, default=None, cast=int):
        if key not in values:
            return default
        raw = values[key]
        return math.inf if raw in ("inf", "infinite") else cast(raw)

    out_dir = args.out or values.get("out", ".")
    os.makedirs(out_dir, exist_ok=True)
    seed = args.seed if args.seed is not None else _num("seed", 0)

    if "events" in values:
        config = synthgen.GenConfig(
            num_users=_num("users"),
            num_items=_num("items"),
            num_events=_num("events"),
            item_arrival_rate=_num("arrival_rate", math.inf, float),
            decay_timescale=_num("theta", math.inf, float),
            pa_offset=_num("pa_offset", 1.0, float),
            activity_exponent=_num("activity_exponent", 0.0, float),
            rng_seed=seed,
        )
        events = synthgen.generate(config)
        path = os.path.join(out_dir, values.get("votes_out", "events.csv"))
        ingestion.write_votes_csv(events, path)
        log.info("wrote %d events to %s", len(events), path)

    if "social_edges" in values:
        edges = synthgen.generate_social(
            num_users=_num("social_users"),
            num_edges=_num("social_edges"),
            attach_exponent=_num("social_exponent", 0.0, float),
            seed=seed,
        )
        path = os.path.join(out_dir, values.get("social_out", "edges.txt"))
        social.write_edge_list(edges, path)
        log.info("wrote %d edges to %s", len(edges), path)
    return 0


def _cmd_rank(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    spec = _parse_spec_string(args.spec)
    dataset_spec = ingestion.DatasetSpec(format=args.format, threshold=args.threshold)
    graph = build(ingestion.load_dataset(args.dataset, dataset_spec))
    social_graph = social.load_social_graph(args.social) if args.social else None
    test_date = args.t_star if args.t_star is not None else graph.t_last
    ranking = predictors.score(graph, spec, test_date, social_graph)
    for item, value in ranking.entries[: args.n]:
        sys.stdout.write(f"{item}\t{value}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trendcast",
        description="Predict which items of a temporal user-item network grow next.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a parameter sweep from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--workers", type=int, default=None,
                       help="ignored; the sweep runs in one process")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--json-summary", action="store_true",
                       help="print one JSON line per grid point to stdout")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_gen = sub.add_parser("gen", help="generate synthetic events / social edges")
    p_gen.add_argument("config")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_rank = sub.add_parser("rank", help="one-shot prediction, print the top n items")
    p_rank.add_argument("dataset")
    p_rank.add_argument("--spec", required=True,
                        help='e.g. "pbp,lambda=0.9,t_past=5184000"')
    p_rank.add_argument("--format", default="votes", choices=["votes", "ratings"])
    p_rank.add_argument("--threshold", type=float, default=3.0)
    p_rank.add_argument("--social", default=None)
    p_rank.add_argument("--t-star", type=int, default=None,
                        help="test date (default: last event)")
    p_rank.add_argument("--n", type=int, default=100)
    p_rank.set_defaults(func=_cmd_rank)

    args = parser.parse_args(argv)
    _setup_logging()
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
