"""Command line entry point.

Verbs:

* ``trendcast run <config>``      - run the configured parameter sweep;
* ``trendcast validate <config>`` - do run's set-up, print its problems;
* ``trendcast gen <gen-config>``  - generate synthetic datasets;
* ``trendcast rank <dataset>``    - one-shot prediction, print the top n.

Progress and warnings go to stderr (level set via the TRENDCAST_LOG
environment variable), data goes to files, and machine-readable summaries
to stdout.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import ingestion, predictors, social, synthgen
from .experiment import (SWEEP_KEYS, load_inputs, parse_experiment_config, parse_kv_file,
                         parse_value, run_sweep, validate)

log = logging.getLogger("trendcast.cli")  # not __name__, which is "__main__" under python -m


def _setup_logging() -> None:
    level = os.environ.get("TRENDCAST_LOG", "INFO").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )


# predictor spec key -> the PredictorSpec field it sets; types as in SWEEP_KEYS
SPEC_KEYS = {"lambda": "lam", "gamma": "gamma", "eta": "eta", "t_past": "t_past",
             "centrality": "centrality"}


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
        key, raw = (s.strip() for s in part.split("=", 1))
        if key not in SPEC_KEYS:
            raise ValueError(f"unknown predictor spec key {key!r}")
        if SPEC_KEYS[key] in kwargs:
            raise ValueError(f"{key} is given twice in predictor spec")
        kwargs[SPEC_KEYS[key]] = parse_value(key, raw, SWEEP_KEYS[key][1])
    return predictors.PredictorSpec(kind, **kwargs)


def _cmd_run(args) -> int:
    cfg = parse_experiment_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    return run_sweep(cfg, json_summary=args.json_summary)


def _cmd_validate(args) -> int:
    cfg = parse_experiment_config(args.config)
    problems = validate(cfg)
    for p in problems:
        sys.stdout.write(p + "\n")
    return 1 if problems else 0


# gen key -> the GenConfig field it sets
EVENT_KEYS = {"users": "num_users", "items": "num_items", "events": "num_events",
              "arrival_rate": "item_arrival_rate", "theta": "decay_timescale",
              "pa_offset": "pa_offset", "activity_exponent": "activity_exponent",
              "seed": "rng_seed"}
# gen key -> the generate_social parameter it sets
SOCIAL_KEYS = {"social_users": "num_users", "social_edges": "num_edges",
               "social_exponent": "attach_exponent", "seed": "seed"}
INT_KEYS = ("users", "items", "events", "seed", "social_users", "social_edges")
PATH_KEYS = ("votes_out", "social_out", "out")


def _cmd_gen(args) -> int:
    path, values, lines = args.config, {}, {}
    for lineno, key, raw in parse_kv_file(path):
        if key not in (*EVENT_KEYS, *SOCIAL_KEYS, *PATH_KEYS):
            raise ValueError(f"{path}:{lineno}: unknown gen key {key!r}")
        type = str if key in PATH_KEYS else int if key in INT_KEYS else float
        try:
            if key in lines:
                raise ValueError(f"{key} is already set on line {lines[key]}")
            values[key], lines[key] = parse_value(key, raw, type), lineno
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if "events" not in values and "social_edges" not in values:
        raise ValueError(f"{path}: nothing to generate: set events, social_edges or both")
    needs = {"events": ("users", "items"), "social_edges": ("social_users",)}
    missing = [k for key, keys in needs.items() if key in values for k in keys if k not in values]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    if args.seed is not None:
        values["seed"] = args.seed
        lines.pop("seed", None)

    def make(factory, keys):
        # A library ValueError that starts with a parameter goes under its key and
        # line; any other, as numpy's for a size no array can hold, under the file.
        try:
            return factory(**{param: values[key] for key, param in keys.items() if key in values})
        except (ValueError, MemoryError) as exc:
            for key, param in keys.items():
                if str(exc).startswith(param):
                    where = f"{path}:{lines[key]}" if key in lines else path
                    raise ValueError(f"{where}: {key}{str(exc)[len(param):]}") from None
            raise ValueError(f"{path}: {exc}") from None

    # every value is checked before either draw; both draws precede the output directory
    config = make(synthgen.GenConfig, EVENT_KEYS) if "events" in values else None
    edges = make(synthgen.generate_social, SOCIAL_KEYS) if "social_edges" in values else None
    events = make(lambda **_: synthgen.generate(config), EVENT_KEYS) if config else None
    out_dir = args.out or values.get("out", ".")
    os.makedirs(out_dir, exist_ok=True)

    if events is not None:
        target = os.path.join(out_dir, values.get("votes_out", "events.csv"))
        ingestion.write_votes_csv(events, target)
        log.info("wrote %d events to %s", len(events), target)
    if edges is not None:
        target = os.path.join(out_dir, values.get("social_out", "edges.txt"))
        social.write_edge_list(edges, target)
        log.info("wrote %d edges to %s", len(edges), target)
    return 0


def _cmd_rank(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    spec = _parse_spec_string(args.spec)
    if spec.kind == "ibp" and not args.social:
        raise ValueError(f"--spec ibp weighs users by {spec.centrality} on a social graph: "
                         "pass its edge list with --social")
    dataset_spec = ingestion.DatasetSpec(format=args.format, threshold=args.threshold)
    graph, influence, failures = load_inputs(args.dataset, dataset_spec, args.social, [spec])
    if failures:
        raise failures[0][1]
    test_date = args.t_star if args.t_star is not None else graph.t_last
    if test_date < graph.t_first:
        raise ValueError(f"--t-star {test_date} is before the first event at {graph.t_first}: "
                         "no item is seen yet")
    ranking = predictors.score(graph, spec, test_date, influence=influence.get(spec.centrality))
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
