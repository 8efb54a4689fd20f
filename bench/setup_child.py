"""Everything ``trendcast run`` does before scoring, in one fresh process.

Usage: ``PYTHONPATH=src python3 bench/setup_child.py <sweep config>``. It
imports trendcast, parses the config, loads and builds the event graph,
loads the social graph and computes each configured centrality.
"""

import sys


def dataset_spec(ingestion, cfg):
    """The DatasetSpec ``trendcast run`` derives from an experiment config."""
    return ingestion.DatasetSpec(
        format=cfg.format,
        threshold=cfg.threshold,
        subset_users=cfg.subset_users,
        min_user_degree=cfg.min_user_degree,
        rng_seed=cfg.seed,
        eligibility_pre_threshold=cfg.eligibility_pre_threshold,
    )


def main(config_path) -> None:
    from trendcast import events, experiment, ingestion, social

    cfg = experiment.parse_experiment_config(config_path)
    events.build(ingestion.load_dataset(cfg.dataset, dataset_spec(ingestion, cfg)))
    if cfg.social:
        social_graph = social.load_social_graph(cfg.social)
        for measure in cfg.centralities:
            social.compute_influence(social_graph, measure)


if __name__ == "__main__":
    main(sys.argv[1])
