"""The library calls that ``bench/run.py`` makes, in its argument shapes.

``bench/tracer.py`` skips an entry point whose name no longer exists, so a
changed signature next to these calls would leave the traced benchmark
timing nothing instead of failing; these tests fail instead. They also run
the tracer itself over the set-up and the sweep of ``run_sweep``.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trendcast import experiment, predictors
from trendcast.events import build
from trendcast.ingestion import load_votes, write_votes_csv
from trendcast.social import compute_influence, load_social_graph, write_edge_list
from trendcast.synthgen import GenConfig, generate, generate_social

ROOT = Path(__file__).resolve().parents[1]
T_PAST = 200
sys.path.insert(0, str(ROOT / "bench"))

from tracer import ENTRY_POINTS, Tracer  # noqa: E402


@pytest.fixture
def config(tmp_path):
    """A small votes sweep with a social graph and all three centralities."""
    events, edges = tmp_path / "events.csv", tmp_path / "edges.txt"
    write_votes_csv(generate(GenConfig(num_users=100, num_items=30, num_events=1500,
                                       rng_seed=4)), events)
    write_edge_list(generate_social(100, 300, attach_exponent=1.0, seed=4), edges)
    path = tmp_path / "sweep.cfg"
    path.write_text(
        f"dataset = {events}\nformat = votes\nsocial = {edges}\n"
        "predictor = total_pop\npredictor = wpp\npredictor = ibp\ngamma = 0.5\n"
        "eta = -0.5\neta = 1\ncentrality = in_degree\ncentrality = pagerank\n"
        f"centrality = leaderrank\nt_past = {T_PAST}\nt_future = 200\nn = 10\n"
        f"test_dates = 2\nout = {tmp_path / 'out'}\n"
    )
    return path


def test_setup_child_runs(config):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    child = subprocess.run([sys.executable, str(ROOT / "bench" / "setup_child.py"), str(config)],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr


def test_run_sweep_takes_the_bench_worker_counts(config, tmp_path):
    cfg = experiment.parse_experiment_config(config)
    outputs = []
    for workers in (1, None):
        cfg.out_dir = str(tmp_path / f"workers-{workers}")
        assert experiment.run_sweep(cfg, workers=workers) == 0
        outputs.append((tmp_path / f"workers-{workers}" / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kind, lam, gamma, eta, centrality", [
    ("total_pop", None, None, None, None),
    ("wpp", None, 0.5, None, None),
    ("ibp", None, None, 1.0, "pagerank"),
])
def test_positional_spec_scored_on_the_social_graph(config, kind, lam, gamma, eta, centrality):
    cfg = experiment.parse_experiment_config(config)
    graph = build(load_votes(cfg.dataset))
    social_graph = load_social_graph(cfg.social)
    spec = predictors.PredictorSpec(kind, lam, gamma, eta,
                                    None if kind == "total_pop" else T_PAST, centrality)
    top = predictors.score(graph, spec, graph.t_last, social_graph).top(10)
    influence = compute_influence(social_graph, centrality) if centrality else None
    assert len(top) == 10
    assert top == predictors.score(graph, spec, graph.t_last, influence=influence).top(10)


def test_tracer_spans_add_up_over_the_set_up(config):
    cfg = experiment.parse_experiment_config(config)
    tracer = Tracer()
    tracer.install()
    try:
        status = tracer.call("experiment.run_sweep", experiment.run_sweep, (cfg,))
    finally:
        tracer.uninstall()
    assert status == 0
    root, *rest = tracer.spans
    assert root.name == "experiment.run_sweep" and all(s.parent is not None for s in rest)
    self_sum = sum(s.self_time for s in tracer.spans)
    assert abs(self_sum - root.duration) <= 0.01 * root.duration
    for name in ("ingestion.load_dataset", "events.build", "social.load_social_graph"):
        assert len(tracer.named(name)) == 1, name
    # one span per centrality, in config order, with the sweeps of a call made alone
    social_graph = load_social_graph(cfg.social)
    spans = tracer.named("social.compute_influence")
    assert [s.attrs["measure"] for s in spans] == cfg.centralities == [
        "in_degree", "pagerank", "leaderrank"]
    for span in spans:
        want = compute_influence(social_graph, span.attrs["measure"])
        assert (span.attrs["iterations"], span.attrs["converged"]) == (
            want.iterations_used, want.converged)


def test_tracer_entry_points_still_resolve():
    # the tracer skips a name it cannot find, so a rename in src/ would zero
    # its per-layer metric silently; the entry points not listed here are dead
    live = {(module, attr) for module, attr, _, _ in ENTRY_POINTS
            if callable(getattr(importlib.import_module(module), attr, None))}
    assert live == {
        ("trendcast.experiment", "validate"),
        ("trendcast.experiment", "write_reports_csv"),
        ("trendcast.experiment", "_write_heatmap"),
        ("trendcast.experiment", "_write_scatter"),
        ("trendcast.experiment", "build"),
        ("trendcast.ingestion", "load_dataset"),
        ("trendcast.events", "build"),
        ("trendcast.social", "load_social_graph"),
        ("trendcast.social", "compute_influence"),
        ("trendcast.predictors", "compute_influence"),
        ("trendcast.predictors", "score"),
        ("trendcast.evaluation", "evaluate"),
    }
