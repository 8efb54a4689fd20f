import hashlib
import logging
import re
from collections import Counter

import pytest

import oracles
from conftest import dedup_earliest, random_events
from trendcast import evaluation, experiment, predictors, social
from trendcast.evaluation import make_test_dates
from trendcast.experiment import (
    SWEEP_COLUMNS,
    SWEEP_KEYS,
    ExperimentConfig,
    parse_experiment_config,
    parse_kv_file,
    predictor_specs,
    run_sweep,
    validate,
)
from trendcast.events import build
from trendcast.ingestion import DatasetSpec, load_votes, write_votes_csv
from trendcast.predictors import PredictorSpec
from trendcast.social import write_edge_list
from trendcast.synthgen import GenConfig, generate, generate_social


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    events = generate(
        GenConfig(num_users=200, num_items=60, num_events=4000,
                  item_arrival_rate=60 / 3200, decay_timescale=800, rng_seed=12)
    )
    path = root / "events.csv"
    write_votes_csv(events, path)
    return path


def write_config(tmp_path, body):
    path = tmp_path / "exp.cfg"
    path.write_text(body)
    return path


BASE = """
dataset = {dataset}
format = votes
predictor = recent_pop
t_past = 600
t_future = 600
n = 50
test_dates = 3
out = {out}
"""


class TestParsing:
    def test_kv_file(self, tmp_path):
        path = tmp_path / "f.cfg"
        path.write_text("a = 1\n# comment\n\nb=2  # trailing\n")
        assert parse_kv_file(path) == [(1, "a", "1"), (4, "b", "2")]

    def test_kv_syntax_error(self, tmp_path):
        path = tmp_path / "f.cfg"
        path.write_text("a = 1\nnot a pair\n")
        with pytest.raises(ValueError, match=":2"):
            parse_kv_file(path)

    def test_kv_file_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "f.cfg"
        path.write_bytes(b"a = 1\r\n# caf\xe9\r\nb = 2\r\n")
        with pytest.raises(ValueError, match=r"f.cfg:2: not valid UTF-8$"):
            parse_kv_file(path)

    def test_repeatable_keys_build_grids(self, tmp_path, dataset):
        cfg = parse_experiment_config(write_config(tmp_path, (
            f"dataset = {dataset}\npredictor = pbp\n"
            "lambda = 0\nlambda = 0.9\nlambda = 1\n"
            "t_past = 100\nt_past = 200\nt_future = 300\n"
        )))
        assert cfg.lambdas == [0.0, 0.9, 1.0]
        assert cfg.t_past_values == [100, 200]
        assert [s.lam for s in predictor_specs(cfg)] == [0.0, 0.9, 1.0]

    def test_module_docstring_lists_every_key(self):
        documented = re.findall(r"^    (\w+) = ", experiment.__doc__, re.M)
        assert documented == list(SWEEP_KEYS)

    @pytest.mark.parametrize("word, pre", [("pre", True), ("post", False), ("early", None)])
    def test_eligibility_words(self, tmp_path, word, pre):
        path = write_config(tmp_path, f"seed = 1\neligibility = {word}\n")
        if pre is None:
            with pytest.raises(ValueError) as info:
                parse_experiment_config(path)
            assert str(info.value) == f"{path}:2: eligibility must be 'post' or 'pre', got 'early'"
        else:
            assert parse_experiment_config(path).eligibility_pre_threshold is pre

    def test_bad_value_reports_line(self, tmp_path):
        path = write_config(tmp_path, "t_past = soon\n")
        with pytest.raises(ValueError, match=":1"):
            parse_experiment_config(path)


class TestValidate:
    def test_clean_config(self, tmp_path, dataset):
        cfg = parse_experiment_config(
            write_config(tmp_path, BASE.format(dataset=dataset, out=tmp_path / "o"))
        )
        assert validate(cfg) == []

    def test_all_problems_reported_at_once(self, tmp_path):
        cfg = parse_experiment_config(write_config(tmp_path, (
            "dataset = missing.csv\npredictor = ibp\npredictor = nope\n"
            "centrality = in_degree\nbogus_key = 1\n"
        )))
        problems = validate(cfg)
        text = "\n".join(problems)
        assert "missing.csv" in text
        assert "social" in text
        assert "nope" in text
        assert "bogus_key" in text
        assert "t_past" in text and "t_future" in text

    def test_window_beyond_data_end(self, tmp_path, dataset):
        cfg = parse_experiment_config(write_config(tmp_path, (
            f"dataset = {dataset}\npredictor = recent_pop\n"
            "t_past = 600\nt_future = 4500\ntest_dates = 3\n"
        )))
        problems = validate(cfg)
        assert problems and any("too short" in p or "future window" in p for p in problems)

    def test_ibp_without_social(self, tmp_path, dataset):
        cfg = parse_experiment_config(write_config(tmp_path, (
            f"dataset = {dataset}\npredictor = ibp\neta = 1\ncentrality = pagerank\n"
            "t_past = 600\nt_future = 600\n"
        )))
        assert any("social" in p for p in validate(cfg))

    def test_malformed_social_edge_list(self, tmp_path, dataset):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2\n3 x\n")
        cfg = parse_experiment_config(write_config(tmp_path, (
            BASE.format(dataset=dataset, out=tmp_path / "out")
            + f"social = {edges}\npredictor = ibp\neta = 1\ncentrality = in_degree\n"
        )))
        problems = validate(cfg)
        assert len(problems) == 1
        assert problems[0].startswith("cannot load social graph: ") and "edges.txt:2" in problems[0]
        assert run_sweep(cfg) == 1
        assert not (tmp_path / "out").exists()

    def test_non_finite_gamma_and_eta(self, tmp_path, dataset):
        out = tmp_path / "out"
        cfg = parse_experiment_config(write_config(tmp_path, (
            BASE.format(dataset=dataset, out=out)
            + "predictor = wpp\ngamma = nan\ngamma = 0.5\ngamma = inf\neta = nan\n"
        )))
        assert validate(cfg) == ["gamma nan is not finite", "gamma inf is not finite",
                                 "eta nan is not finite"]
        assert run_sweep(cfg) == 1
        assert not out.exists()

    def test_unknown_centrality_without_ibp(self, tmp_path, dataset):
        body = BASE.format(dataset=dataset, out=tmp_path / "o") + "centrality = nope\n"
        cfg = parse_experiment_config(write_config(tmp_path, body))
        assert validate(cfg) == ["unknown centrality 'nope'"]


class TestRunSweep:
    def test_single_grid_point(self, tmp_path, dataset):
        out = tmp_path / "out"
        cfg = parse_experiment_config(
            write_config(tmp_path, BASE.format(dataset=dataset, out=out))
        )
        assert run_sweep(cfg, workers=1) == 0
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert len(sweep) == 1 + 3 + 1  # header, 3 dates, summary
        heat = (out / "heatmap.csv").read_text().splitlines()
        assert len(heat) == 2
        scatter = (out / "scatter.csv").read_text().splitlines()
        assert scatter[0] == "item,past_increase,future_increase,predicted_top_n"
        assert len(scatter) > 1

    @pytest.mark.parametrize("measure", ["pagerank", "in_degree"])
    def test_centrality_without_ibp_is_ignored(self, tmp_path, dataset, measure):
        # no social key: only ibp reads the social graph and its influence
        out = tmp_path / "out"
        body = BASE.format(dataset=dataset, out=out) + f"centrality = {measure}\n"
        cfg = parse_experiment_config(write_config(tmp_path, body))
        assert validate(cfg) == []
        assert run_sweep(cfg) == 0
        for name in ("sweep.csv", "heatmap.csv", "scatter.csv"):
            assert (out / name).exists()

    def test_heatmap_has_one_row_per_window_combo(self, tmp_path, dataset):
        out = tmp_path / "out"
        cfg = parse_experiment_config(write_config(tmp_path, (
            f"dataset = {dataset}\npredictor = recent_pop\n"
            "t_past = 300\nt_past = 500\nt_past = 700\n"
            "t_future = 300\nt_future = 600\n"
            "test_dates = 2\nn = 50\n"
            f"out = {out}\n"
        )))
        assert run_sweep(cfg, workers=1) == 0
        heat = (out / "heatmap.csv").read_text().splitlines()
        assert len(heat) == 1 + 3 * 2

    def test_invalid_config_fails_without_outputs(self, tmp_path):
        cfg = ExperimentConfig(dataset="missing.csv", predictors=["recent_pop"],
                               t_past_values=[10], t_future_values=[10],
                               out_dir=str(tmp_path / "never"))
        assert run_sweep(cfg) == 1
        assert not (tmp_path / "never").exists()

    def test_logs_centrality_convergence_once_per_measure(self, tmp_path, dataset, caplog):
        edges = tmp_path / "edges.txt"
        write_edge_list([(u, (3 * u + 1) % 200) for u in range(200)], edges)
        cfg = parse_experiment_config(write_config(tmp_path, (
            BASE.format(dataset=dataset, out=tmp_path / "out")
            + f"social = {edges}\npredictor = ibp\neta = 1\n"
            "centrality = in_degree\ncentrality = pagerank\ncentrality = leaderrank\n"
        )))
        with caplog.at_level(logging.INFO, logger="trendcast"):
            assert run_sweep(cfg, workers=1) == 0
        lines = [r.getMessage() for r in caplog.records if " influence" in r.getMessage()]
        assert len(lines) == 3
        for measure, line in zip(("in_degree", "pagerank", "leaderrank"), lines):
            assert re.fullmatch(rf"{measure} influence: \d+ sweeps, relative residual "
                                r"\S+, converged True", line), line

    def test_zero_influence_warned_once_per_centrality(self, tmp_path, dataset, caplog):
        # users 150-199 are not in the social graph: influence 0 under every measure
        edges = tmp_path / "edges.txt"
        write_edge_list(generate_social(150, 900, attach_exponent=1.0, seed=3), edges)
        body = (f"dataset = {dataset}\nsocial = {edges}\npredictor = ibp\npredictor = recent_pop\n"
                "centrality = in_degree\nt_past = 300\nt_past = 600\nt_future = 600\nn = 50\n"
                f"test_dates = 3\nout = {tmp_path / 'out'}\n")
        line = (rf"ibp\(in_degree\): \d+ of {build(load_votes(dataset)).num_users} users are "
                r"zero-influence and contribute 0 under eta < 0")
        for etas, lines in (("eta = -1\neta = -0.5\neta = 1\n", 1), ("eta = 0\neta = 1\n", 0)):
            cfg = parse_experiment_config(write_config(tmp_path, body + etas))
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="trendcast"):
                assert run_sweep(cfg) == 0
                assert validate(cfg) == []
            warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
            # counted once in each set-up, not per window, eta or test date; the
            # scatter rescoring of the first spec, ibp at eta=-1, logs nothing
            assert [r.name for r in warnings] == ["trendcast.experiment"] * 2 * lines
            assert all(re.fullmatch(line, r.getMessage()) for r in warnings)

    def test_scatter_flags_the_first_specs_top_n(self, tmp_path, rng):
        # The first spec is ibp at eta = -1. User v < 20 has 19 - v followers;
        # user 19 has none and users 20-39 are not in the social graph, so
        # their events drop out. The flags are the oracle's top n at the
        # middle test date.
        events = dedup_earliest(random_events(rng))
        data, edges, out = tmp_path / "events.csv", tmp_path / "edges.txt", tmp_path / "out"
        write_votes_csv(events, data)
        follows = [(u, v) for u in range(20) for v in range(u)]
        write_edge_list(follows, edges)
        n, t_past = 5, 200
        cfg = parse_experiment_config(write_config(tmp_path, (
            f"dataset = {data}\nsocial = {edges}\npredictor = ibp\npredictor = recent_pop\n"
            f"eta = -1\ncentrality = in_degree\nt_past = {t_past}\nt_future = 200\nn = {n}\n"
            f"test_dates = 3\nout = {out}\n"
        )))
        assert run_sweep(cfg) == 0
        date = make_test_dates(build(load_votes(data)), 3, t_past, 200)[1]
        influence = Counter(leader for _, leader in follows)
        scores = oracles.ibp_scores(events, date, t_past, -1.0, influence)
        ranked = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
        assert ranked[n - 1][1] > ranked[n][1] + 1e-9  # the top n is not cut inside a tie
        rows = [line.split(",") for line in (out / "scatter.csv").read_text().splitlines()[1:]]
        assert {int(row[0]) for row in rows if row[3] == "1"} == {item for item, _ in ranked[:n]}

    def test_social_graph_loads_once(self, tmp_path, dataset, monkeypatch):
        edges = tmp_path / "edges.txt"
        write_edge_list([(u, (3 * u + 1) % 200) for u in range(200)], edges)
        cfg = parse_experiment_config(write_config(tmp_path, (
            BASE.format(dataset=dataset, out=tmp_path / "out")
            + f"social = {edges}\npredictor = ibp\neta = 1\ncentrality = in_degree\n"
        )))
        paths = []
        load = social.load_social_graph
        monkeypatch.setattr(social, "load_social_graph", lambda p: paths.append(p) or load(p))
        assert run_sweep(cfg) == 0
        assert paths == [str(edges)]

    def test_every_grid_point_appears_once(self, tmp_path, dataset):
        out = tmp_path / "out"
        cfg = parse_experiment_config(write_config(tmp_path, (
            f"dataset = {dataset}\npredictor = pbp\n"
            "lambda = 0\nlambda = 0.5\nlambda = 1\n"
            "t_past = 400\nt_past = 600\nt_future = 500\n"
            "test_dates = 2\nn = 40\n"
            f"out = {out}\n"
        )))
        assert run_sweep(cfg, workers=2) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        summaries = [r for r in rows if ",mean," in r]
        assert len(summaries) == 3 * 2
        assert len(rows) == 3 * 2 * (2 + 1)

    def test_lambda_grid_on_aging_data_favors_recent(self, tmp_path):
        # strong aging: blending towards the recent increase must win
        events = generate(GenConfig(num_users=800, num_items=300, num_events=20_000,
                                    item_arrival_rate=300 / 16_000, decay_timescale=600,
                                    rng_seed=0))
        data = tmp_path / "events.csv"
        write_votes_csv(events, data)
        out = tmp_path / "out"
        cfg = parse_experiment_config(write_config(tmp_path, (
            f"dataset = {data}\npredictor = pbp\n"
            "lambda = 0\nlambda = 0.9\nlambda = 1\n"
            "t_past = 1500\nt_future = 1500\ntest_dates = 3\nn = 100\n"
            f"out = {out}\n"
        )))
        assert run_sweep(cfg, workers=1) == 0
        means = {}
        for line in (out / "sweep.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            if cells[8] == "mean":
                means[float(cells[1])] = float(cells[9])
        assert len(means) == 3
        assert means[0.9] > means[0.0]
        assert means[1.0] > means[0.0]

    def test_deterministic_outputs(self, tmp_path, dataset):
        outs = []
        for name, workers in (("a", 1), ("b", 2)):
            out = tmp_path / name
            cfg = parse_experiment_config(
                write_config(tmp_path, BASE.format(dataset=dataset, out=out))
            )
            assert run_sweep(cfg, workers=workers) == 0
            outs.append(out)
        for fname in ("sweep.csv", "heatmap.csv", "scatter.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_sweep_outputs_are_pinned(self, tmp_path, dataset):
        # Every kind, ibp on two centralities with a negative eta (users 150-199
        # are not in the social graph, so they carry influence 0), two windows
        # and two ranking depths. A change that alters a metric on purpose
        # updates the digests and says so.
        edges = tmp_path / "edges.txt"
        write_edge_list(generate_social(150, 900, attach_exponent=1.0, seed=3), edges)
        out = tmp_path / "out"
        cfg = parse_experiment_config(write_config(tmp_path, (
            f"dataset = {dataset}\nsocial = {edges}\n"
            "predictor = total_pop\npredictor = recent_pop\npredictor = pbp\n"
            "predictor = wpp\npredictor = ibp\nlambda = 0\nlambda = 0.9\n"
            "gamma = -0.5\ngamma = 1\neta = -1\neta = 0.5\n"
            "centrality = in_degree\ncentrality = pagerank\n"
            "t_past = 400\nt_past = 600\nt_future = 500\nn = 10\nn = 50\n"
            f"test_dates = 3\nout = {out}\n"
        )))
        assert run_sweep(cfg) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("sweep.csv", "heatmap.csv", "scatter.csv")}
        assert digests == PINNED_SWEEP


PINNED_SWEEP = {
    "sweep.csv": "c6cf70d9387cb574737294289a7b984368d6506a079f028114c6c9e4d053e46b",
    "heatmap.csv": "57b0077a028b71abac329f011dd8044e845d6031d2186bc02f300c0c76ebf907",
    "scatter.csv": "663944ffaaaf9bc12ec16349feb3e9171c3096fcdf8ca6841f9eda95f22d79c0",
}


class TestLoadInputs:
    """The set-up reads from the specs which centralities to compute and
    which of them get the zero-influence warning."""

    def test_each_centrality_once_and_the_warning_under_a_negative_eta(self, tmp_path, dataset,
                                                                       caplog):
        # users 100-199 of the dataset are absent from the edge list: influence 0 under both
        edges = tmp_path / "edges.txt"
        write_edge_list([(u, (u * 7 + 3) % 40) for u in range(100)], edges)
        specs = [PredictorSpec("ibp", eta=-1.0, centrality="in_degree"),
                 PredictorSpec("ibp", eta=1.0, centrality="pagerank"),
                 PredictorSpec("ibp", eta=0.5, centrality="in_degree")]
        with caplog.at_level(logging.WARNING):
            graph, influence, failures = experiment.load_inputs(
                dataset, DatasetSpec("votes"), edges, specs)
        assert failures == [] and list(influence) == ["in_degree", "pagerank"]
        assert (influence["pagerank"].lookup(graph.user_ids) == 0.0).any()  # yet not warned
        zero = (influence["in_degree"].lookup(graph.user_ids) == 0.0).sum()
        assert caplog.messages == [f"ibp(in_degree): {zero} of {graph.num_users} users are "
                                   "zero-influence and contribute 0 under eta < 0"]

    def test_no_ibp_spec_never_opens_the_social_path(self, tmp_path, dataset, monkeypatch):
        opened = []
        monkeypatch.setattr(social, "load_social_graph", opened.append)
        specs = [PredictorSpec("total_pop"), PredictorSpec("wpp", gamma=-1.0),
                 PredictorSpec("pbp", lam=0.5)]
        graph, influence, failures = experiment.load_inputs(
            dataset, DatasetSpec("votes"), tmp_path / "missing.txt", specs)
        assert graph is not None and influence == {} and failures == [] and opened == []

    def test_run_expands_the_grid_once(self, tmp_path, dataset, monkeypatch):
        calls = []
        expand = experiment.predictor_specs
        monkeypatch.setattr(experiment, "predictor_specs",
                            lambda cfg: calls.append(cfg) or expand(cfg))
        cfg = parse_experiment_config(
            write_config(tmp_path, BASE.format(dataset=dataset, out=tmp_path / "out")))
        assert run_sweep(cfg) == 0
        assert calls == [cfg]


@pytest.fixture(scope="module")
def acceptance_7(tmp_path_factory):
    """The dataset and grid of acceptance criterion 7, at n = 25 and n = 50."""
    root = tmp_path_factory.mktemp("acceptance_7")
    write_votes_csv(generate(GenConfig(num_users=300, num_items=100, num_events=6000,
                                       item_arrival_rate=100 / 4800, decay_timescale=800,
                                       rng_seed=23)), root / "events.csv")
    return (f"dataset = {root / 'events.csv'}\nformat = votes\n"
            "predictor = total_pop\npredictor = pbp\npredictor = wpp\n"
            "lambda = 0\nlambda = 0.9\nlambda = 1\ngamma = 0.5\n"
            "t_past = 600\nt_past = 900\nt_future = 600\nn = 25\nn = 50\ntest_dates = 3\n"
            "seed = 1\n")


class TestSeveralDepths:
    """Every n of a window is cut from one scoring pass and one set of rankings."""

    def test_outputs_are_pinned(self, tmp_path, acceptance_7):
        # recorded when run_sweep still evaluated each n on its own
        out = tmp_path / "out"
        assert run_sweep(parse_experiment_config(
            write_config(tmp_path, acceptance_7 + f"out = {out}\n"))) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("sweep.csv", "heatmap.csv", "scatter.csv")}
        assert digests == {
            "sweep.csv": "f40d36a8e80a2dea9f0c1c1e99e5f0bdfecfc8991695f7af506e2dec96ff0f59",
            "heatmap.csv": "ddfcd1a1914a832952a7dc2814b2fcac127a7a28bfd5e23cc10caf36543b3249",
            "scatter.csv": "54549299841ed53283a2576d48849a127ac52e2b34eecea7ac38c2ce0ea8d0af",
        }

    def test_one_scoring_pass_per_date_and_one_weighing_per_run(self, tmp_path, acceptance_7,
                                                                monkeypatch):
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.update([name])
                                or fn(*args, **kwargs))

        counted(evaluation, "score_rows")  # the sweep's scoring, not the scatter's
        counted(predictors, "ibp_weights")  # the run's and the scatter's score's
        cfg = parse_experiment_config(
            write_config(tmp_path, acceptance_7 + f"out = {tmp_path / 'out'}\n"))
        assert run_sweep(cfg) == 0
        # 2 t_past values x 3 test dates, whatever the number of n
        assert calls == {"score_rows": 6, "ibp_weights": 2}

    @pytest.mark.parametrize("depths", [(50, 10), (500, 10, 30)])
    def test_heatmap_is_recent_pop_at_the_first_n(self, tmp_path, dataset, depths):
        # n = 500 exceeds the dataset's items
        out = tmp_path / "out"
        cfg = parse_experiment_config(write_config(tmp_path, (
            f"dataset = {dataset}\npredictor = total_pop\npredictor = recent_pop\n"
            "t_past = 300\nt_past = 700\nt_future = 300\nt_future = 600\ntest_dates = 3\n"
            + "".join(f"n = {n}\n" for n in depths) + f"out = {out}\n"
        )))
        assert run_sweep(cfg) == 0
        heat = [line.split(",") for line in (out / "heatmap.csv").read_text().splitlines()]
        sweep = [dict(zip(SWEEP_COLUMNS, line.split(",")))
                 for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        recent = [[row["T_P"], row["T_F"], row["P_n"]] for row in sweep
                  if (row["kind"], row["n"], row["t_star"]) == ("recent_pop", str(depths[0]),
                                                                "mean")]
        assert heat[0] == ["T_P", "T_F", "P_n"]
        assert heat[1:] == recent and len(recent) == 4
