import functools
import hashlib
import itertools
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from trendcast import cli, experiment, ingestion, social
from trendcast.cli import _parse_spec_string, main
from trendcast.events import build
from conftest import write_ratings_csv
from trendcast.ingestion import load_votes, write_votes_csv
from trendcast.social import load_social_graph, write_edge_list
from trendcast.synthgen import GenConfig, generate, generate_social

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


@pytest.fixture
def dataset(tmp_path):
    events = generate(GenConfig(num_users=100, num_items=30, num_events=1500, rng_seed=4))
    path = tmp_path / "events.csv"
    write_votes_csv(events, path)
    return path


def child_env():
    """The environment for a child interpreter that imports trendcast from ``src/``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_import_leaves_scipy_unloaded():
    # scipy costs ~0.3 s of import and serves only the tests, so neither the
    # import nor the iterative centralities may load it
    code = (
        "import trendcast, trendcast.cli, sys\n"
        "from trendcast.social import SocialGraph, compute_influence\n"
        "graph = SocialGraph([(1, 2), (2, 3), (3, 1), (4, 1)], users=[5])\n"
        "for measure in ('pagerank', 'leaderrank'):\n"
        "    assert compute_influence(graph, measure).converged\n"
        "assert 'scipy' not in sys.modules\n"
    )
    child = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                           text=True, timeout=60)
    assert child.returncode == 0, child.stderr


def test_errors_name_the_cli_logger_under_python_m(tmp_path):
    # the bench runs the CLI as a module, where __name__ is "__main__"
    child = subprocess.run([sys.executable, "-m", "trendcast.cli", "validate",
                            str(tmp_path / "missing.cfg")],
                           env=child_env(), capture_output=True, text=True, timeout=60)
    assert child.returncode == 1
    assert child.stderr.startswith("ERROR trendcast.cli: "), child.stderr


class TestSpecString:
    def test_parse_full(self):
        spec = _parse_spec_string("ibp, eta=1.5, t_past=600, centrality=leaderrank")
        assert spec.kind == "ibp" and spec.eta == 1.5
        assert spec.t_past == 600 and spec.centrality == "leaderrank"

    def test_parse_lambda(self):
        spec = _parse_spec_string("pbp,lambda=0.9,t_past=100")
        assert spec.lam == 0.9

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            _parse_spec_string("pbp,omega=1")

    @pytest.mark.parametrize("text, error", [
        ("pbp,lambda=0.9,t_past=soon", "t_past must be an integer, got 'soon'"),
        ("pbp,lambda=x,t_past=100", "lambda must be a number, got 'x'"),
    ])
    def test_bad_value_names_the_key(self, text, error):
        with pytest.raises(ValueError) as info:
            _parse_spec_string(text)
        assert str(info.value) == error


class TestGenVerb:
    def test_writes_events_and_edges(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(
            "users = 40\nitems = 10\nevents = 300\nseed = 1\n"
            "votes_out = ev.csv\nsocial_users = 40\nsocial_edges = 100\n"
            "social_out = ed.txt\n"
        )
        assert main(["gen", str(cfg), "--out", str(tmp_path)]) == 0
        assert len(load_votes(tmp_path / "ev.csv")) == 300
        assert load_social_graph(tmp_path / "ed.txt").num_links == 100

    def test_seed_flag_overrides(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("users = 40\nitems = 10\nevents = 200\nseed = 1\nvotes_out = ev.csv\n")
        main(["gen", str(cfg), "--out", str(tmp_path / "a"), "--seed", "2"])
        main(["gen", str(cfg), "--out", str(tmp_path / "b"), "--seed", "2"])
        main(["gen", str(cfg), "--out", str(tmp_path / "c")])
        a = (tmp_path / "a" / "ev.csv").read_bytes()
        b = (tmp_path / "b" / "ev.csv").read_bytes()
        c = (tmp_path / "c" / "ev.csv").read_bytes()
        assert a == b != c

    @pytest.mark.parametrize("text, error", [
        ("users = 40\nitems = 10\nevent = 300\n", "gen.cfg:3: unknown gen key 'event'"),
        ("users = 40\nitems = 10\nevents = 300\nvotes_out = ev.csv\nsocial_edge = 100\n",
         "gen.cfg:5: unknown gen key 'social_edge'"),
        ("users = 40\nitems = 10\nseed = 1\n", "nothing to generate"),
        ("# empty\n", "nothing to generate"),
        ("events = 300\n", "gen.cfg: missing users, items"),
        ("users = 40\nitems = 10\nevents = 300\nsocial_edges = 100\n",
         "gen.cfg: missing social_users"),
    ], ids=["unknown-key", "unknown-key-after-events", "no-output-key", "empty",
            "events-without-sizes", "edges-without-users"])
    def test_bad_config_fails_cleanly(self, tmp_path, caplog, text, error):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["gen", str(cfg), "--out", str(out)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and error in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("text, error", [
        ("users = 40\nitems = 10\nevents = 1e3\n",
         "gen.cfg:3: events must be an integer, got '1e3'"),
        ("users = 0\nitems = 10\nevents = 300\n", "gen.cfg:1: users must be positive, got 0"),
        ("users = 3\nitems = 3\nevents = 10\n", "gen.cfg:3: events: cannot draw 10 distinct"),
        ("users = 40\nitems = 10\nevents = 300\ntheta = soon\n",
         "gen.cfg:4: theta must be a number, got 'soon'"),
        ("users = 40\nitems = 10\nevents = 300\narrival_rate = 0\n",
         "gen.cfg:4: arrival_rate must be positive, got 0.0"),
        ("users = 40\nitems = 10\nevents = 300\nseed = -1\n",
         "gen.cfg:4: seed must be non-negative, got -1"),
        ("users = 40\nitems = 10\nevents = 300\nsocial_users = 5\nsocial_edges = 21\n",
         "gen.cfg:5: social_edges: cannot place 21 distinct directed edges on 5 users"),
        ("social_users = 0\nsocial_edges = 0\nseed = 2\n",
         "gen.cfg:1: social_users must be positive, got 0"),
        ("social_users = 5\nsocial_edges = 2\nseed = -4\n",
         "gen.cfg:3: seed must be non-negative, got -4"),
        # the draw saturates: checked values that no stream can realise
        ("users = 1\nitems = 100\nevents = 50\narrival_rate = 0.01\n",
         "gen.cfg:3: events: tick 2: could not place an event after 10000 resamples"),
        ("social_users = 3\nsocial_edges = 6\nsocial_exponent = 60\n",
         "gen.cfg:2: social_edges: edge 3 could not be placed after 10000 resamples"),
        # sizes that no x86-64 address space holds, refused before anything is mapped:
        # numpy's message names no parameter, so it goes under the file
        ("users = 72057594037927936\nitems = 10\nevents = 5\n",
         "gen.cfg: Unable to allocate 512. PiB"),
        ("users = 10\nitems = 72057594037927936\nevents = 5\n",
         "gen.cfg: Unable to allocate 512. PiB"),
        ("social_users = 72057594037927936\nsocial_edges = 5\n",
         "gen.cfg: Unable to allocate 512. PiB"),
        ("users = 4611686018427387904\nitems = 10\nevents = 5\n", "gen.cfg: array is too big"),
        ("users = 99999999999999999999\nitems = 10\nevents = 5\n",
         "gen.cfg: Maximum allowed dimension exceeded"),
        ("users = 40\nitems = 10\nseed = 3\nseed = 4\nevents = 300\n",
         "gen.cfg:4: seed is already set on line 3"),
        ("social_users = 5\nsocial_edges = 2\nsocial_out = a.txt\nsocial_out = b.txt\n",
         "gen.cfg:4: social_out is already set on line 3"),
    ], ids=["events-not-int", "zero-users", "events-over-grid", "theta-not-number",
            "zero-rate", "negative-seed", "edges-over-capacity", "zero-social-users",
            "negative-social-seed", "events-saturated", "social-edges-saturated",
            "users-2**56", "items-2**56", "social-users-2**56", "users-2**62", "users-1e20",
            "seed-twice", "social_out-twice"])
    def test_bad_number_names_file_line_and_key(self, tmp_path, caplog, text, error):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["gen", str(cfg), "--out", str(out)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith(f"{tmp_path}{os.sep}{error}")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("text, key, line", [
        ("users = 5\nitems = 5\nevents = 10\npa_offset = {}\n", "pa_offset", 4),
        ("users = 5\nitems = 5\nevents = 10\nactivity_exponent = {}\n", "activity_exponent", 4),
        ("social_users = 5\nsocial_edges = 10\nsocial_exponent = {}\n", "social_exponent", 3),
    ], ids=["pa_offset", "activity_exponent", "social_exponent"])
    def test_non_finite_parameter_fails_cleanly(self, tmp_path, caplog, text, key, line, value):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(text.format(value))
        out = tmp_path / "out"
        assert main(["gen", str(cfg), "--out", str(out)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1
        assert errors[0] == f"{tmp_path}{os.sep}gen.cfg:{line}: {key} must be finite, got {value}"
        assert not out.exists()

    def test_inf_and_infinite_mean_no_aging(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        outs = []
        for theta in ("inf", "infinite"):
            cfg.write_text(f"users = 40\nitems = 10\nevents = 200\ntheta = {theta}\n")
            assert main(["gen", str(cfg), "--out", str(tmp_path / theta)]) == 0
            outs.append((tmp_path / theta / "events.csv").read_bytes())
        cfg.write_text("users = 40\nitems = 10\nevents = 200\n")
        assert main(["gen", str(cfg), "--out", str(tmp_path / "default")]) == 0
        assert outs[0] == outs[1] == (tmp_path / "default" / "events.csv").read_bytes()


class TestRankVerb:
    def test_prints_top_items(self, dataset, capsys):
        code = main(["rank", str(dataset), "--spec", "recent_pop,t_past=400", "--n", "5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        scores = [float(line.split("\t")[1]) for line in lines]
        assert scores == sorted(scores, reverse=True)

    def test_bad_spec_fails_cleanly(self, dataset, capsys):
        assert main(["rank", str(dataset), "--spec", "pbp,lambda=2,t_past=10"]) == 1

    @pytest.mark.parametrize("spec, error", [
        ("pbp,lambda=x,t_past=400", "lambda must be a number, got 'x'"),
        ("wpp,gamma=nan,t_past=400", "gamma must be finite, got nan"),
        ("ibp,eta=-inf,t_past=400,centrality=in_degree", "eta must be finite, got -inf"),
        ("", "empty predictor spec"),
        ("pbp,lambda", "expected key=value in predictor spec, got 'lambda'"),
        ("total_pop,t_past=-4", "t_past is only meaningful for recent_pop, pbp, wpp, ibp"),
        ("pbp,lambda=0.5,gamma=3,t_past=100", "gamma is only meaningful for wpp"),
        ("pbp,lambda=0.1,lambda=1,t_past=3000", "lambda is given twice in predictor spec"),
        ("recent_pop,t_past=10,t_past=10", "t_past is given twice in predictor spec"),
    ], ids=["lambda-not-number", "gamma-nan", "eta-inf", "empty", "key-without-value",
            "total_pop-t_past", "pbp-gamma", "lambda-twice", "t_past-twice"])
    def test_bad_spec_value_is_one_error_line(self, dataset, capsys, caplog, spec, error):
        assert main(["rank", str(dataset), "--spec", spec]) == 1
        assert capsys.readouterr().out == ""
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] == [error]

    def test_t_star_before_first_event_is_one_error_line(self, dataset, capsys, caplog):
        argv = ["rank", str(dataset), "--spec", "recent_pop,t_past=3000", "--t-star", "-5"]
        assert main(argv) == 1
        assert capsys.readouterr().out == ""
        t_first = build(load_votes(dataset)).t_first
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] == [
            f"--t-star -5 is before the first event at {t_first}: no item is seen yet"]

    @pytest.mark.parametrize("eta, lines", [("-1", 1), ("0", 0)], ids=["eta-negative", "eta-zero"])
    def test_zero_influence_counted_once(self, dataset, tmp_path, capsys, caplog, eta, lines):
        # users 50-99 of the dataset are not in the social graph: influence 0
        edges = tmp_path / "edges.txt"
        write_edge_list([(u, (u + 1) % 50) for u in range(50)], edges)
        argv = ["rank", str(dataset), "--social", str(edges), "--n", "5",
                "--spec", f"ibp,eta={eta},centrality=in_degree,t_past=400"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5
        num_users = build(load_votes(dataset)).num_users
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == lines
        for line in warnings:
            assert re.fullmatch(rf"ibp\(in_degree\): \d+ of {num_users} users are zero-influence "
                                r"and contribute 0 under eta < 0", line), line

    @pytest.mark.parametrize("measure", ["in_degree", "pagerank", "leaderrank"])
    @pytest.mark.parametrize("eta", ["-1", "0", "1"])
    def test_ibp_scores_are_pinned(self, dataset, tmp_path, capsys, measure, eta):
        # users 40-59 follow but have no follower; users 60-99 are not in the edge list
        edges = tmp_path / "edges.txt"
        write_edge_list([(u, (u * 7 + 3) % 40) for u in range(60)], edges)
        argv = ["rank", str(dataset), "--social", str(edges), "--n", "30",
                "--spec", f"ibp,eta={eta},centrality={measure},t_past=400"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 30
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_IBP_RANK[measure, eta]

    @pytest.mark.parametrize("n", ["0", "-27"])
    def test_nonpositive_n_fails_cleanly(self, dataset, capsys, caplog, n):
        assert main(["rank", str(dataset), "--spec", "total_pop", "--n", n]) == 1
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "--n" in errors[0]

    @pytest.mark.parametrize("exists", [True, False], ids=["dataset", "no-dataset"])
    def test_ibp_without_social_fails_before_loading(self, dataset, tmp_path, capsys, caplog,
                                                     exists):
        path = dataset if exists else tmp_path / "missing.csv"
        argv = ["rank", str(path), "--spec", "ibp,eta=1,centrality=pagerank,t_past=100"]
        assert main(argv) == 1
        assert capsys.readouterr().out == ""
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
            "--spec ibp weighs users by pagerank on a social graph: "
            "pass its edge list with --social"]
        assert not any(r.name == "trendcast.ingestion" for r in caplog.records)

    @pytest.mark.parametrize("edges", ["1 2\n3 x\n", None], ids=["bad-edge-line", "no-file"])
    def test_social_is_read_only_for_ibp(self, dataset, tmp_path, capsys, caplog, edges):
        path = tmp_path / "bad.txt"
        if edges is not None:
            path.write_text(edges)
        argv = ["rank", str(dataset), "--spec", "total_pop"]
        assert main(argv) == 0
        without = capsys.readouterr().out
        assert main(argv + ["--social", str(path)]) == 0
        assert capsys.readouterr().out == without
        assert not any(r.levelno >= logging.WARNING for r in caplog.records)

    @pytest.mark.parametrize("vote, edge, error", [
        ("1,99999999999999999999,100", "1 2", "votes.csv:3: integer outside int64"),
        ("1,10,100", "1 99999999999999999999", "edges.txt:2: id outside int64"),
    ])
    def test_id_outside_int64_fails_cleanly(self, tmp_path, caplog, vote, edge, error):
        (tmp_path / "votes.csv").write_text(f"user,item,timestamp\n2,11,200\n{vote}\n")
        (tmp_path / "edges.txt").write_text(f"2 1\n{edge}\n")
        argv = ["rank", str(tmp_path / "votes.csv"), "--social", str(tmp_path / "edges.txt"),
                "--spec", "ibp,eta=1,t_past=100,centrality=in_degree"]
        assert main(argv) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and error in errors[0]


# rank's stdout for every item, recorded before ibp weights were built per user
# (eta = 0 weighs every user 1, whatever the centrality)
PINNED_IBP_RANK = {
    ("in_degree", "-1"): "7780e9f86138866ffae63a5c29e7b0d985cdcae51e486c4dad589f44ad003c8a",
    ("in_degree", "0"): "a5400995944e5f0069162c9fc440485cb1d779c3a0d797243aa546b3cb9910c0",
    ("in_degree", "1"): "3997d234efe0ea76601ffdd49bc599ad741972f3337a75052df75141c6a63b10",
    ("pagerank", "-1"): "f372ebf96fb7b37c41c53e97c6d82072aa57b23d198a4a27527f5445d4e080f4",
    ("pagerank", "0"): "a5400995944e5f0069162c9fc440485cb1d779c3a0d797243aa546b3cb9910c0",
    ("pagerank", "1"): "9ffee266804980325de3b391b46f1be5dbd8d6d5b1ab3a3b8243bb047b5ffb8a",
    ("leaderrank", "-1"): "ea7f1739ed0734cb7f31baed1933e66e430ac9840a9cc00001122fe95a9ff817",
    ("leaderrank", "0"): "a5400995944e5f0069162c9fc440485cb1d779c3a0d797243aa546b3cb9910c0",
    ("leaderrank", "1"): "6f47ebf6a346f1040c33b3b63c324619c8c452546ae51380e6905faf99398b95",
}


class TestRunAndValidateVerbs:
    def write_cfg(self, tmp_path, dataset, out):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"dataset = {dataset}\nformat = votes\npredictor = recent_pop\n"
            f"t_past = 200\nt_future = 200\nn = 20\ntest_dates = 2\nout = {out}\n"
        )
        return cfg

    def test_validate_clean(self, tmp_path, dataset, capsys):
        cfg = self.write_cfg(tmp_path, dataset, tmp_path / "out")
        assert main(["validate", str(cfg)]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("line, error", [
        ("t_past = 6e3", "t_past must be an integer, got '6e3'"),
        ("n = ten", "n must be an integer, got 'ten'"),
        ("lambda = x", "lambda must be a number, got 'x'"),
        ("threshold = high", "threshold must be a number, got 'high'"),
        ("subset_users = 1.5", "subset_users must be an integer, got '1.5'"),
        ("dataset = nope.csv", "dataset is already set on line 1"),
        ("format = ratings", "format is already set on line 2"),
        ("test_dates = 3", "test_dates is already set on line 7"),
    ], ids=["t_past", "n", "lambda", "threshold", "subset_users", "dataset-twice",
            "format-twice", "test_dates-twice"])
    def test_bad_value_names_file_line_and_key(self, tmp_path, dataset, capsys, caplog,
                                               verb, line, error):
        cfg = self.write_cfg(tmp_path, dataset, tmp_path / "out")
        with open(cfg, "a") as fh:
            fh.write(line + "\n")
        assert main([verb, str(cfg)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"{cfg}:9: {error}"]
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("drop, extra, problem", [
        ("dataset", "", "no dataset configured"),
        ("", "predictor = ibp\nsocial = {tmp}/gone.txt\ncentrality = in_degree\n",
         "social graph file not found: {tmp}/gone.txt"),
        ("predictor", "", "no predictors configured"),
        ("", "predictor = pbp\n", "pbp requested but no lambda values given"),
        ("", "predictor = ibp\nsocial = {dataset}\n", "ibp requested but no centrality given"),
        ("", "predictor = pbp\nlambda = 1.5\n", "lambda 1.5 outside [0, 1]"),
        ("", "t_future = 0\n", "window lengths must be positive"),
        ("", "n = 0\n", "n must be >= 1"),
        ("test_dates", "test_dates = 0\n", "test_dates must be >= 1"),
        ("", "predictor = recent_pop\n", "predictor recent_pop is listed more than once"),
        ("", "predictor = ibp\nsocial = {dataset}\ncentrality = pagerank\neta = -1\neta = -1.0\n",
         "eta -1.0 is listed more than once"),
        ("", "predictor = ibp\nsocial = {dataset}\ncentrality = in_degree\n"
         "centrality = in_degree\n", "centrality in_degree is listed more than once"),
        ("", "predictor = pbp\nlambda = 1\nlambda = 1.0\n", "lambda 1.0 is listed more than once"),
        ("", "t_future = 200\n", "t_future 200 is listed more than once"),
        ("", "n = 20\n", "n 20 is listed more than once"),
        ("", "foo = 1\nfoo = 2\n", "unknown config key 'foo'"),
    ], ids=["no-dataset", "no-social-file", "no-predictors", "pbp-no-lambda",
            "ibp-no-centrality", "lambda-range", "window", "n", "test_dates",
            "repeated-predictor", "repeated-eta", "repeated-centrality", "repeated-lambda",
            "repeated-t_future", "repeated-n", "repeated-unknown-key"])
    def test_config_rule_is_one_problem_line(self, tmp_path, dataset, capsys, drop, extra,
                                             problem):
        cfg = self.write_cfg(tmp_path, dataset, tmp_path / "out")
        kept = [line for line in cfg.read_text().splitlines(keepends=True)
                if not line.startswith(f"{drop} =")]
        cfg.write_text("".join(kept) + extra.format(tmp=tmp_path, dataset=dataset))
        assert main(["validate", str(cfg)]) == 1
        assert capsys.readouterr().out == problem.format(tmp=tmp_path) + "\n"

    def test_social_is_not_read_without_ibp(self, tmp_path, dataset, capsys):
        # as with rank, a grid without ibp never opens its social graph
        cfg = self.write_cfg(tmp_path, dataset, tmp_path / "out")
        with open(cfg, "a") as fh:
            fh.write(f"social = {tmp_path / 'gone.txt'}\n")
        assert main(["validate", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["run", str(cfg)]) == 0
        for name in ("sweep.csv", "heatmap.csv", "scatter.csv"):
            assert (tmp_path / "out" / name).exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("out", ["taken", "taken/results", ""],
                             ids=["file", "under-a-file", "empty"])
    def test_out_that_cannot_be_a_directory_is_one_problem(self, tmp_path, dataset, capsys,
                                                           caplog, verb, out):
        (tmp_path / "taken").write_text("kept\n")
        out = str(tmp_path / out) if out else out
        cfg = self.write_cfg(tmp_path, dataset, out)
        before = sorted(tmp_path.rglob("*"))
        assert main([verb, str(cfg)]) == 1
        problem = (f"cannot make out directory {out}: {tmp_path / 'taken'} is not a directory"
                   if out else "no out directory given")
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        if verb == "validate":
            assert (capsys.readouterr().out, errors) == (problem + "\n", [])
        else:
            assert (capsys.readouterr().out, errors) == ("", [f"config: {problem}"])
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "taken").read_text() == "kept\n"

    def test_seed_flag_overrides_config(self, tmp_path, dataset, monkeypatch):
        cfg = self.write_cfg(tmp_path, dataset, tmp_path / "out")
        with open(cfg, "a") as fh:
            fh.write("seed = 4\n")
        seeds = []
        monkeypatch.setattr(cli, "run_sweep", lambda config, **_: seeds.append(config.seed) or 0)
        for argv in (["run", str(cfg)], ["run", str(cfg), "--seed", "9"]):
            assert main(argv) == 0
        assert seeds == [4, 9]

    def test_validate_reports_problems(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("dataset = gone.csv\npredictor = recent_pop\n")
        assert main(["validate", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "gone.csv" in out

    def test_run_with_json_summary(self, tmp_path, dataset, capsys):
        out = tmp_path / "out"
        cfg = self.write_cfg(tmp_path, dataset, out)
        assert main(["run", str(cfg), "--json-summary"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary["kind"] == "recent_pop"
        assert 0.0 <= summary["mean_P_n"] <= 1.0
        assert (out / "sweep.csv").exists()

    def test_out_flag_overrides_config(self, tmp_path, dataset):
        cfg = self.write_cfg(tmp_path, dataset, tmp_path / "ignored")
        override = tmp_path / "flag_out"
        assert main(["run", str(cfg), "--out", str(override)]) == 0
        assert (override / "sweep.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_evaluation_error_is_one_error_line(self, tmp_path, dataset, capsys, caplog,
                                                monkeypatch):
        def fail(*args):
            raise ValueError("no scores")

        monkeypatch.setattr(experiment, "evaluate", fail)
        cfg = self.write_cfg(tmp_path, dataset, tmp_path / "out")
        assert main(["run", str(cfg)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == ["no scores"]
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "out").exists()

    def test_workers_flag_is_gone(self, tmp_path, dataset, capsys):
        cfg = self.write_cfg(tmp_path, dataset, tmp_path / "out")
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(cfg), "--workers", "1"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_validate_parses_the_social_edge_list(self, tmp_path, dataset, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("3 x\n")
        cfg = self.write_cfg(tmp_path, dataset, tmp_path / "out")
        with open(cfg, "a") as fh:
            fh.write(f"social = {edges}\npredictor = ibp\neta = 1\ncentrality = pagerank\n")
        assert main(["validate", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("cannot load social graph: ") and "edges.txt:1" in out
        assert main(["run", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_more_test_dates_than_the_span_holds(self, tmp_path, capsys, caplog, verb):
        ratings = tmp_path / "ratings.csv"
        write_ratings_csv([(k % 20, k % 7, 4.0, 50 * k) for k in range(101)], ratings)  # 5,000 s
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"dataset = {ratings}\nformat = ratings\npredictor = recent_pop\nt_past = 500\n"
            f"t_future = 500\nn = 5\ntest_dates = 100000\nout = {tmp_path / 'out'}\n"
        )
        assert main([verb, str(cfg)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        problem = ("test_dates = 100000 exceeds the 4001 distinct dates in [500, 4500] "
                   "(the data span less t_past=500, t_future=500)")
        if verb == "validate":
            assert capsys.readouterr().out == problem + "\n"
        else:
            assert errors == [f"config: {problem}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_dates_beyond_float_precision_are_one_problem(self, tmp_path, capsys, caplog, verb):
        # float64 spaces 2**62 + 11 .. 2**62 + 91 as seven copies of 2**62
        votes = tmp_path / "votes.csv"
        write_votes_csv([(k % 20, k % 7, 2**62 + k) for k in range(1, 102)], votes)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"dataset = {votes}\npredictor = recent_pop\nt_past = 10\nt_future = 10\nn = 5\n"
            f"test_dates = 7\nout = {tmp_path / 'out'}\n"
        )
        assert main([verb, str(cfg)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        problem = (f"cannot space test_dates = 7 strictly increasing in [{2**62 + 11}, "
                   f"{2**62 + 91}] at float64 precision (the data span less t_past=10, "
                   "t_future=10)")
        if verb == "validate":
            assert (capsys.readouterr().out, errors) == (problem + "\n", [])
        else:
            assert (capsys.readouterr().out, errors) == ("", [f"config: {problem}"])
        assert not (tmp_path / "out").exists()

    def test_n_above_the_item_count_warns(self, tmp_path, dataset, capsys, caplog):
        items = build(load_votes(dataset)).num_items
        cfg = self.write_cfg(tmp_path, dataset, tmp_path / "out")
        with open(cfg, "a") as fh:
            fh.write(f"n = {items + 1}\nn = {items}\n")
        for verb in ("validate", "run"):
            caplog.clear()
            assert main([verb, str(cfg)]) == 0
            warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
            assert len(warnings) == 1
            assert f"n = {items + 1} exceeds the {items} items" in warnings[0]
        assert capsys.readouterr().out == ""
        assert (tmp_path / "out" / "sweep.csv").exists()


class TestDatasetProblems:
    """Dataset rules and inputs that hold no events: exit 1 with one error
    line that names the config key or the file, and nothing written."""

    def write_cfg(self, tmp_path, dataset, format, extra=""):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"dataset = {dataset}\nformat = {format}\npredictor = recent_pop\nt_past = 200\n"
            f"t_future = 200\nn = 5\ntest_dates = 2\nout = {tmp_path / 'out'}\n{extra}"
        )
        return cfg

    def check(self, tmp_path, capsys, caplog, verb, cfg, problem):
        assert main([verb, str(cfg)]) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        if verb == "validate":
            assert capsys.readouterr().out == problem + "\n"
        else:
            assert errors == [f"config: {problem}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("format, extra, problem", [
        ("ratings", "subset_users = 5\nmin_user_degree = 3\nseed = -1\n",
         "seed must be non-negative, got -1"),
        ("votes", "seed = -1\n", "seed must be non-negative, got -1"),
        ("votes", "min_user_degree = -3\n", "min_user_degree must be >= 0, got -3"),
        ("ratings", "threshold = 7\n", "threshold must lie in [0.5, 5.0], got 7.0"),
        ("votes", "subset_users = 5\n", "subset_users applies to ratings datasets only"),
        ("ratings", "subset_users = 0\n", "subset_users must be >= 1, got 0"),
        ("votes", "eligibility = pre\n", "eligibility applies to ratings datasets only"),
    ], ids=["seed-subsetting", "seed", "min_user_degree", "threshold", "subset_users-votes",
            "subset_users-zero", "eligibility-votes"])
    def test_dataset_rule_is_a_config_problem(self, tmp_path, dataset, capsys, caplog, verb,
                                              format, extra, problem):
        if format == "ratings":
            dataset = tmp_path / "ratings.csv"
            write_ratings_csv([(k % 10, k, 4.0, 10 * k) for k in range(100)], dataset)
        cfg = self.write_cfg(tmp_path, dataset, format, extra)
        self.check(tmp_path, capsys, caplog, verb, cfg, problem)

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_too_few_users_to_subset_names_the_file_and_keys(self, tmp_path, capsys, caplog,
                                                             verb):
        ratings = tmp_path / "ratings.csv"
        write_ratings_csv([(k % 10, k, 4.0, 10 * k) for k in range(100)], ratings)  # 10 each
        cfg = self.write_cfg(tmp_path, ratings, "ratings", "subset_users = 50\n")
        problem = (f"cannot load dataset: {ratings}: subset_users = 50, but only 0 users have "
                   "min_user_degree = 20 ratings")
        self.check(tmp_path, capsys, caplog, verb, cfg, problem)

    @pytest.mark.parametrize("verb", ["validate", "run", "rank"])
    @pytest.mark.parametrize("format, rows, problem", [
        ("votes", [], "no data rows"),
        ("ratings", [], "no data rows"),
        ("ratings", [(1, 10, 2.5, 100), (2, 11, 1.0, 200)], "no rating reaches the threshold 3.0"),
        ("votes", None, "missing header row"),
    ], ids=["votes-header-only", "ratings-header-only", "ratings-below-threshold",
            "votes-empty-file"])
    def test_input_without_events_names_the_file(self, tmp_path, capsys, caplog, verb,
                                                 format, rows, problem):
        path = tmp_path / f"{format}.csv"
        if rows is None:
            path.write_bytes(b"")
        else:
            (write_votes_csv if format == "votes" else write_ratings_csv)(rows, path)
        if verb == "rank":
            argv = ["rank", str(path), "--format", format, "--spec", "total_pop"]
            assert main(argv) == 1
            assert capsys.readouterr().out == ""
            errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
            assert errors == [f"{path}: {problem}"]
        else:
            cfg = self.write_cfg(tmp_path, path, format)
            problem = f"cannot load dataset: {path}: {problem}"
            self.check(tmp_path, capsys, caplog, verb, cfg, problem)


def acceptance_7_config(tmp_path):
    """The dataset and grid of ``test_acceptance.test_7_sweep_determinism``."""
    data = tmp_path / "events.csv"
    write_votes_csv(generate(GenConfig(num_users=300, num_items=100, num_events=6000,
                                       item_arrival_rate=100 / 4800, decay_timescale=800,
                                       rng_seed=23)), data)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"dataset = {data}\nformat = votes\npredictor = total_pop\npredictor = pbp\n"
                   "predictor = wpp\nlambda = 0\nlambda = 0.9\nlambda = 1\ngamma = 0.5\n"
                   "t_past = 600\nt_past = 900\nt_future = 600\nn = 50\ntest_dates = 3\n"
                   f"out = {tmp_path / 'out'}\nseed = 1\n")
    return cfg


def degenerate_window_config(tmp_path):
    """The first 2,000 votes and 500 edges of the benchmark's sweep_quickstart
    inputs at seed 1, swept over one window whose test date 103 gains no link."""
    inputs = workloads.generate("sweep_quickstart", 1, str(tmp_path / "full"))
    votes, edges = tmp_path / "votes.csv", tmp_path / "edges.txt"
    for source, target, lines in ((inputs.dataset_path, votes, 2001),
                                  (inputs.social_path, edges, 500)):
        with open(source, encoding="utf-8") as fh:
            target.write_text("".join(itertools.islice(fh, lines)))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"dataset = {votes}\nsocial = {edges}\npredictor = recent_pop\n"
                   "predictor = ibp\ncentrality = pagerank\neta = 1\nt_past = 100\n"
                   f"t_future = 100\nn = 10\ntest_dates = 3\nout = {tmp_path / 'out'}\n")
    return cfg


class TestSetUp:
    """validate, run and rank share one serial set-up: the dataset loads
    first, then the social graph when an ibp predictor reads it, so stderr,
    errors and exit statuses come in that order."""

    @pytest.fixture
    def inputs(self, tmp_path, dataset):
        ratings, edges = tmp_path / "ratings.csv", tmp_path / "edges.txt"
        rows = load_votes(dataset).tolist()
        write_ratings_csv([(u, i, 1.0 if k % 5 == 0 else 4.0, t)
                           for k, (u, i, t) in enumerate(rows)], ratings)
        write_edge_list(generate_social(100, 300, attach_exponent=1.0, seed=4).tolist()
                        + [[7, 7]], edges)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"dataset = {ratings}\nformat = ratings\nsocial = {edges}\npredictor = ibp\n"
            "eta = 1\ncentrality = pagerank\ncentrality = leaderrank\nt_past = 200\n"
            f"t_future = 200\nn = 5\ntest_dates = 2\nout = {tmp_path / 'out'}\n"
        )
        return ratings, edges, cfg

    @staticmethod
    def rank_argv(ratings, edges):
        return ["rank", str(ratings), "--format", "ratings", "--social", str(edges),
                "--spec", "ibp,eta=1,t_past=200,centrality=leaderrank"]

    def test_stderr_keeps_the_serial_order(self, tmp_path, inputs, caplog, monkeypatch):
        ratings, edges, cfg = inputs
        for measure in ("pagerank", "leaderrank"):  # each logs a non-convergence warning
            monkeypatch.setitem(social.MEASURES, measure,
                                functools.partial(social.MEASURES[measure], max_iter=1))
        expected = {
            "run": [
                "INFO trendcast.ingestion",  # events kept
                "INFO trendcast.experiment",  # dropped 1 self-loops
                "INFO trendcast.experiment",  # loaded
                "WARNING trendcast.experiment",  # pagerank
                "WARNING trendcast.experiment",  # leaderrank
                "INFO trendcast.experiment",  # wrote
            ],
            "rank": [
                "INFO trendcast.ingestion",  # events kept
                "INFO trendcast.experiment",  # dropped 1 self-loops
                "INFO trendcast.experiment",  # loaded
                "WARNING trendcast.experiment",  # leaderrank
            ],
        }
        dropped = f"{edges}: dropped 1 self-loops, collapsed 0 duplicate edges"
        for verb, argv in (("run", ["run", str(cfg)]), ("rank", self.rank_argv(ratings, edges))):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="trendcast"):
                assert main(argv) == 0
            lines = [f"{r.levelname} {r.name}" for r in caplog.records]
            assert lines == expected[verb], verb
            assert caplog.records[1].getMessage() == dropped

    @pytest.mark.parametrize("verb", ["run", "rank"])
    def test_unconverged_centrality_is_one_warning(self, inputs, caplog, monkeypatch, verb):
        ratings, edges, cfg = inputs
        for measure in ("pagerank", "leaderrank"):
            monkeypatch.setitem(social.MEASURES, measure,
                                functools.partial(social.MEASURES[measure], max_iter=1))
        argv = ["run", str(cfg)] if verb == "run" else self.rank_argv(ratings, edges)
        with caplog.at_level(logging.DEBUG, logger="trendcast"):
            assert main(argv) == 0
        graph = load_social_graph(edges)  # the measures are still patched, as the set-up ran them
        residuals = {measure: social.compute_influence(graph, measure).residual
                     for measure in ("pagerank", "leaderrank")}
        warnings = [(r.name, r.getMessage()) for r in caplog.records
                    if r.levelno >= logging.WARNING]
        assert warnings == [
            ("trendcast.experiment",
             f"{measure} influence: 1 sweeps, relative residual {residuals[measure]:.3e}, "
             "converged False")
            for measure in (("pagerank", "leaderrank") if verb == "run" else ("leaderrank",))]

    def test_rank_logs_the_set_up_of_run(self, inputs, caplog):
        ratings, edges, cfg = inputs
        edges.write_text("1 2\n2 3\n")  # most dataset users are absent: zero influence
        cfg.write_text(cfg.read_text().replace("eta = 1\n", "eta = -1\n")
                       .replace("centrality = leaderrank\n", ""))
        argv = ["rank", str(ratings), "--format", "ratings", "--social", str(edges),
                "--spec", "ibp,eta=-1,t_past=200,centrality=pagerank"]
        records = {}
        for verb, args in (("run", ["run", str(cfg)]), ("rank", argv)):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="trendcast"):
                assert main(args) == 0
            records[verb] = [(r.levelname, r.name, r.getMessage()) for r in caplog.records]
        assert records["run"][-1][2].startswith("wrote ")
        assert any("zero-influence" in message for *_, message in records["rank"])
        assert records["rank"] == records["run"][:-1]

    @pytest.mark.parametrize("write_config", [acceptance_7_config, degenerate_window_config],
                             ids=["acceptance-7", "degenerate-window"])
    def test_validate_logs_what_run_logs(self, tmp_path, caplog, write_config):
        cfg = write_config(tmp_path)
        records = {}
        for verb in ("validate", "run"):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="trendcast"):
                assert main([verb, str(cfg)]) == 0
            records[verb] = [(r.levelname, r.name, r.getMessage()) for r in caplog.records]
        assert records["run"][-1][2].startswith("wrote ")
        assert records["validate"] == records["run"][:-1]
        if write_config is degenerate_window_config:
            assert ("WARNING", "trendcast.experiment", "degenerate true ranking at 1 of 3 test "
                    "dates (103): no item gained links") in records["validate"]

    @pytest.mark.parametrize("verb", ["run", "validate", "rank"])
    def test_bad_edge_line_is_one_error(self, inputs, capsys, caplog, verb):
        ratings, edges, cfg = inputs
        edges.write_text("1 2\n3 x\n")
        problem = f"{edges}:2: non-integer id in '3 x'"
        argv = self.rank_argv(ratings, edges) if verb == "rank" else [verb, str(cfg)]
        assert main(argv) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        out = capsys.readouterr().out
        if verb == "validate":
            assert (out, errors) == (f"cannot load social graph: {problem}\n", [])
        else:
            expected = f"config: cannot load social graph: {problem}" if verb == "run" else problem
            assert (out, errors) == ("", [expected])

    @pytest.mark.parametrize("verb", ["run", "validate", "rank"])
    @pytest.mark.parametrize("measure", ["pagerank", "leaderrank"])
    @pytest.mark.parametrize("text", ["# only a comment\n\n", "1 1\n2 2\n"],
                             ids=["comments", "self-loops"])
    def test_edge_list_without_edges_is_one_error(self, tmp_path, inputs, capsys, caplog,
                                                  verb, measure, text):
        # without edges leaderrank has no user and every pagerank ibp score is 0
        ratings, edges, cfg = inputs
        edges.write_text(text)
        cfg.write_text(cfg.read_text().replace("centrality = pagerank\ncentrality = leaderrank\n",
                                               f"centrality = {measure}\n"))
        argv = ([arg.replace("leaderrank", measure) for arg in self.rank_argv(ratings, edges)]
                if verb == "rank" else [verb, str(cfg)])
        problem = f"{edges}: no edges"
        assert main(argv) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        expected = {"run": ("", [f"config: cannot load social graph: {problem}"]),
                    "validate": (f"cannot load social graph: {problem}\n", []),
                    "rank": ("", [problem])}[verb]
        assert (capsys.readouterr().out, errors) == expected
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "rank"])
    def test_both_inputs_bad_report_the_dataset_first(self, inputs, capsys, caplog, verb):
        ratings, edges, cfg = inputs
        ratings.write_text("user,item,rating,timestamp\n1,2,x,4\n")
        edges.write_text("3 x\n")
        with pytest.raises(ValueError) as data_error:
            ingestion.load_dataset(ratings, ingestion.DatasetSpec())
        argv = self.rank_argv(ratings, edges) if verb == "rank" else [verb, str(cfg)]
        assert main(argv) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        out = capsys.readouterr().out
        if verb == "validate":
            assert out.splitlines() == [f"cannot load dataset: {data_error.value}",
                                        f"cannot load social graph: {edges}:1: non-integer id "
                                        "in '3 x'"]
        else:
            assert (out, errors) == ("", [str(data_error.value)])
