import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trendcast.cli import _parse_spec_string, main
from trendcast.ingestion import load_votes, write_votes_csv
from trendcast.social import load_social_graph
from trendcast.synthgen import GenConfig, generate


@pytest.fixture
def dataset(tmp_path):
    events = generate(GenConfig(num_users=100, num_items=30, num_events=1500, rng_seed=4))
    path = tmp_path / "events.csv"
    write_votes_csv(events, path)
    return path


def test_import_leaves_scipy_unloaded():
    # scipy.sparse costs ~0.3 s of import and only the iterative centralities
    # need it, so commands that do not compute them must not load it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import trendcast, trendcast.cli, sys; assert 'scipy' not in sys.modules"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                           timeout=60)
    assert child.returncode == 0, child.stderr


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

    @pytest.mark.parametrize("n", ["0", "-27"])
    def test_nonpositive_n_fails_cleanly(self, dataset, capsys, caplog, n):
        assert main(["rank", str(dataset), "--spec", "total_pop", "--n", n]) == 1
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "--n" in errors[0]

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

    def test_validate_reports_problems(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("dataset = gone.csv\npredictor = recent_pop\n")
        assert main(["validate", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "gone.csv" in out

    def test_run_with_json_summary(self, tmp_path, dataset, capsys):
        out = tmp_path / "out"
        cfg = self.write_cfg(tmp_path, dataset, out)
        assert main(["run", str(cfg), "--workers", "1", "--json-summary"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary["kind"] == "recent_pop"
        assert 0.0 <= summary["mean_P_n"] <= 1.0
        assert (out / "sweep.csv").exists()

    def test_out_flag_overrides_config(self, tmp_path, dataset):
        cfg = self.write_cfg(tmp_path, dataset, tmp_path / "ignored")
        override = tmp_path / "flag_out"
        assert main(["run", str(cfg), "--workers", "1", "--out", str(override)]) == 0
        assert (override / "sweep.csv").exists()
        assert not (tmp_path / "ignored").exists()
