import csv
import logging

import pytest

import oracles
from conftest import Event, dedup_earliest, random_events
from trendcast.events import build
from trendcast.evaluation import (
    EvalConfig,
    correctly_guessed,
    evaluate,
    evaluate_many,
    make_test_dates,
    new_entries,
    precision,
    report_rows,
    true_ranking,
    write_reports_csv,
    SWEEP_COLUMNS,
)
from trendcast.predictors import PredictorSpec
from trendcast.social import SocialGraph, compute_influence, influence_in_degree


class TestEvalConfig:
    def test_rejects_unsorted_dates(self):
        with pytest.raises(ValueError):
            EvalConfig(10, 10, [5, 5])
        with pytest.raises(ValueError):
            EvalConfig(10, 10, [9, 5])

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            EvalConfig(10, 10, [5], n=0)


class TestMakeTestDates:
    def test_margins_respected(self, rng):
        g = build(random_events(rng, t_max=10_000))
        dates = make_test_dates(g, 7, 500, 800)
        assert len(dates) == 7
        assert dates[0] >= g.t_first + 500
        assert dates[-1] <= g.t_last - 800
        assert dates == sorted(dates)

    def test_single_date_is_centered(self, rng):
        g = build(random_events(rng, t_max=10_000))
        (date,) = make_test_dates(g, 1, 100, 100)
        assert g.t_first + 100 <= date <= g.t_last - 100

    def test_span_too_short(self, small_graph):
        with pytest.raises(ValueError, match="too short"):
            make_test_dates(small_graph, 3, 100, 100)


class TestTrueRanking:
    def test_orders_by_future_increase(self):
        # future increases: item 1 -> 9, items 2 and 3 -> 7 (tie), item 4 -> 0
        events = (
            [Event(u, 1, 20 + u) for u in range(9)]
            + [Event(u, 2, 20 + u) for u in range(7)]
            + [Event(u, 3, 20 + u) for u in range(7)]
            + [Event(50, 4, 1)]
        )
        g = build(events)
        assert true_ranking(g, 8, 20, 3) == [1, 2, 3]

    def test_degenerate_all_zero(self, caplog):
        g = build([Event(1, 5, 1), Event(2, 6, 2), Event(3, 7, 50)])
        with caplog.at_level("WARNING"):
            top = true_ranking(g, 5, 10, 2)
        # nothing moved in (5, 15]; first n items by id, flagged
        assert top == [5, 6]
        assert any("degenerate" in m for m in caplog.messages)

    def test_truncated_future_window(self, small_graph):
        with pytest.raises(ValueError, match="truncated future window"):
            true_ranking(small_graph, 10, 100, 5)

    def test_matches_sort_oracle(self, rng):
        events = random_events(rng, num_events=800)
        g = build(events)
        deduped = dedup_earliest(events)
        for _ in range(15):
            t = int(rng.integers(0, 700))
            t_future = int(rng.integers(1, 1000 - t + 1))
            n = int(rng.integers(1, 12))
            want = [i for i, _ in oracles.top_items_by_increase(deduped, t + t_future, t_future, n)]
            assert true_ranking(g, t, t_future, n) == want


class TestPrecision:
    def test_identical_lists(self):
        assert precision(list(range(100)), list(range(100)), 100) == 1.0

    def test_disjoint_lists(self):
        assert precision([1, 2, 3], [4, 5, 6], 3) == 0.0

    def test_partial_overlap(self):
        assert precision([1, 2, 3, 4, 5], [1, 2, 3, 9, 8], 5) == 0.6

    def test_symmetric(self, rng):
        a = [int(x) for x in rng.permutation(50)[:20]]
        b = [int(x) for x in rng.permutation(50)[:20]]
        assert precision(a, b, 10) == precision(b, a, 10)

    def test_short_lists_keep_n_divisor(self):
        assert precision([1, 2], [1, 2], 4) == 0.5


class TestNewEntries:
    def test_no_change_means_none(self):
        events = [Event(u, 1, t) for u, t in zip(range(10), [1, 2, 3, 11, 12, 13, 14, 15, 16, 17])]
        g = build(events)
        e_n, new = new_entries(g, 10, 10, 7, 1)
        assert e_n == 0 and new == set()

    def test_unseen_item_becoming_first_is_new(self):
        events = [Event(1, 1, 1), Event(2, 1, 2)] + [Event(u, 9, 15) for u in range(5)]
        g = build(events)
        e_n, new = new_entries(g, 10, 10, 10, 1)
        assert e_n == 1 and new == {9}

    def test_matches_set_difference_oracle(self, rng):
        events = random_events(rng, num_events=600)
        g = build(events)
        deduped = dedup_earliest(events)
        for _ in range(15):
            t = int(rng.integers(100, 800))
            t_past = int(rng.integers(1, 300))
            t_future = int(rng.integers(1, 1000 - t + 1))
            n = int(rng.integers(1, 10))
            e_n, new = new_entries(g, t, t_past, t_future, n)
            want = oracles.new_entries(deduped, t, t_past, t_future, n)
            assert new == want and e_n == len(want)


class TestCorrectlyGuessed:
    def test_full_hit(self):
        assert correctly_guessed([1, 2, 3], {2, 3}, 3) == 2

    def test_counts_only_top_n(self):
        assert correctly_guessed([1, 2, 3, 4], {4}, 3) == 0


class TestEvaluate:
    def graph(self, rng, num_events=2000, t_max=5000):
        return build(random_events(rng, num_users=80, num_items=40,
                                    num_events=num_events, t_max=t_max))

    def test_single_date_means_equal_values(self, rng):
        g = self.graph(rng)
        cfg = EvalConfig(500, 500, make_test_dates(g, 1, 500, 500), n=10)
        report = evaluate(g, PredictorSpec("recent_pop"), cfg)
        assert report.mean_precision == report.per_date[0].precision
        q = report.per_date[0].new_entry_rate
        assert report.mean_new_entry_rate == q

    def test_truth_oracle_scores_perfectly(self, rng):
        g = self.graph(rng)
        dates = make_test_dates(g, 3, 500, 500)
        for date in dates:
            truth = true_ranking(g, date, 500, 10)
            assert precision(truth, truth, 10) == 1.0
            e_n, new = new_entries(g, date, 500, 500, 10)
            assert correctly_guessed(truth, new, 10) == e_n

    def test_recent_predictor_never_hits_new_entries(self, rng):
        g = self.graph(rng)
        cfg = EvalConfig(400, 600, make_test_dates(g, 4, 400, 600), n=8)
        report = evaluate(g, PredictorSpec("pbp", lam=1.0), cfg)
        assert all(d.correct_new_entries == 0 for d in report.per_date)

    def test_window_error_names_date(self, rng):
        g = self.graph(rng)
        bad = g.t_last - 10
        cfg = EvalConfig(400, 600, [bad], n=8)
        with pytest.raises(ValueError, match=str(bad)):
            evaluate(g, PredictorSpec("recent_pop"), cfg)

    def test_t_past_mismatch_rejected(self, rng):
        g = self.graph(rng)
        cfg = EvalConfig(400, 600, [2500], n=8)
        with pytest.raises(ValueError, match="disagrees"):
            evaluate(g, PredictorSpec("recent_pop", t_past=300), cfg)

    def test_metric_ranges(self, rng):
        g = self.graph(rng)
        cfg = EvalConfig(700, 700, make_test_dates(g, 5, 700, 700), n=12)
        for spec in (PredictorSpec("total_pop"), PredictorSpec("wpp", gamma=0.5)):
            report = evaluate(g, spec, cfg)
            for d in report.per_date:
                assert 0.0 <= d.precision <= 1.0
                assert 0 <= d.new_entry_count <= 12
                assert 0 <= d.correct_new_entries <= min(d.new_entry_count, 12)
                if d.new_entry_rate is not None:
                    assert 0.0 <= d.new_entry_rate <= 1.0

    def test_ibp_needs_social_or_influence(self, rng):
        g = self.graph(rng)
        cfg = EvalConfig(500, 500, make_test_dates(g, 2, 500, 500), n=5)
        with pytest.raises(ValueError, match="social"):
            evaluate(g, PredictorSpec("ibp", eta=1.0, centrality="in_degree"), cfg)

    def test_influence_of_another_measure_rejected(self, rng):
        g = self.graph(rng)
        cfg = EvalConfig(500, 500, make_test_dates(g, 2, 500, 500), n=5)
        in_degree = influence_in_degree(SocialGraph([(1, 2), (3, 2)], users=range(80)))
        spec = PredictorSpec("ibp", eta=1.0, centrality="pagerank")
        with pytest.raises(ValueError, match="'in_degree'.*'pagerank'"):
            evaluate(g, spec, cfg, in_degree)
        with pytest.raises(ValueError, match="'in_degree'.*'pagerank'"):
            evaluate_many(g, [spec], cfg, {"pagerank": in_degree})
        # filed under the wrong key, even where no spec reads it
        with pytest.raises(ValueError, match="'in_degree'.*'leaderrank'"):
            evaluate_many(g, [PredictorSpec("recent_pop")], cfg, {"leaderrank": in_degree})


class TestSharedWindow:
    """evaluate_many scores every spec of a date from one shared window;
    nothing computed for one spec, centrality or window length may leak into
    another."""

    SPECS = [
        PredictorSpec("total_pop"),
        PredictorSpec("recent_pop"),
        PredictorSpec("pbp", lam=0.4),
        *(PredictorSpec("wpp", gamma=gamma) for gamma in (-0.5, 0.0, 1.5)),
        *(PredictorSpec("ibp", eta=eta, centrality=measure)
          for measure in ("in_degree", "pagerank") for eta in (-1.0, -0.3, 0.0, 0.7)),
    ]

    @staticmethod
    def zero_influence_warnings(caplog):
        return [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING and "zero-influence" in r.getMessage()]

    def test_many_specs_equal_one_at_a_time(self, rng, caplog):
        g = build(random_events(rng, num_users=80, num_items=40, num_events=2000, t_max=5000))
        # users 60-79 are not in the social graph, and followerless users have
        # in-degree 0, so the two centralities zero out different users
        social = SocialGraph(rng.integers(0, 60, size=(150, 2)))
        influence = {m: compute_influence(social, m) for m in ("in_degree", "pagerank")}
        # the same dates under both window lengths
        dates = make_test_dates(g, 4, 700, 500)
        for t_past in (300, 700):
            cfg = EvalConfig(t_past, 500, dates, n=10)
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                many = evaluate_many(g, self.SPECS, cfg, influence)
            many_warnings = self.zero_influence_warnings(caplog)
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                one = [evaluate(g, spec, cfg, influence.get(spec.centrality))
                       for spec in self.SPECS]
            assert many == one
            assert many_warnings == self.zero_influence_warnings(caplog)
            assert len(many_warnings) == 4  # one per negative-eta spec
            # the two centralities zero out different users at eta=-1
            assert many_warnings[0].replace("in_degree", "pagerank") != many_warnings[2]


class TestCsvOutput:
    def test_rows_and_summary(self, rng):
        g = build(random_events(rng, num_events=900, t_max=3000))
        cfg = EvalConfig(500, 500, make_test_dates(g, 3, 500, 500), n=10)
        report = evaluate(g, PredictorSpec("pbp", lam=0.9), cfg)
        rows = report_rows(report)
        assert len(rows) == 4  # 3 dates + mean
        assert rows[-1][SWEEP_COLUMNS.index("t_star")] == "mean"
        assert rows[0][0] == "pbp"
        assert rows[0][SWEEP_COLUMNS.index("lambda")] == "0.9"

    def test_csv_file_round_trip(self, rng, tmp_path):
        g = build(random_events(rng, num_events=900, t_max=3000))
        cfg = EvalConfig(500, 500, make_test_dates(g, 2, 500, 500), n=10)
        reports = [evaluate(g, PredictorSpec("recent_pop"), cfg)]
        path = tmp_path / "sweep.csv"
        write_reports_csv(reports, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SWEEP_COLUMNS
        assert len(rows) == 1 + 3
