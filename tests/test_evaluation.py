import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import Event, dedup_earliest, random_events
from trendcast import evaluation
from trendcast.cli import main
from trendcast.events import build
from trendcast.evaluation import EvalConfig, evaluate, make_test_dates
from trendcast.experiment import (
    SWEEP_COLUMNS,
    parse_experiment_config,
    report_rows,
    run_sweep,
    write_reports_csv,
)
from trendcast.ingestion import write_votes_csv
from trendcast.predictors import PredictorSpec, ibp_weights, score, score_rows
from trendcast.social import SocialGraph, compute_influence


class TestEvalConfig:
    def test_rejects_unsorted_dates(self):
        with pytest.raises(ValueError):
            EvalConfig(10, 10, [5, 5])
        with pytest.raises(ValueError):
            EvalConfig(10, 10, [9, 5])

    @pytest.mark.parametrize("t_past, t_future", [(0, 10), (10, -5)])
    def test_rejects_nonpositive_window(self, t_past, t_future):
        with pytest.raises(ValueError, match="window lengths must be positive"):
            EvalConfig(t_past, t_future, [5])

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            EvalConfig(10, 10, [5], n=0)

    def test_rejects_empty_dates(self):
        # an empty date list would average nothing into a NaN mean_precision
        with pytest.raises(ValueError, match="at least one test date"):
            EvalConfig(1, 1, [], 3)


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

    def test_rejects_zero_count(self, small_graph):
        with pytest.raises(ValueError, match="need at least one test date, got 0"):
            make_test_dates(small_graph, 0, 1, 1)

    def test_span_too_short(self, small_graph):
        with pytest.raises(ValueError, match="too short"):
            make_test_dates(small_graph, 3, 100, 100)


def oracle_checked(events, spec, config):
    """``evaluate(build(events), [spec], [config])[0][0]``, with the P_n, E_n and C_n
    of every date checked against the brute-force oracles."""
    g = build(events)
    deduped = dedup_earliest(events)
    report = evaluate(g, [spec], [config])[0][0]
    scored = spec if spec.kind == "total_pop" else spec.with_t_past(config.t_past)
    for t, got in zip(config.test_dates, report.per_date):
        predicted = score(g, scored, t).top(config.n)
        want = oracles.metrics(deduped, predicted, t, config.t_past, config.t_future, config.n)
        assert (got.precision, got.new_entry_count, got.correct_new_entries) == want
    return report


def gains_events(past, future, early=None):
    """Every item collected ``early[item]`` times (default once) at t=1, then
    gaining ``past[item]`` links at t=5 and ``future[item]`` at t=15.

    At test date 10, ``EvalConfig(9, 5, [10], n)`` puts the past window over
    the t=5 links and the future window over the t=15 ones."""
    early = early or {}
    events, users = [], iter(range(100, 10_000))
    for item in sorted({*past, *future, *early}):
        counts = early.get(item, 1), past.get(item, 0), future.get(item, 0)
        for t, count in zip((1, 5, 15), counts):
            events += [Event(next(users), item, t) for _ in range(count)]
    return events


def at_date_10(events, spec, n):
    return oracle_checked(events, spec, EvalConfig(9, 5, [10], n)).per_date[0]


class TestTrueRanking:
    def test_orders_by_future_increase(self):
        # future increases: item 1 -> 9, items 2 and 3 -> 7 (tie), item 4 -> 0;
        # every item has degree 1 at the test date, so total_pop ranks by id
        events = (
            [Event(50, item, 1) for item in (1, 2, 3, 4)]
            + [Event(u, 1, 20 + u) for u in range(9)]
            + [Event(u, 2, 20 + u) for u in range(7)]
            + [Event(u, 3, 20 + u) for u in range(7)]
        )
        want = oracles.top_items_by_increase(dedup_earliest(events), 28, 20, 3)
        assert [i for i, _ in want] == [1, 2, 3]
        # the prefixes [1], [1, 2] and [1, 2, 3]: the 2-3 tie goes to the lower id
        for n in (1, 2, 3):
            report = oracle_checked(events, PredictorSpec("total_pop"), EvalConfig(8, 20, [8], n))
            assert report.per_date[0].precision == 1.0

    def test_degenerate_all_zero(self, caplog):
        events = [Event(1, 5, 1), Event(2, 6, 2), Event(3, 7, 50)]
        with caplog.at_level("DEBUG"):
            report = oracle_checked(events, PredictorSpec("total_pop"), EvalConfig(5, 10, [5], 2))
        # nothing moved in (5, 15]; the true top-2 is the first 2 items by id,
        # and evaluate computes it without a word (the set-up names such dates)
        want = oracles.top_items_by_increase(dedup_earliest(events), 15, 10, 2)
        assert want == [(5, 0), (6, 0)]
        assert report.per_date[0].precision == 1.0
        assert caplog.records == []

    def test_degenerate_dates_are_one_warning(self, tmp_path, caplog):
        # nothing moves in (5, 15] or (22, 32]; item 7 gains at 50, in (40, 50]
        events = [Event(1, 5, 1), Event(2, 6, 2), Event(3, 7, 50)]
        dates = make_test_dates(build(events), 3, 4, 10)
        assert dates == [5, 22, 40]
        with caplog.at_level("DEBUG"):
            report = oracle_checked(events, PredictorSpec("total_pop"), EvalConfig(4, 10, dates, 2))
        assert [d.precision for d in report.per_date] == [1.0, 1.0, 0.5]
        assert caplog.records == []
        # the set-up that validate and run share names the two dates, once
        data = tmp_path / "events.csv"
        write_votes_csv(events, data)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset = {data}\npredictor = total_pop\nt_past = 4\nt_future = 10\n"
                       f"n = 2\ntest_dates = 3\nout = {tmp_path / 'out'}\n")
        for verb in ("validate", "run"):
            caplog.clear()
            with caplog.at_level("WARNING"):
                assert main([verb, str(cfg)]) == 0
            assert [(r.name, r.getMessage()) for r in caplog.records] == [
                ("trendcast.experiment", "degenerate true ranking at 2 of 3 test dates (5, 22): "
                                         "no item gained links")]

    def test_degenerate_dates_are_one_warning_per_window(self, tmp_path, caplog):
        # the test dates come out as 6, 23 and 40: nothing moves in (6, 16] or
        # (23, 33]. Two depths of one window share the one warning
        data, out = tmp_path / "events.csv", tmp_path / "out"
        write_votes_csv([Event(1, 5, 1), Event(2, 6, 2), Event(3, 7, 50)], data)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset = {data}\npredictor = total_pop\nt_past = 5\nt_future = 10\n"
                       f"n = 25\nn = 50\ntest_dates = 3\nout = {out}\n")
        with caplog.at_level("WARNING"):
            assert run_sweep(parse_experiment_config(cfg)) == 0
        assert [m for m in caplog.messages if m.startswith("degenerate")] == [
            "degenerate true ranking at 2 of 3 test dates (6, 23): no item gained links"]

    def test_truncated_future_window(self, small_graph):
        with pytest.raises(ValueError, match="truncated future window"):
            evaluate(small_graph, [PredictorSpec("recent_pop")],
                     [EvalConfig(5, 100, [10], 5)])

    def test_truncated_date_rejected_before_any_is_scored(self, monkeypatch):
        # date 5's future window is covered, date 45's runs past the last event at 50
        events = [Event(1, 5, 1), Event(2, 6, 2), Event(3, 7, 50)]
        scored = []
        monkeypatch.setattr(evaluation, "score_rows",
                            lambda *args: scored.append(args[2]) or score_rows(*args))
        with pytest.raises(ValueError, match="test date 45"):
            evaluate(build(events), [PredictorSpec("total_pop")],
                     [EvalConfig(5, 10, [5, 45], 2)])
        assert scored == []

    def test_matches_sort_oracle(self, rng):
        events = random_events(rng, num_events=800)
        t_last = build(events).t_last
        for _ in range(15):
            t = int(rng.integers(0, 700))
            t_future = int(rng.integers(1, t_last - t + 1))
            t_past = int(rng.integers(1, 300))
            n = int(rng.integers(1, 12))
            for spec in (PredictorSpec("total_pop"), PredictorSpec("recent_pop")):
                oracle_checked(events, spec, EvalConfig(t_past, t_future, [t], n))


class TestPrecision:
    RECENT = PredictorSpec("recent_pop")

    def test_identical_lists(self):
        gains = {item: item for item in range(1, 6)}
        assert at_date_10(gains_events(gains, gains), self.RECENT, 3).precision == 1.0

    def test_disjoint_lists(self):
        past = {item: item for item in range(1, 6)}
        future = {item: 6 - item for item in range(1, 6)}
        assert at_date_10(gains_events(past, future), self.RECENT, 2).precision == 0.0

    def test_partial_overlap(self):
        past = {item: item for item in range(1, 9)}
        future = {8: 9, 7: 8, 6: 7, 1: 6, 2: 5}
        assert at_date_10(gains_events(past, future), self.RECENT, 5).precision == 0.6

    def test_symmetric(self, rng):
        # swapping the past and the future gains swaps the predicted and the true top-n
        a = {item: int(g) for item, g in enumerate(rng.integers(0, 6, size=12))}
        b = {item: int(g) for item, g in enumerate(rng.integers(0, 6, size=12))}
        for n in (3, 5, 8):
            assert (at_date_10(gains_events(a, b), self.RECENT, n).precision
                    == at_date_10(gains_events(b, a), self.RECENT, n).precision)

    def test_short_lists_keep_n_divisor(self):
        # n exceeds the 2 items there are: both hit, and P_4 is still divided by 4
        events = gains_events({1: 1, 2: 2}, {1: 1, 2: 1})
        assert at_date_10(events, self.RECENT, 4).precision == 0.5


class TestNewEntries:
    def test_no_change_means_none(self):
        events = [Event(u, 1, t) for u, t in zip(range(10), [1, 2, 3, 11, 12, 13, 14, 15, 16, 17])]
        report = oracle_checked(events, PredictorSpec("recent_pop"), EvalConfig(10, 7, [10], 1))
        assert report.per_date[0].new_entry_count == 0

    def test_unseen_item_becoming_first_is_new(self):
        events = [Event(1, 1, 1), Event(2, 1, 2)] + [Event(u, 9, 15) for u in range(5)]
        assert oracles.new_entries(dedup_earliest(events), 10, 10, 5, 1) == {9}
        for spec in (PredictorSpec("total_pop"), PredictorSpec("recent_pop")):
            got = oracle_checked(events, spec, EvalConfig(10, 5, [10], 1)).per_date[0]
            # item 9 is unseen at the test date, so no predictor can hit it
            assert (got.new_entry_count, got.correct_new_entries) == (1, 0)

    def test_past_top_n_ranks_only_seen_items(self):
        # items 5-7 are seen at date 10 and only 5 gained; item 1 arrives later.
        # The past top-3 is [5, 6, 7], not [5, 1, 6], so the new entry is 1, not
        # 7, and the pure-increase predictor (whose top-3 is [5, 6, 7]) misses it
        events = ([Event(0, item, 1) for item in (5, 6, 7)]
                  + [Event(1, 5, 5), Event(2, 7, 15), Event(3, 7, 15), Event(4, 1, 15)])
        assert oracles.new_entries(dedup_earliest(events), 10, 9, 5, 3) == {1}
        got = oracle_checked(events, PredictorSpec("recent_pop"), EvalConfig(9, 5, [10], 3))
        assert (got.per_date[0].new_entry_count, got.per_date[0].correct_new_entries) == (1, 0)

    def test_matches_set_difference_oracle(self, rng):
        events = random_events(rng, num_events=600)
        t_last = build(events).t_last
        for _ in range(15):
            t = int(rng.integers(100, 800))
            t_past = int(rng.integers(1, 300))
            t_future = int(rng.integers(1, t_last - t + 1))
            n = int(rng.integers(1, 10))
            for spec in (PredictorSpec("total_pop"), PredictorSpec("pbp", lam=0.5)):
                oracle_checked(events, spec, EvalConfig(t_past, t_future, [t], n))


class TestCorrectlyGuessed:
    # items 1 and 2 were collected early, 3 and 4 lead the past window
    EARLY, PAST = {1: 5, 2: 4}, {3: 1, 4: 2}

    def test_full_hit(self):
        # both new entries (1, 2) are total_pop's top 2
        events = gains_events(self.PAST, {1: 3, 2: 2}, self.EARLY)
        got = at_date_10(events, PredictorSpec("total_pop"), 2)
        assert (got.new_entry_count, got.correct_new_entries) == (2, 2)

    def test_counts_only_top_n(self):
        # the new entry 2 is total_pop's second pick, outside its top 1
        events = gains_events(self.PAST, {2: 3, 3: 1}, self.EARLY)
        got = at_date_10(events, PredictorSpec("total_pop"), 1)
        assert (got.new_entry_count, got.correct_new_entries) == (1, 0)


class TestEvaluate:
    def graph(self, rng, num_events=2000, t_max=5000):
        return build(random_events(rng, num_users=80, num_items=40,
                                    num_events=num_events, t_max=t_max))

    def test_single_date_means_equal_values(self, rng):
        g = self.graph(rng)
        cfg = EvalConfig(500, 500, make_test_dates(g, 1, 500, 500), n=10)
        report = evaluate(g, [PredictorSpec("recent_pop")], [cfg])[0][0]
        assert report.mean_precision == report.per_date[0].precision
        q = report.per_date[0].new_entry_rate
        assert report.mean_new_entry_rate == q

    def test_truth_oracle_scores_perfectly(self, rng):
        # total_pop's degrees at the test date order the items as their future
        # gains do, ties included, while the past gains differ: its top-n is the
        # true top-n, so it scores P_n = 1 and catches every new entry
        future = {item: int(g) for item, g in enumerate(rng.integers(0, 6, size=20))}
        past = {item: int(g) for item, g in enumerate(rng.integers(0, 10, size=20))}
        early = {item: 10 * future[item] + 10 - past[item] for item in future}
        events = gains_events(past, future, early)
        hits = 0
        for n in range(1, 21):
            got = at_date_10(events, PredictorSpec("total_pop"), n)
            assert got.precision == 1.0
            assert got.correct_new_entries == got.new_entry_count
            hits += got.new_entry_count
        assert hits > 0

    def test_recent_predictor_never_hits_new_entries(self, rng):
        g = self.graph(rng)
        cfg = EvalConfig(400, 600, make_test_dates(g, 4, 400, 600), n=8)
        report = evaluate(g, [PredictorSpec("pbp", lam=1.0)], [cfg])[0][0]
        assert all(d.correct_new_entries == 0 for d in report.per_date)

    def test_window_error_names_date(self, rng):
        g = self.graph(rng)
        bad = g.t_last - 10
        cfg = EvalConfig(400, 600, [bad], n=8)
        with pytest.raises(ValueError, match=str(bad)):
            evaluate(g, [PredictorSpec("recent_pop")], [cfg])

    def test_t_past_mismatch_rejected(self, rng):
        g = self.graph(rng)
        cfg = EvalConfig(400, 600, [2500], n=8)
        with pytest.raises(ValueError, match="disagrees"):
            evaluate(g, [PredictorSpec("recent_pop", t_past=300)], [cfg])

    def test_metric_ranges(self, rng):
        g = self.graph(rng)
        cfg = EvalConfig(700, 700, make_test_dates(g, 5, 700, 700), n=12)
        for spec in (PredictorSpec("total_pop"), PredictorSpec("wpp", gamma=0.5)):
            report = evaluate(g, [spec], [cfg])[0][0]
            for d in report.per_date:
                assert 0.0 <= d.precision <= 1.0
                assert 0 <= d.new_entry_count <= 12
                assert 0 <= d.correct_new_entries <= min(d.new_entry_count, 12)
                if d.new_entry_rate is not None:
                    assert 0.0 <= d.new_entry_rate <= 1.0

    def test_ibp_needs_social_or_influence(self, rng):
        g = self.graph(rng)
        with pytest.raises(ValueError, match="social"):
            ibp_weights(g, [], [PredictorSpec("ibp", eta=1.0, centrality="in_degree")])

    def test_influence_of_another_measure_rejected(self, rng):
        g = self.graph(rng)
        in_degree = compute_influence(SocialGraph([(1, 2), (3, 2)], users=range(80)), "in_degree")
        spec = PredictorSpec("ibp", eta=1.0, centrality="pagerank")
        with pytest.raises(ValueError, match="'in_degree'.*'pagerank'"):
            ibp_weights(g, [in_degree], [spec])

    def test_two_vectors_of_one_measure_rejected(self, rng):
        g = self.graph(rng)
        in_degree = compute_influence(SocialGraph([(1, 2), (3, 2)], users=range(80)), "in_degree")
        spec = PredictorSpec("ibp", eta=1.0, centrality="in_degree")
        with pytest.raises(ValueError, match="two influence vectors of 'in_degree'"):
            ibp_weights(g, [in_degree, in_degree], [spec])

    def test_missing_centrality_named(self, rng):
        g = self.graph(rng)
        in_degree = compute_influence(SocialGraph([(1, 2), (3, 2)], users=range(80)), "in_degree")
        specs = [PredictorSpec("ibp", eta=1.0, centrality=m) for m in ("in_degree", "pagerank")]
        with pytest.raises(ValueError, match=r"given for \['in_degree'\], but ibp needs "
                                             r"\['pagerank'\]: compute them on a social graph"):
            ibp_weights(g, [in_degree], specs)

    def test_ibp_spec_without_its_weights_rejected(self, rng):
        g = self.graph(rng)
        cfg = EvalConfig(500, 500, make_test_dates(g, 2, 500, 500), n=5)
        in_degree = compute_influence(SocialGraph([(1, 2), (3, 2)], users=range(80)), "in_degree")
        weights = ibp_weights(g, [in_degree], [PredictorSpec("ibp", eta=1.0,
                                                             centrality="in_degree")])
        spec = PredictorSpec("ibp", eta=0.5, centrality="in_degree")
        for given in (None, weights):
            with pytest.raises(ValueError, match=r"no weights for ibp\(in_degree, eta=0.5\)"):
                evaluate(g, [spec], [cfg], given)

    def test_configs_of_two_windows_rejected(self, rng):
        g = self.graph(rng)
        dates = make_test_dates(g, 2, 500, 500)
        for other in (EvalConfig(400, 500, dates, 5), EvalConfig(500, 400, dates, 5),
                      EvalConfig(500, 500, dates[:1], 5)):
            with pytest.raises(ValueError, match="share one window"):
                evaluate(g, [PredictorSpec("total_pop")], [EvalConfig(500, 500, dates, 5), other])
        with pytest.raises(ValueError, match="share one window"):
            evaluate(g, [PredictorSpec("total_pop")], [])


def test_degenerate_window_numbers_are_pinned():
    # 7 items, all collected at t=1; items 1 and 2 gain a link in (1, 5] and
    # only item 3 gains one in (5, 9]. The true top-5 at date 5 is item 3 and
    # four zero-gain items in id order, which both predictors "hit". These are
    # today's numbers; item 5 of ROADMAP.md (a truth of positive-gain items
    # only) changes them on purpose.
    events = ([Event(item, item, 1) for item in range(1, 8)]
              + [Event(10, 1, 3), Event(11, 2, 4), Event(12, 3, 9)])
    config = EvalConfig(4, 4, [5], 5)
    for spec in (PredictorSpec("recent_pop"), PredictorSpec("total_pop")):
        got = oracle_checked(events, spec, config).per_date[0]
        assert (got.precision, got.new_entry_count) == (1.0, 0)


class TestOneScoringPassPerDate:
    """evaluate scores every spec of a date in one score_rows pass; nothing
    computed for one spec, centrality or window length may leak into
    another."""

    SPECS = [
        PredictorSpec("total_pop"),
        PredictorSpec("recent_pop"),
        PredictorSpec("pbp", lam=0.4),
        *(PredictorSpec("wpp", gamma=gamma) for gamma in (-0.5, 0.0, 1.5)),
        *(PredictorSpec("ibp", eta=eta, centrality=measure)
          for measure in ("in_degree", "pagerank") for eta in (-1.0, -0.3, 0.0, 0.7)),
    ]

    def test_many_specs_equal_one_at_a_time(self, rng):
        g = build(random_events(rng, num_users=80, num_items=40, num_events=2000, t_max=5000))
        # users 60-79 are not in the social graph, and followerless users have
        # in-degree 0, so the two centralities zero out different users
        social = SocialGraph(rng.integers(0, 60, size=(150, 2)))
        influence = {m: compute_influence(social, m) for m in ("in_degree", "pagerank")}
        # the same dates under both window lengths
        dates = make_test_dates(g, 4, 700, 500)
        weights = ibp_weights(g, influence.values(), self.SPECS)
        for t_past in (300, 700):
            cfg = EvalConfig(t_past, 500, dates, n=10)
            (many,) = evaluate(g, self.SPECS, [cfg], weights)
            one = [evaluate(g, [spec], [cfg],
                            ibp_weights(g, [influence.get(spec.centrality)], [spec]))[0][0]
                   for spec in self.SPECS]
            assert many == one

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t_past=st.integers(1, 3000),
           date=st.integers(0, 5000))
    def test_each_row_equals_its_spec_alone(self, seed, t_past, date):
        rng = np.random.default_rng(seed)
        g = build(random_events(rng, num_users=80, num_items=40, num_events=600, t_max=5000))
        # users 60-79 are not in the social graph: influence 0 under eta < 0
        social = SocialGraph(rng.integers(0, 60, size=(150, 2)))
        vectors = [compute_influence(social, m) for m in ("in_degree", "pagerank")]
        weights = ibp_weights(g, vectors, self.SPECS)
        seen, rows = score_rows(g, self.SPECS, date, t_past, weights)
        for spec, row in zip(self.SPECS, rows):
            alone_seen, (alone,) = score_rows(g, [spec], date, t_past, weights)
            assert np.array_equal(seen, alone_seen)
            assert row.dtype == alone.dtype == np.float64
            assert row.tobytes() == alone.tobytes(), spec

    def test_shared_degree_row_is_read_only(self, small_graph):
        # the total_pop row is the degree vector every other row is built from
        _, (row, increase) = score_rows(small_graph, [PredictorSpec("total_pop"),
                                                      PredictorSpec("recent_pop", t_past=5)],
                                        10, 5, {})
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1.0
        assert increase.flags.writeable


class TestCsvOutput:
    def test_rows_and_summary(self, rng):
        g = build(random_events(rng, num_events=900, t_max=3000))
        cfg = EvalConfig(500, 500, make_test_dates(g, 3, 500, 500), n=10)
        report = evaluate(g, [PredictorSpec("pbp", lam=0.9)], [cfg])[0][0]
        rows = report_rows(report)
        assert len(rows) == 4  # 3 dates + mean
        assert rows[-1][SWEEP_COLUMNS.index("t_star")] == "mean"
        assert rows[0][0] == "pbp"
        assert rows[0][SWEEP_COLUMNS.index("lambda")] == "0.9"

    def test_csv_file_round_trip(self, rng, tmp_path):
        g = build(random_events(rng, num_events=900, t_max=3000))
        cfg = EvalConfig(500, 500, make_test_dates(g, 2, 500, 500), n=10)
        reports = evaluate(g, [PredictorSpec("recent_pop")], [cfg])[0]
        path = tmp_path / "sweep.csv"
        write_reports_csv(reports, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SWEEP_COLUMNS
        assert len(rows) == 1 + 3
