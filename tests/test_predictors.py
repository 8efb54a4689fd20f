import functools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import Event, dedup_earliest, entry, random_events
from trendcast.events import build
from trendcast.experiment import DEFAULT_ETA_GRID, load_inputs
from trendcast.ingestion import DatasetSpec, write_votes_csv
from trendcast.predictors import PredictorSpec, ibp_weights, score, score_rows
from trendcast.social import (MEASURES, InfluenceVector, SocialGraph, compute_influence,
                              write_edge_list)


def ordering(ranking):
    return [item for item, _ in ranking.entries]


class TestPredictorSpec:
    def test_lambda_bounds(self):
        with pytest.raises(ValueError):
            PredictorSpec("pbp", lam=1.5)
        with pytest.raises(ValueError):
            PredictorSpec("pbp", lam=-0.1)

    def test_centrality_only_for_ibp(self):
        with pytest.raises(ValueError):
            PredictorSpec("wpp", gamma=0.5, centrality="pagerank")
        with pytest.raises(ValueError):
            PredictorSpec("ibp", eta=1.0, centrality="nope")

    @pytest.mark.parametrize("kind, params, error", [
        ("total_pop", {"t_past": 10}, "t_past is only meaningful for recent_pop, pbp, wpp, ibp"),
        ("recent_pop", {"lam": 0.5}, "lam is only meaningful for pbp"),
        ("pbp", {"lam": 0.5, "gamma": 3.0}, "gamma is only meaningful for wpp"),
        ("wpp", {"gamma": 1.0, "eta": 1.0}, "eta is only meaningful for ibp"),
        ("ibp", {"eta": 1.0, "centrality": "pagerank", "gamma": 0.1},
         "gamma is only meaningful for wpp"),
    ])
    def test_parameter_its_kind_does_not_read(self, kind, params, error):
        with pytest.raises(ValueError) as info:
            PredictorSpec(kind, **params)
        assert str(info.value) == error

    @pytest.mark.parametrize("kind, params, error", [
        ("wpp", {}, "wpp needs gamma"),
        ("ibp", {"centrality": "pagerank"}, "ibp needs eta"),
    ], ids=["wpp-without-gamma", "ibp-without-eta"])
    def test_parameter_its_kind_needs(self, kind, params, error):
        with pytest.raises(ValueError) as info:
            PredictorSpec(kind, **params)
        assert str(info.value) == error

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PredictorSpec("magic")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_gamma_and_eta_finite(self, value):
        with pytest.raises(ValueError, match="gamma must be finite"):
            PredictorSpec("wpp", gamma=value)
        with pytest.raises(ValueError, match="eta must be finite"):
            PredictorSpec("ibp", eta=value, centrality="pagerank")

    def test_t_past_positive(self):
        with pytest.raises(ValueError):
            PredictorSpec("recent_pop", t_past=0)


class TestPbp:
    def test_hand_computed_score(self):
        # one item with k(t*)=100 and k(t*-T_P)=90: s = 100 - 0.9*90 = 19
        events = [Event(u, 1, 1) for u in range(90)] + [Event(u, 1, 60) for u in range(90, 100)]
        g = build(events)
        r = score(g, PredictorSpec("pbp", lam=0.9, t_past=50), 100)
        assert r.entries == [(1, pytest.approx(19.0))]

    def test_lambda_zero_equals_total_degree(self, rng):
        g = build(random_events(rng, num_events=500))
        pbp = score(g, PredictorSpec("pbp", lam=0.0, t_past=300), 700)
        assert ordering(pbp) == ordering(score(g, PredictorSpec("total_pop"), 700))

    def test_lambda_one_equals_increase(self, rng):
        g = build(random_events(rng, num_events=500))
        pbp = score(g, PredictorSpec("pbp", lam=1.0, t_past=300), 700)
        assert ordering(pbp) == ordering(score(g, PredictorSpec("recent_pop", t_past=300), 700))

    def test_score_identity(self, rng):
        # s(lam) == increase + (1 - lam) * k(t* - T_P), for every item
        g = build(random_events(rng, num_events=400))
        t, t_past, lam = 800, 250, 0.37
        r = score(g, PredictorSpec("pbp", lam=lam, t_past=t_past), t)
        increase, past = g.item_increase_vector(t, t_past), g.item_degree_vector(t - t_past)
        for item, s in r.entries:
            expected = entry(g.item_ids, increase, item) + (1 - lam) * entry(g.item_ids, past, item)
            assert s == pytest.approx(expected, abs=1e-12)

    def test_only_seen_items_ranked(self, small_graph):
        r = score(small_graph, PredictorSpec("pbp", lam=0.5, t_past=2), 2)
        assert {item for item, _ in r.entries} == {12}

    def test_rejects_bad_lambda(self, small_graph):
        with pytest.raises(ValueError):
            score(small_graph, PredictorSpec("pbp", lam=1.01, t_past=5), 5)


class TestWpp:
    def test_gamma_zero_equals_increase_scores(self, rng):
        g = build(random_events(rng, num_events=500))
        r = score(g, PredictorSpec("wpp", gamma=0.0, t_past=300), 700)
        increase = g.item_increase_vector(700, 300)
        for item, s in r.entries:
            assert s == entry(g.item_ids, increase, item)

    def test_single_collector_weight(self):
        # the collecting user has total degree 4 at t*; gamma=1 scores the item 4
        events = [Event(1, k, t) for k, t in [(10, 1), (11, 2), (12, 3), (13, 10)]]
        g = build(events)
        r = score(g, PredictorSpec("wpp", gamma=1.0, t_past=5), 10)
        scores = dict(r.entries)
        assert scores[13] == pytest.approx(4.0)

    def test_matches_double_loop_oracle(self, rng):
        events = random_events(rng, num_users=20, num_items=10, num_events=150)
        g = build(events)
        deduped = dedup_earliest(events)
        for gamma in (-0.7, 0.0, 0.5, 1.3):
            r = score(g, PredictorSpec("wpp", gamma=gamma, t_past=250), 600)
            want = oracles.wpp_scores(deduped, 600, 250, gamma)
            assert set(dict(r.entries)) == set(want)
            for item, s in r.entries:
                assert s == pytest.approx(want[item], rel=1e-12)

    def test_zero_window_activity_scores_zero(self, small_graph):
        r = score(small_graph, PredictorSpec("wpp", gamma=0.8, t_past=2), 12)
        scores = dict(r.entries)
        assert scores[11] == 0.0 and scores[12] == 0.0 and scores[10] > 0

    @pytest.mark.parametrize("spec", [PredictorSpec("wpp", gamma=0.8, t_past=2),
                                      PredictorSpec("ibp", eta=1.0, centrality="in_degree",
                                                    t_past=2)], ids=["wpp", "ibp"])
    def test_empty_window_scores_are_floats(self, small_graph, spec):
        # no event in (4, 6]: an empty bincount is int64, but scores are floats
        influence = compute_influence(SocialGraph([(1, 2)]), "in_degree")
        r = score(small_graph, spec, 6, influence=influence)
        assert [type(s) for _, s in r.entries] == [float, float]


class TestIbp:
    def social(self):
        # follower -> leader; influence by in-degree: user 1 has 2 followers
        return SocialGraph([(2, 1), (3, 1), (1, 2)], users=[1, 2, 3, 4])

    def spec(self, eta, t_past):
        return PredictorSpec("ibp", eta=eta, t_past=t_past, centrality="in_degree")

    def test_eta_zero_equals_increase(self, rng):
        g = build(random_events(rng, num_events=500))
        r = score(g, self.spec(0.0, 300), 700, self.social())
        increase = g.item_increase_vector(700, 300)
        for item, s in r.entries:
            assert s == entry(g.item_ids, increase, item)

    def test_single_collector_influence(self):
        g = build([Event(1, 5, 8), Event(2, 6, 1), Event(3, 6, 1)])
        r = score(g, self.spec(1.0, 5), 10, self.social())
        assert dict(r.entries)[5] == pytest.approx(2.0)  # user 1 has influence 2

    def test_matches_double_loop_oracle(self, rng):
        events = random_events(rng, num_users=20, num_items=10, num_events=150)
        g = build(events)
        deduped = dedup_earliest(events)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 20, size=(40, 2)) if a != b]
        sg = SocialGraph(edges, users=range(20))
        infl = compute_influence(sg, "in_degree")
        r = score(g, self.spec(1.0, 250), 600, sg)
        by_user = dict(zip(infl.user_ids.tolist(), infl.values.tolist()))
        want = oracles.ibp_scores(deduped, 600, 250, 1.0, by_user)
        for item, s in r.entries:
            assert s == pytest.approx(want[item], rel=1e-12)

    def test_zero_influence_negative_eta_contributes_zero(self, caplog):
        g = build([Event(4, 5, 8), Event(1, 5, 9), Event(2, 6, 1)])
        with caplog.at_level(logging.DEBUG):
            r = score(g, self.spec(-1.0, 5), 10, self.social())
        # user 4 has no followers: its event adds nothing; user 1 adds 2**-1
        assert dict(r.entries)[5] == pytest.approx(0.5)
        # the callers count the zero-influence users; the scorer logs nothing
        assert caplog.messages == []

    @pytest.mark.parametrize("measure", ["pagerank", "leaderrank"])
    def test_unconverged_centrality_logs_nothing(self, caplog, monkeypatch, measure):
        # the set-up reports convergence; score leaves it on the vector
        monkeypatch.setitem(MEASURES, measure, functools.partial(MEASURES[measure], max_iter=1))
        g = build([Event(1, 5, 8), Event(2, 6, 9)])
        spec = PredictorSpec("ibp", eta=1.0, t_past=5, centrality=measure)
        with caplog.at_level(logging.DEBUG):
            score(g, spec, 10, self.social())
        assert caplog.messages == []

    @pytest.mark.parametrize("users, counted", [
        ([1, 3, 5], 2),  # user 3 has no followers, user 5 is not in the social graph
        ([1, 2], None),
    ], ids=["two-zero", "none-zero"])
    def test_zero_influence_users_of_the_graph_counted(self, caplog, tmp_path, users, counted):
        # the set-up of every verb counts them, once per centrality
        votes, edges = tmp_path / "votes.csv", tmp_path / "edges.txt"
        write_votes_csv([Event(user, 7, 1) for user in users], votes)
        write_edge_list([(2, 1), (3, 1), (1, 2)], edges)  # self.social()'s edges
        with caplog.at_level(logging.WARNING):
            load_inputs(votes, DatasetSpec("votes"), edges, [self.spec(-1.0, 5)])
        assert caplog.messages == ([] if counted is None else [
            f"ibp(in_degree): {counted} of {len(users)} users are zero-influence and "
            "contribute 0 under eta < 0"])

    def test_precomputed_influence_reused(self):
        g = build([Event(1, 5, 8)])
        infl = compute_influence(self.social(), "in_degree")
        r = score(g, self.spec(1.0, 5), 10, influence=infl)
        assert dict(r.entries)[5] == pytest.approx(2.0)

    def test_needs_social_graph_or_influence(self):
        g = build([Event(1, 5, 8)])
        with pytest.raises(ValueError):
            score(g, self.spec(1.0, 5), 10)

    def test_influence_of_another_measure_rejected(self):
        # scored anyway, the in-degree vector would give item 5 a pagerank score of 2.0
        g = build([Event(1, 5, 8)])
        spec = PredictorSpec("ibp", eta=1.0, t_past=5, centrality="pagerank")
        with pytest.raises(ValueError, match="'in_degree'.*'pagerank'"):
            score(g, spec, 10, influence=compute_influence(self.social(), "in_degree"))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_users=st.integers(1, 300),
           zero_share=st.floats(0.0, 1.0), t_past=st.integers(1, 2000),
           date=st.integers(0, 2000))
    def test_per_user_weights_equal_the_per_event_powers(self, seed, num_users, zero_share,
                                                         t_past, date):
        # numpy's SIMD pow may round an array's body and its tail differently, and the
        # user array and the window's event array have different lengths
        rng = np.random.default_rng(seed)
        g = build(random_events(rng, num_users=num_users, num_items=20,
                                num_events=int(rng.integers(1, 1500)), t_max=2000))
        vectors = []
        for measure in ("in_degree", "pagerank"):
            # some users of the dataset are absent from the vector, some hold an exact 0
            ids = np.flatnonzero(rng.random(num_users) < 0.8)
            values = np.where(rng.random(len(ids)) < zero_share, 0.0,
                              rng.lognormal(size=len(ids)))
            vectors.append(InfluenceVector(measure, ids, values))
        specs = [PredictorSpec("ibp", eta=eta, t_past=t_past, centrality=v.measure)
                 for v in vectors for eta in DEFAULT_ETA_GRID]
        weights = ibp_weights(g, vectors, specs)
        users, items = g.window_events(date, t_past)
        _, rows = score_rows(g, specs, date, t_past, weights)
        every_user = np.arange(g.num_users)
        for spec, row in zip(specs, rows):
            weight = weights[spec.centrality, spec.eta]
            aligned = next(v for v in vectors if v.measure == spec.centrality).lookup(g.user_ids)
            assert np.array_equal(weight, oracles.ibp_event_weights(aligned, every_user, spec.eta))
            per_event = oracles.ibp_event_weights(aligned, users, spec.eta)
            assert np.array_equal(weight[users], per_event), spec
            want = np.bincount(items, per_event, g.num_items).astype(np.float64)
            assert row.tobytes() == want.tobytes(), spec


class TestReductionIdentities:
    def test_all_reductions_on_random_fixtures(self, rng):
        for _ in range(10):
            events = random_events(
                rng,
                num_users=int(rng.integers(5, 60)),
                num_items=int(rng.integers(3, 30)),
                num_events=int(rng.integers(20, 400)),
            )
            g = build(events)
            t, t_past = 800, 350
            edges = [(int(a), int(b)) for a, b in rng.integers(0, 60, size=(30, 2)) if a != b]
            sg = SocialGraph(edges, users=range(60))

            total = ordering(score(g, PredictorSpec("total_pop"), t))
            recent = ordering(score(g, PredictorSpec("recent_pop", t_past=t_past), t))
            assert ordering(score(g, PredictorSpec("pbp", lam=0.0, t_past=t_past), t)) == total
            assert ordering(score(g, PredictorSpec("pbp", lam=1.0, t_past=t_past), t)) == recent
            assert ordering(score(g, PredictorSpec("wpp", gamma=0.0, t_past=t_past), t)) == recent
            ibp = PredictorSpec("ibp", eta=0.0, t_past=t_past, centrality="in_degree")
            assert ordering(score(g, ibp, t, sg)) == recent

    def test_scores_nonnegative_for_nonnegative_exponents(self, rng):
        g = build(random_events(rng))
        sg = SocialGraph([(1, 2), (3, 2)], users=range(40))
        for r in (
            score(g, PredictorSpec("wpp", gamma=0.8, t_past=300), 700),
            score(g, PredictorSpec("ibp", eta=1.5, t_past=300, centrality="in_degree"), 700, sg),
        ):
            assert all(s >= 0 for _, s in r.entries)


class TestDispatchAndDeterminism:
    def test_score_dispatch(self, small_graph):
        for spec in (
            PredictorSpec("total_pop"),
            PredictorSpec("recent_pop", t_past=5),
            PredictorSpec("pbp", lam=0.9, t_past=5),
            PredictorSpec("wpp", gamma=0.5, t_past=5),
        ):
            r = score(small_graph, spec, 10)
            assert len(r.entries) > 0

    def test_windowed_kinds_need_t_past(self, small_graph):
        with pytest.raises(ValueError, match="t_past"):
            score(small_graph, PredictorSpec("recent_pop"), 10)

    def test_bit_identical_across_runs(self, rng):
        events = random_events(rng, num_events=600)
        a = build(events)
        b = build(list(reversed(events)))
        ra = score(a, PredictorSpec("pbp", lam=0.6, t_past=300), 700)
        rb = score(b, PredictorSpec("pbp", lam=0.6, t_past=300), 700)
        assert ra.entries == rb.entries

    def test_ranking_top_helper(self, small_graph):
        r = score(small_graph, PredictorSpec("total_pop"), math.inf)
        assert r.top(2) == [10, 12]
