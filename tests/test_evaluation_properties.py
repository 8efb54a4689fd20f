"""evaluate and score against the brute-force oracles on small random graphs.

Small id and time ranges make score ties at rank n, windows with fewer
than n active items and users without influence common. Exponents, lambdas
and influence values are chosen so that every score is an exact binary
fraction: sums then do not depend on their order, score ties are exact,
and the predicted top-n is fixed by the (decreasing score, ascending id)
rule alone, which is what this test pins.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import Event, dedup_earliest
from trendcast.evaluation import EvalConfig, evaluate
from trendcast.events import build
from trendcast.predictors import PredictorSpec, ibp_weights, score
from trendcast.social import InfluenceVector

SPECS = [
    PredictorSpec("total_pop"),
    PredictorSpec("recent_pop"),
    *(PredictorSpec("pbp", lam=lam) for lam in (0.0, 0.5, 1.0)),
    *(PredictorSpec("wpp", gamma=gamma) for gamma in (0.0, 1.0, 2.0)),
    *(PredictorSpec("ibp", eta=eta, centrality="in_degree") for eta in (-2.0, -1.0, 0.0, 1.0)),
]

events_st = st.lists(
    st.builds(Event, st.integers(0, 7), st.integers(0, 7), st.integers(0, 30)),
    min_size=1, max_size=40,
)


def oracle_scores(events, spec, t, t_past, influence):
    """Score of every item seen by ``t``, straight from the formulas."""
    if spec.kind == "wpp":
        return oracles.wpp_scores(events, t, t_past, spec.gamma)
    if spec.kind == "ibp":
        return oracles.ibp_scores(events, t, t_past, spec.eta, influence)
    lam = {"total_pop": 0.0, "recent_pop": 1.0}.get(spec.kind, spec.lam)
    seen = {i for _, i, _ in events if oracles.degree_at(events, i, t) > 0}
    return {i: oracles.degree_at(events, i, t) - lam * oracles.degree_at(events, i, t - t_past)
            for i in seen}


@settings(max_examples=150, deadline=None)
@given(
    raw=events_st,
    t_past=st.integers(1, 12),
    t_future=st.integers(1, 12),
    ns=st.lists(st.integers(1, 10), min_size=1, max_size=4, unique=True),
    date_picks=st.lists(st.floats(0, 1), min_size=1, max_size=3),
    influence_picks=st.dictionaries(st.integers(0, 7), st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0])),
)
# 4 items in all, and only item 0 seen by the first test date: n = 3 and
# n = 12 cut past what the date has seen, n = 12 past every item
@example(raw=[Event(0, 0, 0), Event(1, 1, 5), Event(2, 2, 20), Event(3, 3, 30)], t_past=3,
         t_future=10, ns=[12, 1, 3], date_picks=[0.0, 1.0], influence_picks={0: 1.0, 2: 2.0})
def test_evaluate_many_matches_oracles(raw, t_past, t_future, ns, date_picks, influence_picks):
    graph = build(raw)
    events = dedup_earliest(raw)
    last = graph.t_last - t_future
    dates = sorted({int(p * last) for p in date_picks if last >= 0})
    if not dates:
        return
    # users missing from the dict are absent from the social graph: influence 0
    users = sorted(influence_picks)
    influence = InfluenceVector("in_degree", np.array(users, dtype=np.int64),
                                np.array([influence_picks[u] for u in users]))
    configs = [EvalConfig(t_past, t_future, dates, n) for n in ns]
    weights = ibp_weights(graph, [influence], SPECS)

    grid = evaluate(graph, SPECS, configs, weights)

    assert len(grid) == len(ns)
    for n, config, reports in zip(ns, configs, grid):
        # every n of one call reports as a call at that n alone
        assert reports == evaluate(graph, SPECS, [config], weights)[0]
        truths = {t: [i for i, _ in oracles.top_items_by_increase(events, t + t_future, t_future,
                                                                   n)] for t in dates}
        for report in reports:
            assert report.config.n == n
            for t, got in zip(dates, report.per_date):
                scores = oracle_scores(events, report.spec, t, t_past, influence_picks)
                predicted = sorted(scores, key=lambda i: (-scores[i], i))[:n]
                new = oracles.new_entries(events, t, t_past, t_future, n)
                assert got.test_date == t
                assert got.precision == oracles.precision(predicted, truths[t], n), report.spec
                assert got.new_entry_count == len(new)
                assert got.correct_new_entries == len(set(predicted) & new), report.spec
                # the one-shot path ranks exactly as the sweep does
                assert score(graph, report.spec, t, influence=influence).top(n) == predicted
