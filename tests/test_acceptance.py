"""Acceptance criteria for the whole package.

Each test prints one ``ACCEPTANCE <k>: PASS/FAIL`` line (run pytest with
``-s`` to see them as they happen). Criteria that involve synthetic-regime
statistics share generated streams through a module-level cache, so the
suite stays within its time budget.
"""

import math
import time
from dataclasses import replace

import numpy as np

import oracles
from conftest import dedup_earliest, entry, random_events
from trendcast.events import build
from trendcast.evaluation import EvalConfig, evaluate, make_test_dates
from trendcast.experiment import parse_experiment_config, run_sweep
from trendcast.ingestion import write_votes_csv
from trendcast.predictors import PredictorSpec, score
from trendcast.social import SocialGraph, compute_influence
from trendcast.synthgen import GenConfig, generate

AGING = dict(
    num_users=2000,
    num_items=1000,
    num_events=100_000,
    item_arrival_rate=1000 / 80_000,
    decay_timescale=2000,
)
SEEDS = range(5)

_CACHE = {}


def _graphs(regime):
    if regime not in _CACHE:
        theta = AGING["decay_timescale"] if regime == "aging" else math.inf
        cfgs = [GenConfig(**{**AGING, "decay_timescale": theta}, rng_seed=s) for s in SEEDS]
        _CACHE[regime] = [build(generate(c)) for c in cfgs]
    return _CACHE[regime]


def report(num, passed, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def ordering(ranking):
    return [item for item, _ in ranking.entries]


def test_1_reduction_identities(rng):
    start = time.perf_counter()
    for _ in range(100):
        num_users = int(rng.integers(5, 501))
        num_items = int(rng.integers(2, 201))
        num_events = int(rng.integers(10, 5001))
        events = random_events(rng, num_users, num_items, num_events, t_max=2000)
        g = build(events)
        t_star = int(rng.integers(500, 2001))
        t_past = int(rng.integers(1, 1000))
        edges = [(int(a), int(b)) for a, b in rng.integers(0, num_users, size=(50, 2)) if a != b]
        sg = SocialGraph(edges, users=range(0, num_users, 2))

        total = ordering(score(g, PredictorSpec("total_pop"), t_star))
        recent = ordering(score(g, PredictorSpec("recent_pop", t_past=t_past), t_star))
        assert ordering(score(g, PredictorSpec("pbp", lam=0.0, t_past=t_past), t_star)) == total
        assert ordering(score(g, PredictorSpec("pbp", lam=1.0, t_past=t_past), t_star)) == recent
        assert ordering(score(g, PredictorSpec("wpp", gamma=0.0, t_past=t_past), t_star)) == recent
        ibp = PredictorSpec("ibp", eta=0.0, t_past=t_past, centrality="in_degree")
        assert ordering(score(g, ibp, t_star, sg)) == recent
    elapsed = time.perf_counter() - start
    report(1, elapsed < 10,
           f"pbp(0)=total, pbp(1)=wpp(0)=ibp(0)=increase on 100 fixtures in {elapsed:.1f}s")


def test_2_oracle_equivalence(rng):
    start = time.perf_counter()
    events = random_events(rng, num_users=300, num_items=80, num_events=10_000, t_max=5000)
    g = build(events)
    truth_events = dedup_earliest(events)

    items = [int(i) for i in rng.choice(g.item_ids, size=10, replace=False)]
    for _ in range(40):
        t = int(rng.integers(0, 5500))
        t_past = int(rng.integers(1, 2000))
        degree, increase = g.item_degree_vector(t), g.item_increase_vector(t, t_past)
        for item in items:
            assert entry(g.item_ids, degree, item) == oracles.degree_at(truth_events, item, t)
            assert entry(g.item_ids, increase, item) == oracles.increase(
                truth_events, item, t, t_past
            )

    for _ in range(10):
        t = int(rng.integers(100, 5000))
        t_past = int(rng.integers(1, 2000))
        n = int(rng.integers(1, 40))
        # the truth ranks every item, the past top-n the items seen by t
        increase = g.item_increase_vector(t, t_past)
        for seen in (False, True):
            cand = np.flatnonzero(g.item_degree_vector(t) > 0) if seen else np.arange(g.num_items)
            top = g.rank_items(increase, cand)[:n]
            assert list(zip(g.item_ids[top].tolist(), increase[top].tolist())) == \
                oracles.top_items_by_increase(truth_events, t, t_past, n, require_seen=seen)

    for _ in range(5):
        n = int(rng.integers(5, 30))
        t_past = int(rng.integers(200, 1500))
        t_future = int(rng.integers(200, 1500))
        t = int(rng.integers(t_past, 5000 - t_future))
        oracle_truth = [i for i, _ in oracles.top_items_by_increase(
            truth_events, t + t_future, t_future, n)]
        oracle_new = oracles.new_entries(truth_events, t, t_past, t_future, n)
        specs = [PredictorSpec("recent_pop"), PredictorSpec("total_pop")]
        reports = evaluate(g, specs, [EvalConfig(t_past, t_future, [t], n)])[0]
        for spec, rep in zip(specs, reports):
            scored = spec if spec.kind == "total_pop" else replace(spec, t_past=t_past)
            predicted = score(g, scored, t).top(n)
            got = rep.per_date[0]
            assert got.precision == oracles.precision(predicted, oracle_truth, n)
            assert got.new_entry_count == len(oracle_new)
            c_n = len(set(predicted[:n]) & oracle_new)
            assert got.correct_new_entries == c_n
            if oracle_new:
                assert got.new_entry_rate == c_n / len(oracle_new)
    elapsed = time.perf_counter() - start
    report(2, elapsed < 30, "windowed queries, rankings and P/E/C/Q match brute force "
                            f"on 10^4 events in {elapsed:.1f}s")


def test_3_centrality_correctness(rng):
    start = time.perf_counter()
    worst_pr, worst_lr = 0.0, 0.0
    for trial in range(12):
        n = int(rng.integers(3, 51))
        m = int(rng.integers(1, n * 2))
        edges = list({(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2)) if a != b})
        if not edges:
            edges = [(0, 1 % n)]
        g = SocialGraph(edges, users=range(n))

        pr = compute_influence(g, "pagerank")
        assert abs(pr.values.sum() - 1.0) < 1e-8
        diff = np.abs(pr.values - oracles.pagerank_dense_solve(n, edges)).max()
        worst_pr = max(worst_pr, diff)
        assert diff < 1e-8

        lr = compute_influence(g, "leaderrank")
        assert abs(lr.values.sum() - n) < 1e-6 * n
        diff = np.abs(lr.values - oracles.leaderrank_dense_power(n, edges)).max()
        worst_lr = max(worst_lr, diff)
        assert diff < 1e-8
    elapsed = time.perf_counter() - start
    report(3, elapsed < 10,
           f"pagerank vs dense solve (max {worst_pr:.2e}), leaderrank vs power oracle "
           f"(max {worst_lr:.2e}) on graphs <= 50 nodes in {elapsed:.1f}s")


def test_4_pure_increase_predictor_never_hits_new_entries(rng):
    checked = 0
    for _ in range(20):
        events = random_events(
            rng,
            num_users=int(rng.integers(20, 200)),
            num_items=int(rng.integers(5, 80)),
            num_events=int(rng.integers(50, 3000)),
            t_max=4000,
        )
        g = build(events)
        for n in (10, 100):
            t_past = int(rng.integers(100, 1500))
            t_future = int(rng.integers(100, 1500))
            try:
                dates = make_test_dates(g, 3, t_past, t_future)
            except ValueError:
                continue
            cfg = EvalConfig(t_past, t_future, dates, n)
            rep = evaluate(g, [PredictorSpec("pbp", lam=1.0)], [cfg])[0][0]
            assert all(d.correct_new_entries == 0 for d in rep.per_date)
            checked += len(rep.per_date)

    synth = build(generate(GenConfig(num_users=500, num_items=200, num_events=15_000,
                                     item_arrival_rate=200 / 12_000, decay_timescale=1500,
                                     rng_seed=17)))
    cfg = EvalConfig(2000, 2000, make_test_dates(synth, 5, 2000, 2000), 100)
    rep = evaluate(synth, [PredictorSpec("pbp", lam=1.0)], [cfg])[0][0]
    assert all(d.correct_new_entries == 0 for d in rep.per_date)
    checked += len(rep.per_date)
    report(4, True, f"C_n = 0 for the lam=1 predictor at all {checked} test dates")


def test_5_synthetic_regimes():
    start = time.perf_counter()
    results = {}
    for regime in ("aging", "pure_pa"):
        totals, recents = [], []
        for g in _graphs(regime):
            cfg = EvalConfig(6000, 6000, make_test_dates(g, 5, 6000, 6000), 100)
            totals.append(evaluate(g, [PredictorSpec("total_pop")], [cfg])[0][0].mean_precision)
            recents.append(evaluate(g, [PredictorSpec("recent_pop")], [cfg])[0][0].mean_precision)
        results[regime] = (float(np.mean(totals)), float(np.mean(recents)))
    elapsed = time.perf_counter() - start

    aging_total, aging_recent = results["aging"]
    pa_total, pa_recent = results["pure_pa"]
    ok = aging_recent > aging_total and abs(pa_recent - pa_total) < 0.05 and elapsed < 300
    report(5, ok,
           f"aging: recent {aging_recent:.3f} > total {aging_total:.3f}; "
           f"pure PA: |{pa_recent:.3f} - {pa_total:.3f}| < 0.05 "
           f"(5 seeds x 10^5 events, {elapsed:.0f}s)")


def test_6_precision_decays_with_future_window():
    t_small, t_large = 2000, 30_000
    p_small, p_large = [], []
    for g in _graphs("aging"):
        dates = make_test_dates(g, 5, 6000, t_large)
        for t_future, acc in ((t_small, p_small), (t_large, p_large)):
            cfg = EvalConfig(6000, t_future, dates, 100)
            acc.append(evaluate(g, [PredictorSpec("pbp", lam=1.0)], [cfg])[0][0].mean_precision)
    margin = float(np.mean(p_small) - np.mean(p_large))
    report(6, margin >= 0.05,
           f"P_100(lam=1) at T_F={t_small} exceeds T_F={t_large} by {margin:.3f} (>= 0.05)")


def test_7_sweep_determinism(tmp_path):
    events = generate(GenConfig(num_users=300, num_items=100, num_events=6000,
                                item_arrival_rate=100 / 4800, decay_timescale=800,
                                rng_seed=23))
    data = tmp_path / "events.csv"
    write_votes_csv(events, data)
    cfg_path = tmp_path / "exp.cfg"
    outputs = []
    for name, workers in (("one", 1), ("two", 2), ("rerun", 2)):
        out = tmp_path / name
        cfg_path.write_text(
            f"dataset = {data}\nformat = votes\n"
            "predictor = total_pop\npredictor = pbp\npredictor = wpp\n"
            "lambda = 0\nlambda = 0.9\nlambda = 1\ngamma = 0.5\n"
            "t_past = 600\nt_past = 900\nt_future = 600\nn = 50\ntest_dates = 3\n"
            f"out = {out}\nseed = 1\n"
        )
        assert run_sweep(parse_experiment_config(cfg_path), workers=workers) == 0
        outputs.append(out)
    same = all(
        (outputs[0] / f).read_bytes() == (o / f).read_bytes()
        for o in outputs[1:]
        for f in ("sweep.csv", "heatmap.csv", "scatter.csv")
    )
    report(7, same, "repeated sweeps produce byte-identical CSVs (1, 2, 2 workers)")


def test_8_large_scale_workload():
    num_users, num_items, num_links = 336_225, 3_553, 3_000_000
    rng = np.random.default_rng(8)

    # every user appears once (distinct items), then random unique extras
    base_users = np.arange(num_users, dtype=np.int64)
    base_keys = base_users * num_items + base_users % num_items
    need = num_links - num_users
    extra_keys = np.unique(rng.integers(0, num_users * num_items, size=int(need * 1.2)))
    extra_keys = np.setdiff1d(extra_keys, base_keys, assume_unique=True)[:need]
    assert len(extra_keys) == need
    keys = np.concatenate([base_keys, extra_keys])
    users, items = keys // num_items, keys % num_items
    ts = rng.integers(0, 3_000_000, size=num_links)
    events = np.column_stack([users, items, ts])

    start = time.perf_counter()
    g = build(events)
    assert g.num_users == num_users
    assert g.num_items == num_items
    assert g.num_links == num_links
    assert g.duplicates_collapsed == 0

    t_past = t_future = 300_000
    cfg = EvalConfig(t_past, t_future, make_test_dates(g, 7, t_past, t_future), 100)
    rep = evaluate(g, [PredictorSpec("recent_pop")], [cfg])[0][0]
    elapsed = time.perf_counter() - start
    assert len(rep.per_date) == 7
    report(8, elapsed < 120,
           f"U={g.num_users:,}, I={g.num_items:,}, L={g.num_links / 1e6:.1f}e6 built and "
           f"evaluated over 7 test dates in {elapsed:.1f}s (< 120s)")
