import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from trendcast.events import build
from trendcast.evaluation import EvalConfig, evaluate, make_test_dates
from trendcast.predictors import PredictorSpec
from trendcast.synthgen import GenConfig, generate, generate_social


class TestGenConfig:
    def test_infeasible_event_count(self):
        with pytest.raises(ValueError, match="distinct user-item pairs"):
            GenConfig(num_users=3, num_items=3, num_events=10)

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            GenConfig(num_users=0, num_items=5, num_events=2)

    def test_positive_offset(self):
        with pytest.raises(ValueError):
            GenConfig(num_users=5, num_items=5, num_events=2, pa_offset=0.0)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(num_users=0), "num_users"),
        (dict(num_events=99), "num_events"),
        (dict(item_arrival_rate=float("nan")), "item_arrival_rate"),
        (dict(decay_timescale=-1.0), "decay_timescale"),
        (dict(rng_seed=-1), "rng_seed"),
    ])
    def test_error_starts_with_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field}"):
            GenConfig(**{"num_users": 5, "num_items": 5, "num_events": 2, **kwargs})


class TestGenerate:
    def test_deterministic_for_seed(self):
        cfg = GenConfig(num_users=50, num_items=20, num_events=400, rng_seed=9)
        assert np.array_equal(generate(cfg), generate(cfg))
        other = GenConfig(num_users=50, num_items=20, num_events=400, rng_seed=10)
        assert not np.array_equal(generate(cfg), generate(other))

    def test_returns_time_ordered_int64_rows(self):
        events = generate(GenConfig(num_users=30, num_items=10, num_events=250, rng_seed=2))
        assert events.dtype == np.int64 and events.shape == (250, 3)
        assert events[:, 2].tolist() == list(range(1, 251))

    def test_no_duplicate_pairs(self):
        cfg = GenConfig(num_users=30, num_items=10, num_events=250, rng_seed=2)
        events = generate(cfg)
        g = build(events)
        assert g.duplicates_collapsed == 0
        assert g.num_links == 250

    def test_single_item_takes_every_event(self):
        cfg = GenConfig(num_users=50, num_items=1, num_events=30, rng_seed=0)
        events = generate(cfg)
        assert len(events) == 30
        assert all(item == 0 for item in events[:, 1])

    def test_large_offset_approaches_uniform(self):
        cfg = GenConfig(num_users=200, num_items=50, num_events=5000,
                        pa_offset=1e9, rng_seed=0)
        deg = np.bincount(generate(cfg)[:, 1], minlength=50)
        mean = 5000 / 50
        assert np.abs(deg - mean).max() < 50  # ~5 sigma for Binomial(5000, 1/50)

    def test_item_arrival_schedule(self):
        cfg = GenConfig(num_users=100, num_items=10, num_events=500,
                        item_arrival_rate=0.02, rng_seed=1)
        events = generate(cfg)
        # item j is born at tick 50*j and cannot be collected before that
        first_seen = {}
        for _, item, t in events.tolist():
            first_seen.setdefault(item, t)
        for item, t in first_seen.items():
            assert t >= 50 * item

    def test_preferential_attachment_degree_predicts_growth(self):
        cfg = GenConfig(num_users=2000, num_items=1000, num_events=100_000, rng_seed=3)
        g = build(generate(cfg))
        k_mid = g.item_degree_vector(50_000)
        gain = g.item_degree_vector(math.inf) - k_mid
        rho = stats.spearmanr(k_mid, gain).statistic
        assert rho > 0.8

    def test_no_aging_total_and_recent_rankings_agree(self):
        cfg = GenConfig(num_users=2000, num_items=1000, num_events=100_000, rng_seed=4)
        g = build(generate(cfg))
        k = g.item_degree_vector(80_000)
        inc = g.item_increase_vector(80_000, 40_000)
        top_decile = np.argsort(-k)[: g.num_items // 10]
        rho = stats.spearmanr(k[top_decile], inc[top_decile]).statistic
        assert rho > 0.7

    def test_aging_regime_favors_recent_popularity(self):
        # small-theta: the recent-increase predictor beats total degree
        totals, recents = [], []
        for seed in range(5):
            cfg = GenConfig(num_users=800, num_items=300, num_events=20_000,
                            item_arrival_rate=300 / 16_000, decay_timescale=600,
                            rng_seed=seed)
            g = build(generate(cfg))
            ec = EvalConfig(1500, 1500, make_test_dates(g, 3, 1500, 1500), n=100)
            totals.append(evaluate(g, [PredictorSpec("total_pop")], [ec])[0][0].mean_precision)
            recents.append(evaluate(g, [PredictorSpec("recent_pop")], [ec])[0][0].mean_precision)
        assert np.mean(recents) > np.mean(totals)

    def test_activity_exponent_concentrates_users(self):
        flat = GenConfig(num_users=300, num_items=100, num_events=8000, rng_seed=5)
        skew = GenConfig(num_users=300, num_items=100, num_events=8000,
                         activity_exponent=2.0, rng_seed=5)
        def user_gini_proxy(events):
            deg = np.bincount(events[:, 0], minlength=300)
            return deg.max()
        assert user_gini_proxy(generate(skew)) > user_gini_proxy(generate(flat))


class TestGenerateSocial:
    def test_zero_edges(self):
        assert generate_social(10, 0).shape == (0, 2)

    def test_no_self_loops_or_duplicates(self):
        edges = generate_social(20, 150, attach_exponent=1.0, seed=1)
        assert len(edges) == 150
        assert len(set(map(tuple, edges.tolist()))) == 150
        assert all(a != b for a, b in edges)

    def test_deterministic(self):
        assert np.array_equal(generate_social(50, 200, 0.5, seed=3),
                              generate_social(50, 200, 0.5, seed=3))

    def test_infeasible_edge_count(self):
        with pytest.raises(ValueError):
            generate_social(3, 7)

    def test_exponent_zero_is_uniform(self):
        indeg = np.bincount(generate_social(2000, 20_000, 0.0, seed=2)[:, 1], minlength=2000)
        # uniform multinomial: no node should collect a huge share
        assert indeg.max() < 10 * max(np.median(indeg), 1)

    def test_preferential_attachment_heavy_tail(self):
        edges = generate_social(10_000, 50_000, attach_exponent=1.0, seed=0)
        indeg = np.bincount(edges[:, 1], minlength=10_000)
        assert indeg.max() >= 10 * np.median(indeg)


def digest(rows):
    return hashlib.sha256(np.asarray(rows, dtype="<i8").tobytes()).hexdigest()


# sha256 of the little-endian int64 rows each generator drew when it still
# returned Python lists; a change to any random draw or float operation
# shows up here
@pytest.mark.parametrize("kwargs, expected", [
    (dict(num_users=40, num_items=15, num_events=300, rng_seed=11),
     "f7d055126418739c2db019fb910dbd7290a178e1650963c6624c5de3e1d1fe37"),
    (dict(num_users=60, num_items=30, num_events=900, item_arrival_rate=0.05,
          decay_timescale=150, rng_seed=12),
     "c7bb6e13c02e76cfe2d4dc978227e048a479d52b31ea07b6e44cd03527edfbea"),
    (dict(num_users=50, num_items=20, num_events=600, activity_exponent=0.5, rng_seed=13),
     "b325fa2d24eab9d24e9681b40aeba6721997bdc38f7882f65642cec3b1198334"),
    # every weight ages below the float range after tick 0, so each item is drawn uniformly
    (dict(num_users=40, num_items=15, num_events=300, decay_timescale=1e-3, rng_seed=16),
     "32452a1e051d0be6f3b258f5e28186626c02ac72f4a2b0392dfe68522350d6aa"),
], ids=["uniform", "arrival-aging", "activity", "aged-out"])
def test_generate_stream_is_pinned(kwargs, expected):
    assert digest(generate(GenConfig(**kwargs))) == expected


@pytest.mark.parametrize("exponent, seed, expected", [
    (0.0, 14, "967190daead9f9be64d3d9858b69199f9dc3d7f8990a5a6a6cd5800b6603071f"),
    (1.0, 15, "0a18f21b636d3de4b77cc6980f0068189adfc71920d15ba3be7ae9fddb35814b"),
], ids=["exponent-0", "exponent-1"])
def test_generate_social_stream_is_pinned(exponent, seed, expected):
    assert digest(generate_social(30, 200, exponent, seed=seed)) == expected
