import hashlib
import math

import numpy as np
import pytest

import oracles
from conftest import Event, dedup_earliest, entry, events_of, random_events
from trendcast.events import build, compact

INT64 = np.iinfo(np.int64)


class TestBuild:
    def test_duplicates_keep_earliest(self):
        g = build([Event(1, 1, 10), Event(1, 1, 5), Event(2, 1, 7)])
        assert g.num_links == 2
        assert events_of(g) == [Event(1, 1, 5), Event(2, 1, 7)]
        assert g.duplicates_collapsed == 1

    def test_empty_stream(self):
        with pytest.raises(ValueError, match="empty event stream"):
            build([])

    def test_negative_timestamp_names_record(self):
        with pytest.raises(ValueError, match=r"user=3.*item=7.*timestamp=-1"):
            build([Event(1, 1, 0), Event(3, 7, -1)])

    def test_counts(self, rng):
        events = random_events(rng)
        g = build(events)
        expected = dedup_earliest(events)
        assert g.num_links == len(expected)
        assert g.num_users == len({e.user_id for e in expected})
        assert g.num_items == len({e.item_id for e in expected})

    def test_build_accepts_plain_tuples_and_unsorted_input(self):
        g = build([(5, 9, 30), (4, 9, 10)])
        assert [e.timestamp for e in events_of(g)] == [10, 30]

    def test_array_matches_event_list(self, rng):
        events = random_events(rng, num_events=200)
        a = build(events)
        b = build(np.array(events, dtype=np.int64))
        assert events_of(a) == events_of(b)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="triples"):
            build(np.zeros((4, 2), dtype=np.int64))

    @pytest.mark.parametrize("scale", [(1, 1, 1), (2**56, 2**57, 2**50)], ids=["dense", "sparse"])
    def test_order_matches_dedup_oracle(self, rng, scale):
        # 40 timestamps and 1,000 pairs over 3,000 rows: heavy ties and duplicates;
        # scaled ids and timestamps span far more than twice the rows (the sort path)
        num = 3_000
        users = rng.integers(0, 50, num) * scale[0] - 2**62
        items = rng.integers(0, 20, num) * scale[1] + 2**61
        ts = rng.integers(0, 40, num) * scale[2]
        events = [Event(*e) for e in zip(users.tolist(), items.tolist(), ts.tolist())]
        g = build(events)
        want = sorted(dedup_earliest(events), key=lambda e: (e.timestamp, e.user_id, e.item_id))
        assert events_of(g) == want
        assert g.duplicates_collapsed == num - len(want) > 0

    @pytest.mark.parametrize("extra", [0, 1], ids=["offsets-fit", "offsets-overflow"])
    def test_time_ranks_at_the_int64_limit(self, extra):
        # (span + 1) * rows just below int64's maximum ranks timestamps by
        # their offset from the first; one more second ranks them by index
        rows, t0 = 8, 5
        span = INT64.max // rows - 1 + extra
        assert ((span + 1) * rows <= INT64.max) == (extra == 0)
        ts = [t0 + span, t0, t0 + span // 2, t0 + span, t0 + 1, t0 + span - 1, t0 + span // 3, t0]
        pairs = [(1, 7), (2, 7), (1, 9), (2, 9)] * 2
        events = [Event(u, i, t) for (u, i), t in zip(pairs, ts)]
        g = build(events)
        want = sorted(dedup_earliest(events), key=lambda e: (e.timestamp, e.user_id, e.item_id))
        assert events_of(g) == want
        assert g._ts.dtype == np.int64 and g.duplicates_collapsed == 4

    def test_keys_past_int64_take_the_index_sort(self):
        # distinct users, items and timestamps: U * I * T exceeds int64, so the
        # duplicates collapse on an argsort of the pair key; the five
        # duplicates come first in the file but carry later timestamps
        n, dup = 2_100_000, 5
        rng = np.random.default_rng(14)
        users, items, ts = (rng.permutation(n) for _ in range(3))
        later = np.column_stack([users[:dup], items[:dup], n + np.arange(dup)])
        g = build(np.vstack([later, np.column_stack([users, items, ts])]))
        assert g.num_users * g.num_items * (n + dup) > INT64.max
        assert g.duplicates_collapsed == dup
        order = np.argsort(ts)
        assert np.array_equal(g._ts, ts[order])
        assert np.array_equal(g.user_ids[g._users], users[order])
        assert np.array_equal(g.item_ids[g._items], items[order])

    def test_seeded_build_digest(self):
        # sha256 of the five arrays, recorded at the time-sort implementation
        # this build replaced; the time and id orders must not move
        rng = np.random.default_rng(2026)
        num = 200_000
        g = build(np.column_stack([rng.integers(0, 20_000, num), rng.integers(0, 5_000, num),
                                   rng.integers(0, 100_000, num)]))
        digest = hashlib.sha256()
        for a in (g.user_ids, g.item_ids, g._users, g._items, g._ts):
            digest.update(a.dtype.str.encode())
            digest.update(a.tobytes())
        assert (g.num_links, g.duplicates_collapsed) == (199_807, 193)
        assert digest.hexdigest() == (
            "abf4d97ab8d229fe6b780f55a4eb57475c2dcceb3da3185c2cbe5a0d4704e0c6")


class TestCompact:
    """``compact`` returns exactly ``np.unique(values, return_inverse=True)``,
    from a presence table when the values span fewer than ``2 * size``
    integers and from ``np.unique`` otherwise."""

    @pytest.mark.parametrize("values, sorts", [
        (np.random.default_rng(1).integers(0, 1_000, 5_000), False),
        (np.random.default_rng(2).integers(-500, 500, 800), False),
        ([2**62 + 5, -2**62, 2**62, -2**62 + 9, 2**62 + 5], True),
        ([INT64.min, INT64.max, 0, INT64.min, 1], True),
        ([INT64.max, INT64.max - 3, INT64.max - 1], False),
        ([INT64.min + 2, INT64.min, INT64.min + 2], False),
        ([7], False),
        ([0, 7, 7, 3], False),  # span 7 = 2 * size - 1
        ([0, 8, 8, 3], True),   # span 8 = 2 * size
    ], ids=["dense", "negative", "sparse-2^62", "int64-limits", "dense-at-max", "dense-at-min",
            "single", "span-2n-1", "span-2n"])
    def test_matches_unique(self, monkeypatch, values, sorts):
        values = np.asarray(values, dtype=np.int64)
        unique = np.unique
        want_ids, want_index = unique(values, return_inverse=True)
        calls = []
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
        ids, index = compact(values)
        assert ids.dtype == want_ids.dtype and index.dtype == want_index.dtype
        assert np.array_equal(ids, want_ids) and np.array_equal(index, want_index)
        assert bool(calls) == sorts


class TestDegreeQueries:
    def test_boundary_is_inclusive(self, small_graph):
        assert entry(small_graph.item_ids, small_graph.item_degree_vector(8), 10) == 2

    def test_before_first_event(self, small_graph):
        assert entry(small_graph.item_ids, small_graph.item_degree_vector(2), 10) == 0

    def test_infinity_sentinel(self, small_graph):
        g = small_graph
        assert entry(g.item_ids, g.item_degree_vector(math.inf), 10) == 3
        assert entry(g.user_ids, g.user_degree_vector(math.inf), 1) == 2

    def test_unknown_ids(self, small_graph):
        # the vectors hold one entry per id seen in the events, none for others
        g = small_graph
        assert 999 not in g.item_ids and 999 not in g.user_ids
        assert len(g.item_degree_vector(5)) == g.num_items
        assert len(g.user_degree_vector(5)) == g.num_users

    def test_user_degree(self, small_graph):
        # user 2 collected at t=1 and t=8
        g = small_graph
        assert entry(g.user_ids, g.user_degree_vector(5), 2) == 1
        assert entry(g.user_ids, g.user_degree_vector(0), 2) == 0

    def test_degree_sum_equals_links(self, rng):
        g = build(random_events(rng))
        total_u = int(g.user_degree_vector(math.inf).sum())
        total_i = int(g.item_degree_vector(math.inf).sum())
        assert total_u == total_i == g.num_links

    def test_degree_vectors_match_linear_scan_oracle(self, rng):
        events = random_events(rng)
        g = build(events)
        deduped = dedup_earliest(events)
        for t in (0, 250, 777, math.inf):
            iv = g.item_degree_vector(t)
            assert [oracles.degree_at(deduped, i, t) for i in g.item_ids] == iv.tolist()
            uv = g.user_degree_vector(t)
            assert [oracles.user_degree_at(deduped, u, t) for u in g.user_ids] == uv.tolist()


class TestIncrease:
    def test_window_is_half_open(self, small_graph):
        # window (7, 12] holds the events at 8 and 12
        assert entry(small_graph.item_ids, small_graph.item_increase_vector(12, 5), 10) == 2

    def test_window_covering_everything(self, small_graph):
        g = small_graph
        assert g.item_increase_vector(12, 100).tolist() == g.item_degree_vector(12).tolist()

    def test_needs_positive_window(self, small_graph):
        with pytest.raises(ValueError):
            small_graph.item_increase_vector(12, 0)

    def test_matches_linear_scan_oracle(self, rng):
        events = random_events(rng, num_events=200)
        g = build(events)
        deduped = dedup_earliest(events)
        for _ in range(50):
            t = int(rng.integers(0, 1100))
            t_past = int(rng.integers(1, 400))
            increase = g.item_increase_vector(t, t_past)
            for pos, item in enumerate(g.item_ids):
                assert increase[pos] == oracles.increase(deduped, item, t, t_past)

    def test_monotone_in_time(self, rng):
        g = build(random_events(rng))
        times = sorted(rng.integers(0, 1100, size=20))
        degrees = np.array([g.item_degree_vector(int(t)) for t in times])
        for pos in range(5):
            degs = degrees[:, pos].tolist()
            assert degs == sorted(degs)

    def test_window_additivity(self, rng):
        g = build(random_events(rng))
        for _ in range(25):
            t = int(rng.integers(100, 1100))
            w = int(rng.integers(1, 200))
            both = g.item_increase_vector(t, 2 * w)
            recent = g.item_increase_vector(t, w)
            older = g.item_increase_vector(t - w, w)
            assert both.tolist() == (recent + older).tolist()


def top(g, t, t_past, n, seen=False):
    """The top n ``(item_id, increase)`` pairs by increase in ``(t - t_past, t]``,
    ranked as ``evaluate`` ranks the truth (all items) and the past top-n
    (``seen``: the items with degree > 0 at ``t``)."""
    increase = g.item_increase_vector(t, t_past)
    candidates = np.flatnonzero(g.item_degree_vector(t) > 0) if seen else np.arange(g.num_items)
    return [(int(g.item_ids[c]), int(increase[c])) for c in g.rank_items(increase, candidates)[:n]]


class TestTopItems:
    def test_tie_broken_by_id(self):
        g = build([
            Event(u, 1, t) for u, t in zip(range(5), [1, 2, 3, 4, 5])
        ] + [
            Event(u, 2, t) for u, t in zip(range(10, 15), [1, 2, 3, 4, 5])
        ] + [
            Event(20, 3, 2), Event(21, 3, 3),
        ])
        assert [i for i, _ in top(g, 5, 5, 2)] == [1, 2]

    def test_n_larger_than_item_count(self, small_graph):
        assert len(top(small_graph, 12, 12, 50)) == small_graph.num_items

    def test_zero_increase_items_pad_only_when_needed(self, small_graph):
        # window (10, 12]: only item 10 gained a link
        assert top(small_graph, 12, 2, 3) == [(10, 1), (11, 0), (12, 0)]

    def test_require_seen_excludes_unborn_items(self, small_graph):
        assert [i for i, _ in top(small_graph, 2, 2, 10, seen=True)] == [12]

    def test_matches_sort_oracle(self, rng):
        events = random_events(rng, num_events=400)
        g = build(events)
        deduped = dedup_earliest(events)
        for _ in range(20):
            t = int(rng.integers(0, 1100))
            t_past = int(rng.integers(1, 500))
            n = int(rng.integers(1, 20))
            for seen in (False, True):
                want = oracles.top_items_by_increase(deduped, t, t_past, n, require_seen=seen)
                assert top(g, t, t_past, n, seen) == want


def test_queries_independent_of_input_order(rng):
    events = random_events(rng, num_events=300)
    g1 = build(events)
    shuffled = list(events)
    rng.shuffle(shuffled)
    g2 = build(shuffled)
    assert events_of(g1) == events_of(g2)
    assert top(g1, 800, 300, 10) == top(g2, 800, 300, 10)
