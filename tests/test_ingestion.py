import logging
import warnings

import numpy as np
import pytest

from conftest import Event, events_of, write_ratings_csv
from trendcast import social
from trendcast.events import build
from trendcast.ingestion import (
    DatasetSpec,
    load_dataset,
    load_ratings,
    load_votes,
    write_votes_csv,
)
from trendcast.social import load_social_graph, write_edge_list


def ratings_file(tmp_path, rows, name="ratings.csv"):
    path = tmp_path / name
    path.write_text("user,item,rating,timestamp\n" + "".join(f"{r}\n" for r in rows))
    return path


def votes_file(tmp_path, rows, name="votes.csv"):
    path = tmp_path / name
    path.write_text("user,item,timestamp\n" + "".join(f"{r}\n" for r in rows))
    return path


class TestDatasetSpec:
    def test_threshold_range(self):
        with pytest.raises(ValueError):
            DatasetSpec(threshold=5.5)
        with pytest.raises(ValueError):
            DatasetSpec(threshold=0.0)

    def test_subsetting_rejected_for_votes(self):
        with pytest.raises(ValueError):
            DatasetSpec(format="votes", subset_users=10)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            DatasetSpec(format="parquet")

    def test_negative_seed_rejected_without_subsetting(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            DatasetSpec(format="votes", rng_seed=-1)

    def test_negative_min_user_degree_rejected(self):
        with pytest.raises(ValueError, match="min_user_degree must be >= 0, got -3"):
            DatasetSpec(min_user_degree=-3)


class TestLoadRatings:
    def test_threshold_boundary_kept(self, tmp_path):
        path = ratings_file(tmp_path, ["1,10,3.0,100", "2,10,2.5,200"])
        events = load_ratings(path)
        assert events.dtype == np.int64
        assert events.tolist() == [[1, 10, 100]]

    @pytest.mark.parametrize("threshold", [3.0, 3.25])
    def test_kept_line_prints_the_threshold(self, tmp_path, caplog, threshold):
        path = ratings_file(tmp_path, ["1,10,3.5,100", "2,10,3.0,200"])
        with caplog.at_level(logging.INFO, logger="trendcast.ingestion"):
            load_ratings(path, DatasetSpec(threshold=threshold))
        dropped = int(threshold > 3.0)
        assert caplog.messages == [
            f"{path}: {2 - dropped} events kept, {dropped} below threshold {threshold}"]

    def test_drop_count(self, tmp_path):
        rows = [f"{u},1,{r},{10 * u}" for u, r in enumerate([1, 2, 2.5, 2, 3, 3.5, 4, 5, 4.5, 3])]
        events = load_ratings(ratings_file(tmp_path, rows))
        assert len(events) == 6

    def test_malformed_row_reports_line(self, tmp_path):
        path = ratings_file(tmp_path, ["1,10,3.0,100", "1,10,oops,100"])
        with pytest.raises(ValueError, match=":3"):
            load_ratings(path)

    def test_rating_off_scale(self, tmp_path):
        path = ratings_file(tmp_path, ["1,10,6.0,100"])
        with pytest.raises(ValueError, match="outside"):
            load_ratings(path)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_ratings(path)

    def test_empty_file_downstream_error(self, tmp_path):
        path = ratings_file(tmp_path, [])
        with pytest.raises(ValueError, match="empty event stream"):
            build(load_ratings(path))


class TestLoadVotes:
    def test_every_row_is_an_event(self, tmp_path):
        path = votes_file(tmp_path, ["1,10,100", "2,10,200", "3,11,300"])
        assert len(load_votes(path)) == 3

    def test_duplicate_votes_collapse_at_build(self, tmp_path):
        path = votes_file(tmp_path, ["1,10,100", "1,10,50"])
        g = build(load_votes(path))
        assert g.num_links == 1 and events_of(g)[0].timestamp == 50

    def test_malformed_row(self, tmp_path):
        path = votes_file(tmp_path, ["1,10"])
        with pytest.raises(ValueError, match=":2"):
            load_votes(path)

    def test_header_field_over_csv_limit(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text(f"user,{'x' * 131_073}\n1,10,100\n")
        with pytest.raises(ValueError, match=r"votes.csv:1: malformed header \(field larger"):
            load_votes(path)


BIG = "99999999999999999999"  # outside int64

# (file body after the header, the rows loaded or a regex of the error)
VOTES_CASES = [
    ("1,10,100\n2,11,200\n", [[1, 10, 100], [2, 11, 200]]),
    ("1,10,100\n2,11,200", [[1, 10, 100], [2, 11, 200]]),
    ("1,10,100\r\n2,11,200\r\n", [[1, 10, 100], [2, 11, 200]]),
    ('"1","10","100"\n', [[1, 10, 100]]),
    (" 1, 10 ,100\n", [[1, 10, 100]]),
    ("", []),
    ("1,10,100\n\n2,11,200\n", r":3: malformed row \[\]"),
    ("1,10,100\n\n", r":3: malformed row \[\]"),
    ("1,10,100\n1,10\n", r":3: malformed row"),
    ("1,x,100\n", r":2: malformed row"),
    ("1,10,3.0\n", r":2: malformed row"),
    ("1,1_0,100\n", r":2: malformed row"),
    ("1,\u0661,100\n", r":2: malformed row"),
    ("1,10,100,7\n", r":2: malformed row"),
    ("1,10,100,\n", r":2: malformed row"),
    ("1,10,100\n1,10,100,7\n", r":3: malformed row"),
    (f"1,{BIG},100\n", r":2: integer outside int64"),
    pytest.param(f"1,10,100\n2,{'1' * 131_073},200\n",
                 r":3: malformed row \(field larger than field limit", id="field-over-csv-limit"),
    ("1,10,100\r2,11,200\r", [[1, 10, 100], [2, 11, 200]]),
    ('"1\n",10,100\n2,11,200\n', r":2: malformed row \(line break inside a quoted field\)"),
    ('1,10,100\n2,"11\n\n",200\n', r":3: malformed row \(line break inside a quoted field\)"),
    ("1,10,100\n2,11,-20\n", r":3: negative timestamp -20$"),
    # the first bad row is named, also when a later one does not parse
    ("1,10,-5\n1,x,100\n", r":2: negative timestamp -5$"),
]

RATINGS_CASES = [
    ("1,10,3.5,100\n2,11,2.5,200\n", [[1, 10, 100]]),
    ("1,10,3.5,100\r\n2,11,4,200\r\n", [[1, 10, 100], [2, 11, 200]]),
    ('"1","10","4.0","100"\n', [[1, 10, 100]]),
    ("1,10,3.5,100\n\n2,11,4.0,200\n", r":3: malformed row \[\]"),
    ("1,10,3.5\n", r":2: malformed row"),
    ("1,10,3.5,100,9\n", r":2: malformed row"),
    ("x,10,3.5,100\n", r":2: malformed row"),
    ("1,10,3.5,3.0\n", r":2: malformed row"),
    ("1,10,nan,100\n", r":2: rating nan outside"),
    ("1,10,3.5,100\n1,10,inf,100\n", r":3: rating inf outside"),
    ("1,10,6.0,100\n1,10,oops,100\n", r":2: rating 6.0 outside"),
    (f"1,10,3.5,{BIG}\n", r":2: integer outside int64"),
    ("1,10,2.5,100\n2,11,1.0,200\n", r": no rating reaches the threshold 3.0"),
    ("1,10,3.5,100\r2,11,4,200\r", [[1, 10, 100], [2, 11, 200]]),
    ('1,10,"3.5\n",100\n2,11,4.0,200\n', r":2: malformed row \(line break inside a quoted field\)"),
    # a row below the threshold is checked too
    ("1,10,3.5,100\n2,11,2.5,-20\n", r":3: negative timestamp -20$"),
]


class TestRowRules:
    @pytest.mark.parametrize("body, expected", VOTES_CASES)
    def test_votes(self, tmp_path, body, expected):
        self.check(tmp_path, "user,item,timestamp", body, expected, load_votes)

    @pytest.mark.parametrize("body, expected", RATINGS_CASES)
    def test_ratings(self, tmp_path, body, expected):
        self.check(tmp_path, "user,item,rating,timestamp", body, expected, load_ratings)

    @staticmethod
    def check(tmp_path, header, body, expected, load):
        path = tmp_path / "data.csv"
        newline = "\r\n" if "\r\n" in body else "\r" if "\r" in body else "\n"
        path.write_bytes((header + newline + body).encode())
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"data.csv{expected}"):
                load(path)
        else:
            events = load(path)
            assert events.dtype == np.int64 and events.shape == (len(expected), 3)
            assert events.tolist() == expected


@pytest.mark.parametrize("load, head", [
    (load_votes, "user,item,timestamp\n1,10,100\n"),
    (load_ratings, "user,item,rating,timestamp\n1,10,4.0,100\n"),
], ids=["votes", "ratings"])
def test_dataset_not_utf8_names_the_line(tmp_path, load, head):
    path = tmp_path / "data.csv"
    path.write_bytes(head.encode() + b"2,1\xff1,200\n")
    with pytest.raises(ValueError, match=r"data.csv:3: not valid UTF-8$"):
        load(path)
    path.write_bytes(b"user,\xffitem\n")
    with pytest.raises(ValueError, match=r"data.csv:1: not valid UTF-8$"):
        load(path)


@pytest.mark.parametrize("rows", [0, 1, 500])
def test_loaders_return_contiguous_int64_rows(tmp_path, monkeypatch, rows):
    events = np.random.default_rng(rows).integers(0, 2**62, size=(rows, 3))
    write_votes_csv(events, tmp_path / "votes.csv")
    loaded = load_votes(tmp_path / "votes.csv")
    write_edge_list(events[:, :2], tmp_path / "edges.txt")
    graph, edges = social.SocialGraph, []
    monkeypatch.setattr(social, "SocialGraph", lambda arr: edges.append(arr) or graph(arr))
    load_social_graph(tmp_path / "edges.txt")
    for got, want in ((loaded, events), (edges[0], events[:, :2])):
        assert got.dtype == np.int64 and got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got, want)


class TestSubsetUsers:
    """User sampling, whose one path is ``load_ratings`` with ``subset_users`` set."""

    def rows(self, users=range(30), per_user=25):
        return [f"{u},{1000 + k},4.0,{u * 1000 + k}" for u in users for k in range(per_user)]

    def load(self, path, count, min_degree=20, seed=0):
        spec = DatasetSpec(subset_users=count, min_user_degree=min_degree, rng_seed=seed)
        return load_ratings(path, spec)

    def test_all_eligible_users_when_count_matches(self, tmp_path):
        rows = self.rows(users=range(5))
        kept = self.load(ratings_file(tmp_path, rows), 5, seed=1)
        assert sorted(set(kept[:, 0].tolist())) == list(range(5))
        assert len(kept) == len(rows)

    def test_zero_users_rejected(self):
        with pytest.raises(ValueError, match="subset_users must be >= 1, got 0"):
            DatasetSpec(subset_users=0)

    def test_too_few_eligible_reports_count(self, tmp_path):
        path = ratings_file(tmp_path, self.rows(users=range(3)))
        with pytest.raises(ValueError, match="only 3"):
            self.load(path, 10)

    def test_min_degree_filters(self, tmp_path):
        path = ratings_file(tmp_path, self.rows(users=range(4)) + ["99,1,4.0,1"])
        kept = self.load(path, 4, seed=0)
        assert 99 not in set(kept[:, 0].tolist())

    def test_deterministic_for_seed(self, tmp_path):
        path = ratings_file(tmp_path, self.rows())
        a = self.load(path, 10, seed=42)
        assert a.tolist() == self.load(path, 10, seed=42).tolist()
        c = self.load(path, 10, seed=43)
        assert set(a[:, 0].tolist()) != set(c[:, 0].tolist())

    def test_selection_independent_of_event_order(self, tmp_path, rng):
        rows = self.rows()
        shuffled = [rows[k] for k in rng.permutation(len(rows))]
        a = set(self.load(ratings_file(tmp_path, rows), 10, seed=7)[:, 0].tolist())
        b = self.load(ratings_file(tmp_path, shuffled, name="shuffled.csv"), 10, seed=7)
        assert a == set(b[:, 0].tolist())


class TestLoadWithSubsetting:
    def write(self, tmp_path, eligible=6, ineligible=3):
        rows = []
        for u in range(eligible):
            rows += [f"{u},{100 + k},4.0,{u * 50 + k}" for k in range(20)]
        for u in range(100, 100 + ineligible):
            # 20 ratings but only 5 clear the threshold
            rows += [f"{u},{100 + k},{4.0 if k < 5 else 2.0},{u * 50 + k}" for k in range(20)]
        return ratings_file(tmp_path, rows)

    def test_post_threshold_eligibility(self, tmp_path):
        path = self.write(tmp_path)
        spec = DatasetSpec(subset_users=6, min_user_degree=20, rng_seed=3)
        events = load_ratings(path, spec)
        assert set(events[:, 0].tolist()) == set(range(6))

    def test_pre_threshold_eligibility_widens_pool(self, tmp_path):
        path = self.write(tmp_path)
        spec = DatasetSpec(
            subset_users=9, min_user_degree=20, rng_seed=3, eligibility_pre_threshold=True
        )
        events = load_ratings(path, spec)
        users, counts = np.unique(events[:, 0], return_counts=True)
        assert len(users) == 9
        # the below-threshold rows themselves still never become events
        assert (events[:, 1] >= 100).all()
        assert set(counts[users >= 100].tolist()) == {5}

    def test_sample_without_ratings_at_the_threshold_names_the_file(self, tmp_path):
        rows = [f"{u},{100 + k},2.0,{k}" for u in range(3) for k in range(20)]
        spec = DatasetSpec(subset_users=2, min_user_degree=20, eligibility_pre_threshold=True)
        with pytest.raises(ValueError, match="ratings.csv: no rating of the sampled users "
                                             "reaches the threshold 3.0"):
            load_ratings(ratings_file(tmp_path, rows), spec)

    def test_load_dataset_dispatch(self, tmp_path):
        votes = votes_file(tmp_path, ["1,2,3"])
        assert load_dataset(votes, DatasetSpec(format="votes")).tolist() == [[1, 2, 3]]

    @pytest.mark.parametrize("format", ["votes", "ratings"])
    def test_load_dataset_names_a_header_only_file(self, tmp_path, format):
        path = (votes_file if format == "votes" else ratings_file)(tmp_path, [])
        with pytest.raises(ValueError, match=f"{format}.csv: no data rows"):
            load_dataset(path, DatasetSpec(format=format))


class TestWriters:
    def test_votes_round_trip(self, tmp_path):
        events = [Event(1, 2, 3), Event(4, 5, 6)]
        path = tmp_path / "out.csv"
        write_votes_csv(events, path)
        assert load_votes(path).tolist() == [list(e) for e in events]

    def test_ratings_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        write_ratings_csv([(1, 2, 4.5, 3)], path)
        assert load_ratings(path).tolist() == [[1, 2, 3]]


def test_empty_tables_leave_the_warning_filters_alone(tmp_path):
    # np.loadtxt warns on an empty input; read_table's filter against that
    # must neither leak nor lapse
    edges, votes = tmp_path / "edges.txt", votes_file(tmp_path, [])
    edges.write_text("# only a comment\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        filters = list(warnings.filters)
        assert load_social_graph(edges).num_links == 0
        assert load_votes(votes).shape == (0, 3)
        assert ([str(w.message) for w in caught], warnings.filters) == ([], filters)
