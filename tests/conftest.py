import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from trendcast.events import build
from trendcast.ingestion import RATINGS_HEADER, write_csv
from trendcast.predictors import weight_tables


class Event(NamedTuple):
    """One collection act: ``user_id`` picked up ``item_id`` at ``timestamp``.

    A list of these is an ``(N, 3)`` array-like, so ``build`` takes it."""

    user_id: int
    item_id: int
    timestamp: int


def events_of(graph):
    """The graph's events as ``Event`` tuples in (timestamp, user, item) order."""
    users = graph.user_ids[graph._users].tolist()
    items = graph.item_ids[graph._items].tolist()
    return [Event(*e) for e in zip(users, items, graph._ts.tolist())]


def write_ratings_csv(records, path):
    """Write ``(user, item, rating, timestamp)`` rows as a ratings CSV."""
    write_csv(path, RATINGS_HEADER, records)


def entry(ids, vector, key):
    """The entry for id ``key`` of ``vector``, which is aligned with the sorted ``ids``."""
    pos = int(np.searchsorted(ids, key))
    assert pos < len(ids) and ids[pos] == key, f"unknown id {key}"
    return int(vector[pos])


def tables(graph, vectors, specs):
    """The weight tables of ``specs``, with each ``InfluenceVector`` of
    ``vectors`` aligned with the graph's users, as the set-up aligns them."""
    return weight_tables(graph, {v.measure: v.lookup(graph.user_ids) for v in vectors}, specs)


def random_events(rng, num_users=40, num_items=15, num_events=300, t_max=1000):
    """Random event list (may contain duplicate pairs; build() collapses them)."""
    users = rng.integers(0, num_users, size=num_events)
    items = rng.integers(0, num_items, size=num_events)
    ts = rng.integers(0, t_max + 1, size=num_events)
    return [Event(int(u), int(i), int(t)) for u, i, t in zip(users, items, ts)]


def dedup_earliest(events):
    """What build() is supposed to do, done the slow way."""
    best = {}
    for u, i, t in events:
        key = (u, i)
        if key not in best or t < best[key]:
            best[key] = t
    return sorted(Event(u, i, t) for (u, i), t in best.items())


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def small_graph():
    # item 10: events at 3, 8, 12; item 11 at 8; item 12 at 1, 2, 9
    events = [
        Event(1, 10, 3), Event(2, 10, 8), Event(3, 10, 12),
        Event(1, 11, 8),
        Event(2, 12, 1), Event(3, 12, 2), Event(4, 12, 9),
    ]
    return build(events)
