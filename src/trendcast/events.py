"""Time-indexed store of user-item collection events.

An event stream is an ``(N, 3)`` int64 array of ``(user_id, item_id,
timestamp)`` rows, as the ``trendcast.ingestion`` loaders and
``trendcast.synthgen.generate`` return it. :func:`build` turns one into a
graph, which is immutable afterwards; every query is a pure read, so a
graph can be shared freely between threads.

Time conventions used throughout the package:

* the degree of a node at time ``t`` counts events with ``timestamp <= t``;
* a window of length ``w`` ending at ``t`` covers the half-open interval
  ``(t - w, t]``;
* ``math.inf`` is accepted wherever a query time is expected and means
  "after the last event".

Timestamps are integer seconds whatever the source dataset; day- or
hour-resolution data is handled by choosing window lengths in seconds
(see the ``DAY`` / ``HOUR`` constants).
"""

from __future__ import annotations

import numpy as np

HOUR = 3_600
DAY = 86_400


class TemporalBipartiteGraph:
    """Immutable bipartite user-item event store with snapshot degree queries.

    Construct with :func:`build`. Node identities are the integer ids seen
    in the events; internally both sides are mapped to compact indices
    ``0..U-1`` / ``0..I-1`` in ascending id order, which the ``*_vector``
    queries are aligned with.
    """

    def __init__(self, user_ids, item_ids, users, items, timestamps, duplicates_collapsed=0):
        # users/items index user_ids/item_ids; the events are deduplicated and
        # sorted by (timestamp, user, item). Use build().
        self.user_ids = user_ids
        self.item_ids = item_ids
        self._users = users
        self._items = items
        self._ts = timestamps
        self.duplicates_collapsed = int(duplicates_collapsed)

    # -- basic shape ----------------------------------------------------

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    @property
    def num_links(self) -> int:
        return len(self._ts)

    @property
    def t_first(self) -> int:
        return int(self._ts[0])

    @property
    def t_last(self) -> int:
        return int(self._ts[-1])

    def __repr__(self):
        return (
            f"TemporalBipartiteGraph(users={self.num_users}, items={self.num_items}, "
            f"links={self.num_links}, span=[{self.t_first}, {self.t_last}])"
        )

    # -- vectorized queries (aligned with user_ids / item_ids order) -------

    def _time_pos(self, t) -> int:
        return int(np.searchsorted(self._ts, t, side="right"))

    def item_degree_vector(self, t) -> np.ndarray:
        """Degrees of all items at time ``t``, aligned with ``item_ids``."""
        pos = self._time_pos(t)
        return np.bincount(self._items[:pos], minlength=self.num_items)

    def user_degree_vector(self, t) -> np.ndarray:
        """Degrees of all users at time ``t``, aligned with ``user_ids``."""
        pos = self._time_pos(t)
        return np.bincount(self._users[:pos], minlength=self.num_users)

    def item_increase_vector(self, t, t_past) -> np.ndarray:
        """Per-item event counts inside ``(t - t_past, t]``, aligned with ``item_ids``."""
        return np.bincount(self.window_events(t, t_past)[1], minlength=self.num_items)

    def window_events(self, t, t_past):
        """Compact (user, item) index pairs of the events in ``(t - t_past, t]``.

        Returned arrays index into ``user_ids`` / ``item_ids``; views, do not
        mutate.
        """
        if t_past <= 0:
            raise ValueError(f"window length must be positive, got {t_past}")
        lo = self._time_pos(t - t_past)
        hi = self._time_pos(t)
        return self._users[lo:hi], self._items[lo:hi]

    # -- ranking -----------------------------------------------------------

    def rank_items(self, scores, candidates) -> np.ndarray:
        """Compact item indices ``candidates`` by decreasing score, ties by
        ascending index, which is ascending id: :func:`build` stores the ids
        sorted.

        Every top n of the package (predicted, true, past) is this ranking cut at n.
        """
        return candidates[np.lexsort((candidates, -scores[candidates]))]


def build(events) -> TemporalBipartiteGraph:
    """Build a graph from an ``(N, 3)`` integer array-like of ``(user_id,
    item_id, timestamp)`` rows.

    Rows may be unsorted and may repeat a (user, item) pair; repeats are
    collapsed keeping the earliest timestamp (the first collection act is
    the one that carries information) and counted on the graph. Raises
    ``ValueError`` on an empty stream, a wrong shape or a negative timestamp.
    """
    arr = np.asarray(events, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("empty event stream")
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("events must be (user_id, item_id, timestamp) triples")
    users, items, ts = arr.T
    t_min, t_max = int(ts.min()), int(ts.max())
    if t_min < 0:
        k = np.flatnonzero(ts < 0)[0]
        raise ValueError(
            "negative timestamp in event "
            f"(user={users[k]}, item={items[k]}, timestamp={ts[k]})"
        )

    user_ids, users = compact(users)
    item_ids, items = compact(items)
    num_items = len(item_ids)
    # One key-space rule. A pair's key is user * I + item, below P = U * I,
    # and a time rank is the offset from the first timestamp, below T =
    # span + 1, when P * T fits in int64. Otherwise the pair keys and the
    # timestamps are compacted, so P and T are at most the row count and
    # P * T fits in int64 below 3e9 rows. Either way the keys keep the
    # (user, item) and time orders, and both sorts below pack a pair and a
    # rank into one int64 value below P * T, reusing one array in place to
    # keep the peak low.
    key = users
    key *= num_items
    key += items
    del users, items
    num_pairs, num_times = len(user_ids) * num_items, t_max - t_min + 1
    if num_pairs * num_times <= np.iinfo(np.int64).max:  # Python ints
        pair_ids, time_ids, ranks = None, None, ts - t_min
    else:
        pair_ids, key = compact(key)
        time_ids, ranks = compact(ts)
        num_pairs, num_times = len(pair_ids), len(time_ids)
    del arr, ts
    # Collapse duplicate pairs keeping the earliest: a value sort of
    # pair * T + rank orders each pair's events by time, so the first is
    # the earliest.
    key *= num_times
    key += ranks
    del ranks
    key.sort()
    ranks = key % num_times
    key //= num_times
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    pairs, ranks = key[first], ranks[first]
    del key
    collapsed = int(first.size - pairs.size)
    del first

    # A value sort of rank * P + pair is the (timestamp, user, item) order.
    key = ranks
    key *= num_pairs
    key += pairs
    del pairs, ranks
    key.sort()
    pairs = key % num_pairs
    key //= num_pairs
    ts = np.add(key, t_min, out=key) if time_ids is None else time_ids[key]
    del key
    users, items = np.divmod(pairs if pair_ids is None else pair_ids[pairs], num_items)
    return TemporalBipartiteGraph(user_ids, item_ids, users, items, ts,
                                  duplicates_collapsed=collapsed)


def compact(values):
    """``np.unique(values, return_inverse=True)`` for a 1-D integer array:
    the sorted distinct values and each value's index into them, with the
    same values and dtypes.

    When the values span fewer than ``2 * values.size`` integers, as dense
    ids and timestamps do, a presence table and its running count give the
    answer without a sort; otherwise ``np.unique`` sorts.
    """
    values = np.asarray(values)
    if values.size:
        lo, hi = int(values.min()), int(values.max())
        if hi - lo < 2 * values.size:  # Python ints: the span cannot overflow
            offsets = values - lo
            present = np.zeros(hi - lo + 1, dtype=bool)
            present[offsets] = True
            index = np.cumsum(present, dtype=np.intp)
            index -= 1
            ids = (np.flatnonzero(present) + lo).astype(values.dtype, copy=False)
            return ids, index[offsets]
    return np.unique(values, return_inverse=True)
