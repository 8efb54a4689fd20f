"""Synthetic temporal bipartite networks with tunable attachment and aging.

The generator realizes the rich-get-richer regime (attachment probability
proportional to current degree plus an offset) with an optional exponential
loss of interest in old items. It provides ground-truth regimes for the
predictors: with no aging, total degree and recent increase rank items the
same way on average; with strong aging, only the recent increase tracks
where the attention actually is.

One event is drawn per integer tick, so timestamps are 1..num_events and
window lengths are measured in ticks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MAX_RESAMPLES = 10_000


@dataclass
class GenConfig:
    """Generator knobs.

    ``item_arrival_rate`` is items per tick: item ``j`` is born at tick
    ``floor(j / rate)`` (``math.inf`` puts the whole catalogue at t=0).
    ``decay_timescale`` is the e-folding age of an item's attractiveness
    (``math.inf`` disables aging). ``pa_offset`` is the additive
    attractiveness that lets zero-degree items acquire their first link.
    ``activity_exponent`` skews user choice towards already-active users
    (0 keeps it uniform).
    """

    num_users: int
    num_items: int
    num_events: int
    item_arrival_rate: float = math.inf
    decay_timescale: float = math.inf
    pa_offset: float = 1.0
    activity_exponent: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        # each message starts with the field it is about
        for name in ("pa_offset", "activity_exponent"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("num_users", "num_items", "num_events", "item_arrival_rate",
                     "decay_timescale", "pa_offset"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.num_events > self.num_users * self.num_items:
            raise ValueError(
                f"num_events: cannot draw {self.num_events} distinct user-item pairs from "
                f"a {self.num_users} x {self.num_items} grid"
            )
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")


def _birth_times(config: GenConfig) -> np.ndarray:
    if math.isinf(config.item_arrival_rate):
        return np.zeros(config.num_items, dtype=np.int64)
    return (np.arange(config.num_items) / config.item_arrival_rate).astype(np.int64)


def generate(config: GenConfig) -> np.ndarray:
    """Draw the event stream; deterministic for a fixed seed.

    Returns an ``(N, 3)`` int64 array of ``(user, item, timestamp)`` rows in
    time order, as the ``trendcast.ingestion`` loaders do. Per tick: pick a
    user (uniform, or activity-weighted), pick an item with probability
    proportional to ``(degree + pa_offset) * exp(-age / theta)`` among the
    items already born, resample the pair on a duplicate collision. Raises
    ``ValueError("num_events: tick ...")`` if a tick cannot place an event
    after many resamples (the alive catalogue is saturated).
    """
    rng = np.random.default_rng(config.rng_seed)
    birth = _birth_times(config)
    aging = not math.isinf(config.decay_timescale)

    item_deg = np.zeros(config.num_items, dtype=np.float64)
    user_deg = np.zeros(config.num_users, dtype=np.float64)
    seen: set[int] = set()
    events = np.empty((config.num_events, 3), dtype=np.int64)
    alive = 0  # items born by tick t; birth is nondecreasing

    for t in range(1, config.num_events + 1):
        while alive < config.num_items and birth[alive] <= t:
            alive += 1
        weights = item_deg[:alive] + config.pa_offset
        if aging:
            weights = weights * np.exp((birth[:alive] - t) / config.decay_timescale)
        item_cum = weights.cumsum()
        if item_cum[-1] <= 0.0:  # all alive weights aged below float range
            item_cum = np.arange(1.0, alive + 1)

        user_cum = None
        if config.activity_exponent != 0.0:
            user_cum = ((user_deg + 1.0) ** config.activity_exponent).cumsum()

        for attempt in range(_MAX_RESAMPLES):
            item = int(item_cum.searchsorted(rng.random() * item_cum[-1], side="right"))
            if user_cum is None:
                user = int(rng.integers(config.num_users))
            else:
                user = int(user_cum.searchsorted(rng.random() * user_cum[-1], side="right"))
            key = user * config.num_items + item
            if key not in seen:
                break
        else:
            raise ValueError(
                f"num_events: tick {t}: could not place an event after {_MAX_RESAMPLES} "
                "resamples; the alive item catalogue is saturated"
            )
        seen.add(key)
        item_deg[item] += 1.0
        user_deg[user] += 1.0
        events[t - 1] = user, item, t
    return events


def generate_social(num_users: int, num_edges: int, attach_exponent: float = 0.0, seed: int = 0) -> np.ndarray:
    """Directed follower->leader edges with in-degree preferential attachment.

    Returns an ``(E, 2)`` int64 array of ``(follower, leader)`` rows in draw
    order. The follower is uniform; the leader is drawn with probability
    proportional to ``(followers + 1) ** attach_exponent`` (0 gives a
    uniform random directed graph). No self-loops or duplicate edges;
    deterministic for a fixed seed. Each ``ValueError`` starts with its
    parameter: ``num_edges: edge ...`` when the leader draw saturates.
    """
    if not num_users > 0:
        raise ValueError(f"num_users must be positive, got {num_users}")
    if not 0 <= num_edges <= num_users * (num_users - 1):
        raise ValueError(
            f"num_edges: cannot place {num_edges} distinct directed edges on {num_users} users"
        )
    if not math.isfinite(attach_exponent):
        raise ValueError(f"attach_exponent must be finite, got {attach_exponent}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    in_deg = np.zeros(num_users, dtype=np.float64)
    seen: set[int] = set()
    edges = np.empty((num_edges, 2), dtype=np.int64)
    uniform = attach_exponent == 0.0
    for k in range(num_edges):
        if not uniform:  # in_deg does not change while a pair is resampled
            cum = ((in_deg + 1.0) ** attach_exponent).cumsum()
        for attempt in range(_MAX_RESAMPLES):
            src = int(rng.integers(num_users))
            if uniform:
                dst = int(rng.integers(num_users))
            else:
                dst = int(cum.searchsorted(rng.random() * cum[-1], side="right"))
            key = src * num_users + dst
            if src != dst and key not in seen:
                break
        else:
            raise ValueError(f"num_edges: edge {k + 1} could not be placed after "
                             f"{_MAX_RESAMPLES} resamples; the leader draw is saturated")
        seen.add(key)
        in_deg[dst] += 1.0
        edges[k] = src, dst
    return edges
