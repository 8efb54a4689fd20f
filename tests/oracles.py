"""Brute-force reference implementations used to check the library.

Everything here works on plain event lists with linear scans and full
sorts, independent of the indexed code paths under test.
"""

from __future__ import annotations

import numpy as np


def degree_at(events, item_id, t):
    return sum(1 for u, i, ts in events if i == item_id and ts <= t)


def user_degree_at(events, user_id, t):
    return sum(1 for u, i, ts in events if u == user_id and ts <= t)


def increase(events, item_id, t, t_past):
    return sum(1 for u, i, ts in events if i == item_id and t - t_past < ts <= t)


def top_items_by_increase(events, t, t_past, n, require_seen=False):
    items = sorted({i for _, i, _ in events})
    if require_seen:
        items = [i for i in items if degree_at(events, i, t) > 0]
    scored = [(i, increase(events, i, t, t_past)) for i in items]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:n]


def precision(predicted, truth, n):
    return len(set(predicted[:n]) & set(truth[:n])) / n


def new_entries(events, t, t_past, t_future, n):
    past = {i for i, _ in top_items_by_increase(events, t, t_past, n, require_seen=True)}
    future = {i for i, _ in top_items_by_increase(events, t + t_future, t_future, n)}
    return future - past


def metrics(events, predicted, t, t_past, t_future, n):
    """(P_n, E_n, C_n) of the ``predicted`` top-n at test date ``t``."""
    truth = [i for i, _ in top_items_by_increase(events, t + t_future, t_future, n)]
    new = new_entries(events, t, t_past, t_future, n)
    return precision(predicted, truth, n), len(new), len(set(predicted[:n]) & new)


def wpp_scores(events, t, t_past, gamma):
    """Double loop over (user, item) pairs straight from the formula."""
    scores = {}
    users = {u for u, _, _ in events}
    items = {i for _, i, _ in events if degree_at(events, i, t) > 0}
    for item in items:
        total = 0.0
        for user in users:
            collected_now = any(u == user and i == item and ts <= t for u, i, ts in events)
            collected_before = any(
                u == user and i == item and ts <= t - t_past for u, i, ts in events
            )
            if collected_now and not collected_before:
                total += user_degree_at(events, user, t) ** gamma
        scores[item] = total
    return scores


def ibp_scores(events, t, t_past, eta, influence_by_user):
    scores = {}
    users = {u for u, _, _ in events}
    items = {i for _, i, _ in events if degree_at(events, i, t) > 0}
    for item in items:
        total = 0.0
        for user in users:
            collected_now = any(u == user and i == item and ts <= t for u, i, ts in events)
            collected_before = any(
                u == user and i == item and ts <= t - t_past for u, i, ts in events
            )
            if collected_now and not collected_before:
                infl = influence_by_user.get(user, 0.0)
                if infl == 0.0 and eta < 0:
                    continue
                total += infl**eta
        scores[item] = total
    return scores


def pagerank_dense_solve(n, edges, delta=0.85):
    """Fixed point of the damped follower->leader flow by direct linear solve.

    Solves (I - delta*P - delta/n * 1 d^T) s = (1-delta)/n * 1 where P is the
    column-stochastic flow matrix and d flags users with no leaders.
    """
    out = np.zeros(n)
    for src, _ in edges:
        out[src] += 1
    P = np.zeros((n, n))
    for src, dst in edges:
        P[dst, src] = 1.0 / out[src]
    dangling = (out == 0).astype(float)
    A = np.eye(n) - delta * P - (delta / n) * np.outer(np.ones(n), dangling)
    b = np.full(n, (1.0 - delta) / n)
    return np.linalg.solve(A, b)


def leaderrank_dense_power(n, edges, sweeps=200_000, tol=1e-13):
    """Power iteration on the explicitly materialized augmented matrix."""
    g = n
    aug = list(edges)
    for u in range(n):
        aug.append((u, g))
        aug.append((g, u))
    out = np.zeros(n + 1)
    for src, _ in aug:
        out[src] += 1
    M = np.zeros((n + 1, n + 1))
    for src, dst in aug:
        M[dst, src] = 1.0 / out[src]
    s = np.zeros(n + 1)
    s[:n] = 1.0
    for _ in range(sweeps):
        s_next = M @ s
        if np.abs(s_next - s).sum() < tol:
            s = s_next
            break
        s = s_next
    return s[:n] + s[g] / n
