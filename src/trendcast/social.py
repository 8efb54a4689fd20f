"""Static directed follower->leader network and user influence measures.

An edge ``(i, j)`` records that user ``i`` follows user ``j``: ``j`` is one
of ``i``'s leaders, ``i`` is one of ``j``'s followers. In-degree counts
followers, out-degree counts leaders.

Score-flow direction (documented deliberately, it is easy to get backwards):
both iterative measures push score *along* the stored edges, i.e. from a
follower to the users it follows, each follower splitting its score in equal
shares among its leaders. Influence therefore accrues to followed users, and
a "dangling" user is one who follows nobody (zero out-degree), not one
without followers.

:class:`SocialGraph` stores its deduplicated edges sorted by (follower,
leader), so a sweep gathers the followers' scores in memory order. One
``np.bincount`` over the edges then adds each leader's incoming shares in
that order, ascending by follower, and the centralities need no
sparse-matrix library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .events import compact
from .ingestion import parse_field, read_table, text_lines


class SocialGraph:
    """Directed user-user graph, immutable after construction.

    Self-loops are dropped and duplicate edges collapsed (both counted).
    The vertex set is defined by the ids appearing in the edges plus any
    ids passed via ``users`` (so isolated users can exist).

    The edges are kept as compact ``_src`` (follower) and ``_dst`` (leader)
    arrays sorted by (follower, leader). The power iterations add up each
    leader's incoming score in edge order, which is ascending by follower,
    and a floating-point sum depends on its order: another order would
    change the centralities in their last bits.
    """

    def __init__(self, edges: np.ndarray | list[tuple], users: Iterable[int] | None = None):
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (follower, leader) pairs")

        follower, leader = arr[:, 0], arr[:, 1]
        keep = follower != leader
        follower, leader = follower[keep], leader[keep]
        self.self_loops_dropped = int(keep.size - follower.size)

        ids = [follower, leader]
        if users is not None:
            ids.append(np.asarray(list(users), dtype=np.int64))
        self.user_ids, index = compact(np.concatenate(ids))

        # Collapse duplicates on compact pair keys, which stay below n**2 and
        # sort in (follower, leader) order.
        n = len(self.user_ids)
        m = follower.size
        pairs = index[:m] * n
        pairs += index[m: 2 * m]
        del index
        pairs.sort()  # not np.unique, which hashes in numpy 2.4: 0.8 s against 12 ms on 1e6 keys
        first = np.ones(pairs.size, dtype=bool)
        first[1:] = pairs[1:] != pairs[:-1]
        pairs = pairs[first]
        self.duplicates_dropped = int(m - pairs.size)
        self._src, self._dst = np.divmod(pairs, n)
        self.out_degrees = np.bincount(self._src, minlength=n)
        self.in_degrees = np.bincount(self._dst, minlength=n)

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_links(self) -> int:
        return len(self._src)

    def __repr__(self):
        return f"SocialGraph(users={self.num_users}, links={self.num_links})"


def load_social_graph(path) -> SocialGraph:
    """Load an edge list: one ``follower leader`` pair of integer ids per line.

    Blank lines are ignored, and so is everything from a ``#`` to the end of
    its line, whether the comment fills the line or follows an edge
    (``1 2  # note``). Raises ``ValueError`` (with the line number) on
    anything else that does not parse as two int64 ids. The graph counts
    what the load dropped, as ``self_loops_dropped`` and ``duplicates_dropped``.
    """
    table = read_table(path, _rescan_edges, dtype=[("follower", np.int64), ("leader", np.int64)],
                       comments="#", ndmin=1)
    return SocialGraph(table.view(np.int64).reshape(-1, 2))


def _rescan_edges(path) -> None:
    """Raise the ``file:line`` error for the first edge line that does not parse."""
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'follower leader', got {line!r}")
        try:
            for part in parts:
                parse_field(part)
        except OverflowError:
            raise ValueError(f"{path}:{lineno}: id outside int64 in {line!r}") from None
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer id in {line!r}") from None


def write_edge_list(edges: np.ndarray | list[tuple], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for a, b in np.asarray(edges).tolist():
            fh.write(f"{a} {b}\n")


@dataclass
class InfluenceVector:
    """Per-user influence scores, aligned with ``user_ids`` (ascending).

    ``residual`` is the last sweep's L1 change divided by the total score."""

    measure: str
    user_ids: np.ndarray
    values: np.ndarray
    iterations_used: int = 0
    residual: float = 0.0
    converged: bool = True

    def lookup(self, user_ids) -> np.ndarray:
        """Scores of ``user_ids``, aligned with them; unknown users map to 0."""
        ids = np.asarray(user_ids)
        pos = np.searchsorted(self.user_ids, ids).clip(max=max(len(self.user_ids) - 1, 0))
        out = np.zeros(ids.shape, dtype=np.float64)
        if len(self.user_ids):
            hit = self.user_ids[pos] == ids
            out[hit] = self.values[pos[hit]]
        return out


def _in_degree(graph: SocialGraph, **_) -> InfluenceVector:
    """Influence = number of followers; exact, so a stop rule is ignored."""
    return InfluenceVector("in_degree", graph.user_ids, graph.in_degrees.copy())


def _spread(graph: SocialGraph, moved: np.ndarray) -> np.ndarray:
    """What each user receives when every follower ``i`` sends ``moved[i]``
    to each of its leaders. With ``moved = s * share`` this is ``M @ s`` for
    ``M[j, i] = share[i]`` on every edge ``i -> j``, each leader's shares
    added in ascending follower order."""
    return np.bincount(graph._dst, weights=moved.take(graph._src), minlength=graph.num_users)


def _power_iterate(step, s: np.ndarray, mass: float, tol: float, max_iter: int):
    """Apply ``s = step(s)`` until the L1 change of a sweep divided by ``mass``,
    the total score ``step`` conserves, drops below ``tol``; so ``tol`` means
    the same at any number of users, or for ``max_iter`` sweeps. Returns
    ``(s, iterations, residual, converged)``."""
    iterations, residual = 0, np.inf
    for iterations in range(1, max_iter + 1):
        s_next = step(s)
        residual = float(np.abs(s_next - s).sum()) / mass
        s = s_next
        if residual < tol:
            break
    return s, iterations, residual, residual < tol


def _pagerank(
    graph: SocialGraph, delta: float = 0.85, tol: float = 1e-10, max_iter: int = 1000
) -> InfluenceVector:
    """PageRank-style influence over the follower->leader flow.

    Fixed point of ``s_j = (1 - delta)/N + delta * sum_{i follows j} s_i / out(i)``
    with the score mass of dangling users (out-degree 0) redistributed
    uniformly every iteration, so the scores sum to 1 throughout. Starts
    uniform; stops when the L1 change of a sweep divided by the score mass
    (1 here) drops below ``tol``, or after ``max_iter`` sweeps (then the
    result carries ``converged=False``). ``residual`` is that relative change.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"damping must lie in (0, 1), got {delta}")
    n = graph.num_users
    if n == 0:
        return InfluenceVector("pagerank", graph.user_ids, np.empty(0))

    out = graph.out_degrees
    share = np.divide(1.0, out, out=np.zeros(n), where=out > 0)
    dangling = np.flatnonzero(out == 0)

    def step(s):
        loose = s[dangling].sum() / n if dangling.size else 0.0
        return (1.0 - delta) / n + delta * (_spread(graph, s * share) + loose)

    s, *stats = _power_iterate(step, np.full(n, 1.0 / n), 1.0, tol, max_iter)
    return InfluenceVector("pagerank", graph.user_ids, s, *stats)


def _leaderrank(graph: SocialGraph, tol: float = 1e-10, max_iter: int = 1000) -> InfluenceVector:
    """LeaderRank influence: damping-free score flow with a ground node.

    The graph is augmented with a ground node linked bidirectionally to all
    N users, which removes dangling users and the need for a damping
    parameter. Users start with score 1, the ground node with 0, and every
    node passes its full score in equal shares along its out-edges. Stops
    when the L1 change of a sweep divided by the score mass N drops below
    ``tol``, or after ``max_iter`` sweeps (then ``converged=False``); that is
    PageRank's rule, so ``residual`` reads in the same units. The ground
    node's score is then redistributed equally to all users, so the user
    scores sum to N.
    """
    n = graph.num_users
    if n == 0:
        raise ValueError("leaderrank needs at least one user")

    # Each user also links to the ground node (index n), which comes after
    # every follower in a user's row; the ground row sums the users in order.
    g = n
    share = 1.0 / (graph.out_degrees + 1)
    from_ground = 1.0 / n

    def step(s):
        moved = s[:g] * share
        s_next = np.empty(n + 1)
        s_next[:g] = _spread(graph, moved) + from_ground * s[g]
        s_next[g] = np.cumsum(moved)[-1]  # sequential, as a sparse row sum; np.sum is pairwise
        return s_next

    s = np.concatenate([np.ones(n), [0.0]])
    s, *stats = _power_iterate(step, s, n, tol, max_iter)
    return InfluenceVector("leaderrank", graph.user_ids, s[:n] + s[g] / n, *stats)


# measure name -> the function computing it on a SocialGraph
MEASURES = {"in_degree": _in_degree, "pagerank": _pagerank, "leaderrank": _leaderrank}


def compute_influence(graph: SocialGraph, measure: str, **kwargs) -> InfluenceVector:
    """The influence of every user of ``graph`` under ``measure``, one of
    ``MEASURES``. The keyword arguments set the stop rule of the iterative
    measures, ``tol`` and ``max_iter`` (defaults 1e-10 and 1000), and
    PageRank's damping ``delta`` (default 0.85); in-degree is exact and
    ignores them. Nothing is logged: the vector carries its sweeps,
    ``residual`` and ``converged``."""
    if measure not in MEASURES:
        raise ValueError(f"unknown influence measure {measure!r} (choose from {tuple(MEASURES)})")
    return MEASURES[measure](graph, **kwargs)
