import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from trendcast.social import (
    SocialGraph,
    compute_influence,
    load_social_graph,
    _spread,
)


def relabel(edges, mapping):
    return [(mapping[a], mapping[b]) for a, b in edges]


class TestSocialGraph:
    def test_drops_self_loops_and_duplicates(self):
        g = SocialGraph([(1, 2), (1, 2), (1, 2), (3, 3), (2, 1)])
        assert g.num_links == 2
        assert g.duplicates_dropped == 2
        assert g.self_loops_dropped == 1
        assert g.user_ids.tolist() == [1, 2]  # user 3 appears only in a self-loop

    def test_degree_sums_match(self):
        g = SocialGraph([(1, 2), (2, 3), (3, 1), (1, 3)])
        assert g.in_degrees.sum() == g.out_degrees.sum() == g.num_links

    def test_explicit_users_allow_isolates(self):
        g = SocialGraph([(1, 2)], users=[1, 2, 3])
        assert g.num_users == 3

    @pytest.mark.parametrize("edges", [[(1, 2, 3)], [1, 2], [[[1, 2]]]],
                             ids=["triples", "flat", "nested"])
    def test_rejects_edges_that_are_not_pairs(self, edges):
        with pytest.raises(ValueError, match=r"edges must be \(follower, leader\) pairs"):
            SocialGraph(edges)

    def test_repr(self):
        assert repr(SocialGraph([(1, 2), (2, 3), (1, 2)])) == "SocialGraph(users=3, links=2)"


class TestLoadEdgeList:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# follower leader\n1 2\n2 1\n")
        g = load_social_graph(path)
        assert g.num_links == 2
        assert g.in_degrees.tolist() == [1, 1]
        assert g.out_degrees.tolist() == [1, 1]

    def test_repeated_edge_collapses(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 2\n1 2\n1 2\n")
        g = load_social_graph(path)
        assert g.num_links == 1
        assert g.duplicates_dropped == 2

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 2\n1 2 3\n")
        with pytest.raises(ValueError, match="edges.txt:2"):
            load_social_graph(path)
        path.write_text("1 2\n\nfoo bar\n")
        with pytest.raises(ValueError, match="edges.txt:3"):
            load_social_graph(path)

    def test_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"1 2\r3 4\r5 \xff6\r")
        with pytest.raises(ValueError, match=r"edges.txt:3: not valid UTF-8$"):
            load_social_graph(path)

    @pytest.mark.parametrize("text, expected", [
        ("1 2\n3 4\n", [[1, 2], [3, 4]]),
        ("1 2\r\n3\t4", [[1, 2], [3, 4]]),
        ("# follower leader\n  # indented\n\n1 2\n   \n3 4\n", [[1, 2], [3, 4]]),
        ("1 2  # trailing comment\n3 4#\n", [[1, 2], [3, 4]]),
        ("", []),
        ("# only a comment\n", []),
        ("1 2 3\n", r":1: expected 'follower leader'"),
        ("1\n", r":1: expected 'follower leader'"),
        ("# c\n1,2\n", r":2: expected 'follower leader'"),
        ("1 2\n1 x\n", r":2: non-integer id"),
        ("1 2.0\n", r":1: non-integer id"),
        ("1 99999999999999999999\n", r":1: id outside int64"),
    ])
    def test_line_rules(self, tmp_path, text, expected):
        path = tmp_path / "edges.txt"
        path.write_bytes(text.encode())
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"edges.txt{expected}"):
                load_social_graph(path)
        else:
            g = load_social_graph(path)
            assert [[int(g.user_ids[a]), int(g.user_ids[b])]
                    for a, b in zip(g._src, g._dst)] == expected


class TestInDegree:
    def test_star(self):
        g = SocialGraph([(u, 0) for u in range(1, 6)])
        infl = compute_influence(g, "in_degree")
        assert infl.lookup([0]).tolist() == [5]
        assert all(v == 0 for v in infl.lookup(range(1, 6)))

    def test_empty_edges(self):
        g = SocialGraph([], users=[1, 2, 3])
        assert compute_influence(g, "in_degree").values.tolist() == [0, 0, 0]

    def test_cycle(self):
        g = SocialGraph([(0, 1), (1, 2), (2, 0)])
        assert compute_influence(g, "in_degree").values.tolist() == [1, 1, 1]


class TestPageRank:
    def test_cycle_is_uniform(self):
        g = SocialGraph([(0, 1), (1, 2), (2, 0)])
        infl = compute_influence(g, "pagerank")
        assert np.allclose(infl.values, 1 / 3, atol=1e-9)

    def test_isolated_users_pure_teleport(self):
        g = SocialGraph([], users=[7, 9])
        infl = compute_influence(g, "pagerank")
        assert np.allclose(infl.values, 0.5, atol=1e-12)

    def test_matches_dense_solve_on_fixture(self):
        # node 4 is dangling, node 3 has no followers
        edges = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 2), (1, 4)]
        g = SocialGraph(edges, users=range(5))
        infl = compute_influence(g, "pagerank")
        want = oracles.pagerank_dense_solve(5, edges)
        assert np.abs(infl.values - want).max() < 1e-8

    def test_sums_to_one(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(0, n * (n - 1) // 2 + 1))
            edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2)) if a != b}
            g = SocialGraph(list(edges), users=range(n))
            infl = compute_influence(g, "pagerank")
            assert abs(infl.values.sum() - 1.0) < 1e-8

    def test_no_users_gives_an_empty_vector(self):
        # unlike leaderrank (TestLeaderRank.test_no_users_rejected), which raises
        infl = compute_influence(SocialGraph([(1, 1), (2, 2)]), "pagerank")
        assert infl.values.shape == infl.user_ids.shape == (0,)
        assert infl.converged and infl.iterations_used == 0

    def test_rejects_bad_damping(self):
        g = SocialGraph([(0, 1)])
        with pytest.raises(ValueError):
            compute_influence(g, "pagerank", delta=1.0)

    def test_nonconvergence_flagged(self):
        g = SocialGraph([(0, 1), (1, 0), (2, 0)])
        infl = compute_influence(g, "pagerank", max_iter=2)
        assert not infl.converged
        assert infl.residual > 0


class TestLeaderRank:
    def test_symmetric_complete_graph_uniform(self):
        edges = [(a, b) for a in range(3) for b in range(3) if a != b]
        infl = compute_influence(SocialGraph(edges), "leaderrank")
        assert np.allclose(infl.values, 1.0, atol=1e-8)
        assert abs(infl.values.sum() - 3.0) < 1e-6 * 3

    def test_single_user_holds_everything(self):
        infl = compute_influence(SocialGraph([], users=[42]), "leaderrank")
        assert infl.values.shape == (1,)
        assert abs(infl.values[0] - 1.0) < 1e-9

    def test_no_users_rejected(self):
        # the CLI set-up rejects an edge-free file first, as "no edges"
        with pytest.raises(ValueError, match="leaderrank needs at least one user"):
            compute_influence(SocialGraph([(1, 1), (2, 2)]), "leaderrank")

    def test_matches_dense_power_iteration_oracle(self):
        edges = [(0, 1), (1, 2), (2, 0), (3, 0), (4, 1), (5, 4), (2, 5)]
        g = SocialGraph(edges, users=range(6))
        infl = compute_influence(g, "leaderrank")
        want = oracles.leaderrank_dense_power(6, edges)
        assert np.abs(infl.values - want).max() < 1e-8

    def test_user_total_is_preserved(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 25))
            m = int(rng.integers(0, max(n * (n - 1) // 3, 1)))
            edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2)) if a != b}
            g = SocialGraph(list(edges), users=range(n))
            infl = compute_influence(g, "leaderrank")
            assert abs(infl.values.sum() - n) < 1e-6 * n


def leaderrank_sparse_power(n, edges, sweeps=1000):
    """LeaderRank by a fixed number of sparse power sweeps, with the augmented
    matrix assembled here rather than by the library."""
    ground = np.full(n, n)
    src = np.concatenate([edges[:, 0], np.arange(n), ground])
    dst = np.concatenate([edges[:, 1], ground, np.arange(n)])
    adjacency = sp.coo_matrix((np.ones(src.size), (dst, src)), shape=(n + 1, n + 1)).tocsc()
    flow = adjacency @ sp.diags(1.0 / np.asarray(adjacency.sum(axis=0)).ravel())
    s = np.append(np.ones(n), 0.0)
    for _ in range(sweeps):
        s = flow @ s
    return s[:n] + s[n] / n


def scipy_power_iteration(edges, users, measure, tol=1e-10, max_iter=1000):
    """PageRank (damping 0.85) or LeaderRank as a ``scipy.sparse`` CSR power
    iteration under the library's stop rule: the sparse-matrix formulation
    the numpy one must reproduce bit for bit. Returns ``(values, sweeps,
    residual, converged)``."""
    ids, compact = np.unique(np.concatenate([edges.ravel(), users]), return_inverse=True)
    n = ids.size
    pairs = compact[:edges.size].reshape(-1, 2)
    pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
    src, dst, size = pairs[:, 0], pairs[:, 1], n
    if measure == "leaderrank":  # ground node n, linked both ways to every user
        src = np.concatenate([src, np.arange(n), np.full(n, n)])
        dst = np.concatenate([dst, np.full(n, n), np.arange(n)])
        size = n + 1
    out = np.bincount(src, minlength=size)
    flow = sp.csr_matrix((1.0 / out[src], (dst, src)), shape=(size, size))
    if measure == "pagerank":
        dangling = np.flatnonzero(out == 0)

        def step(s):
            loose = s[dangling].sum() / n if dangling.size else 0.0
            return (1.0 - 0.85) / n + 0.85 * (flow @ s + loose)

        s, mass = np.full(n, 1.0 / n), 1.0
    else:
        step, s, mass = flow.dot, np.append(np.ones(n), 0.0), n
    residual = np.inf
    for sweeps in range(1, max_iter + 1):
        s_next = step(s)
        residual = float(np.abs(s_next - s).sum()) / mass
        s = s_next
        if residual < tol:
            break
    if measure == "leaderrank":
        s = s[:n] + s[n] / n
    return s, sweeps, residual, residual < tol


class TestMatchesSparseMatrixIteration:
    """The centralities equal a scipy CSR power iteration bit for bit, on
    graphs with dangling users, isolated users, duplicate edges and
    self-loops."""

    @staticmethod
    def random_graph(seed, offset=0, stride=1):
        """Edges and users; ids are ``offset + stride * k`` for compact ``k``."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        m = int(rng.integers(n, 4 * n))
        # heavy-tailed leaders: many users are followed by nobody
        leaders = np.minimum((rng.pareto(1.2, size=m) * 3).astype(np.int64), n - 1)
        edges = np.column_stack([rng.integers(0, n, size=m), leaders])
        loops = np.column_stack([[0, n // 2]] * 2)
        edges = np.concatenate([edges, edges[:3], loops])[rng.permutation(m + 5)]
        users = np.arange(n + int(rng.integers(1, 5)))  # ids past n are isolated
        return offset + stride * edges, offset + stride * users

    @pytest.mark.parametrize("measure", ["pagerank", "leaderrank"])
    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical(self, measure, seed):
        edges, users = self.random_graph(seed)
        g = SocialGraph(edges, users=users)
        assert g.self_loops_dropped and g.duplicates_dropped
        assert (g.out_degrees == 0).any() and (g.in_degrees + g.out_degrees == 0).any()
        got = compute_influence(g, measure)
        values, sweeps, residual, converged = scipy_power_iteration(edges, users, measure)
        assert np.array_equal(got.values, values)
        assert (got.iterations_used, got.residual, got.converged) == (sweeps, residual, converged)

    @pytest.mark.parametrize("measure", ["pagerank", "leaderrank"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_on_sparse_ids(self, measure, seed):
        # ids up to 2**62 + 2**49 span too far for a presence table: the sort path
        edges, users = self.random_graph(seed, offset=2**62, stride=2**40)
        g = SocialGraph(edges, users=users)
        dense = SocialGraph(*self.random_graph(seed))
        assert np.array_equal(g._src, dense._src) and np.array_equal(g._dst, dense._dst)
        got = compute_influence(g, measure)
        values, sweeps, residual, converged = scipy_power_iteration(edges, users, measure)
        assert np.array_equal(got.values, values)
        assert (got.iterations_used, got.residual, got.converged) == (sweeps, residual, converged)

    @pytest.mark.parametrize("measure", ["pagerank", "leaderrank"])
    def test_bit_identical_when_stopped_early(self, measure):
        edges, users = self.random_graph(100)
        got = compute_influence(SocialGraph(edges, users=users), measure, tol=0.0, max_iter=7)
        values, sweeps, residual, converged = scipy_power_iteration(
            edges, users, measure, tol=0.0, max_iter=7)
        assert np.array_equal(got.values, values)
        assert (got.iterations_used, got.residual, got.converged) == (7, residual, False)


class TestSummationOrder:
    """A sweep adds each leader's shares in ascending follower order, whatever
    order the edges are stored or given in."""

    def test_spread_is_the_ascending_follower_sum(self):
        # leaders 0 and 5 both take 1.0, 1e16 and -1e16: added from the first
        # follower the 1.0 is lost to rounding, from the last it survives
        edges = [(3, 0), (1, 0), (2, 0), (4, 5), (2, 5), (3, 5), (1, 5), (0, 4)]
        g = SocialGraph(edges, users=range(6))
        moved = np.array([0.0, 1.0, 1e16, -1e16, 2.0, 0.0])
        ascending, descending = np.zeros(6), np.zeros(6)
        for follower, leader in sorted(edges):
            ascending[leader] += moved[follower]
        for follower, leader in sorted(edges, reverse=True):
            descending[leader] += moved[follower]
        assert (ascending != descending)[[0, 5]].all()
        assert np.array_equal(_spread(g, moved), ascending)
        assert (np.diff(g._src) >= 0).all()

    @staticmethod
    def seeded_graph():
        # about 2e4 users and 1e5 edges with heavy-tailed, shuffled leaders
        rng = np.random.default_rng(15)
        n, m = 20_000, 100_000
        leaders = np.minimum((rng.pareto(1.1, size=m) * 40).astype(np.int64), n - 1)
        edges = np.column_stack([rng.integers(0, n, size=m), rng.permutation(n)[leaders]])
        return SocialGraph(edges, users=range(n))

    @pytest.mark.parametrize("measure, sweeps, residual, digest", [
        ("pagerank", 25, 6.486804855980845e-11,
         "3e50057b3576ed74bc2a37c94ca990b98031b1149aa70d1a617318a82ff63ebb"),
        ("leaderrank", 24, 5.6379589775945593e-11,
         "5d5f56c1197ac818fd274a9c77c6868a5cfc9ad2794af6b4c8d497f0ac0ffb6f"),
    ])
    def test_seeded_values_digest(self, measure, sweeps, residual, digest):
        # recorded with the edges stored in (leader, follower) order
        g = self.seeded_graph()
        assert (g.num_links, g.duplicates_dropped, g.self_loops_dropped) == (97_695, 2_294, 11)
        got = compute_influence(g, measure)
        assert (got.iterations_used, got.residual, got.converged) == (sweeps, residual, True)
        assert hashlib.sha256(got.values.tobytes()).hexdigest() == digest


class TestStopRule:
    """``tol`` bounds the L1 change of a sweep relative to the score mass."""

    def test_leaderrank_converges_on_a_large_graph(self):
        # followers uniform, leaders by preferential attachment: a heavy-tailed
        # in-degree like real follower networks
        rng = np.random.default_rng(11)
        n, m = 50_000, 250_000
        leaders = np.empty(m, dtype=np.int64)
        weight = np.ones(n)
        for lo in range(0, m, m // 8):
            leaders[lo:lo + m // 8] = rng.choice(n, size=m // 8, p=weight / weight.sum())
            weight += np.bincount(leaders[lo:lo + m // 8], minlength=n)
        edges = np.column_stack([rng.integers(0, n, size=m), leaders])
        g = SocialGraph(edges, users=range(n))

        infl = compute_influence(g, "leaderrank")
        assert infl.converged
        assert infl.iterations_used < 100

        compact = np.column_stack([g._src, g._dst])
        want = leaderrank_sparse_power(n, compact)
        np.testing.assert_allclose(infl.values, want, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("measure", ["pagerank", "leaderrank"])
    def test_residual_does_not_grow_with_the_user_count(self, measure):
        # 40 disjoint copies of a graph scale every score (PageRank) or the
        # ground node's share (LeaderRank) so that the relative L1 change of a
        # sweep is the same as for one copy
        one = TestMeasureProperties.FIXTURE
        copies = [(a + 10 * k, b + 10 * k) for k in range(40) for a, b in one]
        a = compute_influence(SocialGraph(one), measure, tol=0.0, max_iter=5)
        b = compute_influence(SocialGraph(copies), measure, tol=0.0, max_iter=5)
        assert not a.converged and not b.converged
        assert a.residual > 1e-3
        assert b.residual == pytest.approx(a.residual, rel=1e-9)


class TestMeasureProperties:
    FIXTURE = [(0, 1), (1, 2), (2, 0), (3, 1), (4, 3), (5, 1), (2, 4)]

    @pytest.mark.parametrize("measure", ["in_degree", "pagerank", "leaderrank"])
    def test_permutation_invariance(self, measure, rng):
        n = 6
        perm = rng.permutation(n)
        mapping = {i: int(100 + perm[i]) for i in range(n)}
        a = compute_influence(SocialGraph(self.FIXTURE, users=range(n)), measure)
        b = compute_influence(
            SocialGraph(relabel(self.FIXTURE, mapping), users=mapping.values()), measure
        )
        relabelled = b.lookup([mapping[i] for i in range(n)])
        for i in range(n):
            assert a.lookup([i])[0] == pytest.approx(relabelled[i], abs=1e-9)

    @pytest.mark.parametrize("measure", ["in_degree", "pagerank", "leaderrank"])
    def test_vertex_transitive_graph_is_uniform(self, measure):
        cycle = [(i, (i + 1) % 5) for i in range(5)]
        infl = compute_influence(SocialGraph(cycle), measure)
        assert np.allclose(infl.values, infl.values[0], atol=1e-8)

    @pytest.mark.parametrize("measure", ["in_degree", "pagerank", "leaderrank"])
    def test_star_center_is_strictly_largest(self, measure):
        g = SocialGraph([(u, 0) for u in range(1, 8)])
        infl = compute_influence(g, measure)
        center = infl.lookup([0])[0]
        assert all(center > v for v in infl.lookup(range(1, 8)))

    def test_unknown_measure(self):
        with pytest.raises(ValueError):
            compute_influence(SocialGraph([(0, 1)]), "betweenness")

    def test_lookup_defaults_unknown_users_to_zero(self):
        infl = compute_influence(SocialGraph([(0, 1)]), "in_degree")
        out = infl.lookup(np.array([0, 1, 99]))
        assert out.tolist() == [0.0, 1.0, 0.0]
