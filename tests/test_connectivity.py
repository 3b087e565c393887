from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import networkx as nx
except ImportError:
    nx = None

from srdkit import all_connected_graphs, connectivity
from srdkit.connectivity import (
    CutCertificate,
    _all_min_cuts,
    _cut_tree,
    _lambda_rows,
    _max_flow,
    _min_cut_tuples,
    _tree_cuts,
    _walk_min_cuts,
    edge_connectivity,
    enumerate_min_cuts,
    local_edge_connectivity,
    upper_edge_connectivity,
)
from srdkit.errors import GraphStructureError
from srdkit.graph import (
    Graph,
    _bfs,
    _open_arcs,
    complete_graph,
    contract,
    cycle_graph,
    grid_graph,
    grid_vertex,
    path_graph,
    petersen_graph,
    star_graph,
)

from conftest import connected_multigraphs, small_graphs, walk_cases
from oracles import (
    _crossing_edges,
    all_labeled_graphs,
    oracle_all_min_cuts,
    oracle_lambda,
    oracle_separates,
    reference_edge_connectivity,
    reference_upper_edge_connectivity,
    reference_walk_min_cuts,
)


def k4_minus_edge():
    # drop (0,1); vertices 2,3 keep degree 3
    return Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestLocalEdgeConnectivity:
    def test_complete_graph_pair(self):
        assert local_edge_connectivity(complete_graph(4), 0, 1) == 3
        assert local_edge_connectivity(complete_graph(4), 1, 3) == 3

    def test_grid_2x3_corners(self):
        g = grid_graph(2, 3)
        a = grid_vertex(2, 3, 0, 0)
        b = grid_vertex(2, 3, 1, 2)
        assert local_edge_connectivity(g, a, b) == 2

    def test_grid_2x3_middle_column(self):
        g = grid_graph(2, 3)
        top = grid_vertex(2, 3, 0, 1)
        bottom = grid_vertex(2, 3, 1, 1)
        assert local_edge_connectivity(g, top, bottom) == 3

    def test_parallel_edges_count(self):
        g = Graph(2, [(0, 1), (0, 1), (0, 1)])
        assert local_edge_connectivity(g, 0, 1) == 3

    def test_bad_pairs(self):
        g = path_graph(3)
        with pytest.raises(GraphStructureError):
            local_edge_connectivity(g, 1, 1)
        with pytest.raises(GraphStructureError):
            local_edge_connectivity(g, 0, 9)

    def test_takes_no_removed_edges(self):
        # λ of G less some edges comes from G rebuilt without them
        with pytest.raises(TypeError):
            local_edge_connectivity(cycle_graph(4), 0, 2, removed={0})

    def test_matches_oracle_exhaustively_n4(self):
        for n, edges in all_labeled_graphs(4, connected_only=False):
            g = Graph(n, edges)
            for u in range(n):
                for v in range(u + 1, n):
                    assert local_edge_connectivity(g, u, v) == oracle_lambda(
                        n, edges, u, v
                    ), (edges, u, v)

    @settings(max_examples=60)
    @given(small_graphs(max_vertices=6))
    def test_matches_oracle_random(self, g):
        edges = list(g.edges)
        assert local_edge_connectivity(g, 0, g.vertex_count - 1) == oracle_lambda(
            g.vertex_count, edges, 0, g.vertex_count - 1
        )


class TestMinEdgeCut:
    @settings(max_examples=60)
    @given(small_graphs(max_vertices=6))
    def test_certificate_is_minimum_and_separates(self, g):
        u, v = 0, g.vertex_count - 1
        cert = enumerate_min_cuts(g, u, v, limit=1)[0]
        assert cert.value == len(cert.cut)
        assert oracle_separates(g.vertex_count, g.edges, cert.cut, u, v)
        assert cert.value == oracle_lambda(g.vertex_count, list(g.edges), u, v)


class TestEnumerateMinCuts:
    def test_triangle_pair_has_two(self):
        cuts = enumerate_min_cuts(cycle_graph(3), 0, 1)
        assert [sorted(c.cut) for c in cuts] == [[0, 1], [0, 2]]

    def test_c4_opposite_has_four(self):
        cuts = enumerate_min_cuts(cycle_graph(4), 0, 2)
        assert len(cuts) == 4

    def test_path_endpoints(self):
        cuts = enumerate_min_cuts(path_graph(4), 0, 3)
        assert [sorted(c.cut) for c in cuts] == [[0], [1], [2]]

    def test_long_path_beyond_the_recursion_limit(self):
        # one flow walk of 1,499 edges, each edge a minimum cut
        cuts = enumerate_min_cuts(path_graph(1500), 0, 1499)
        assert [sorted(c.cut) for c in cuts] == [[e] for e in range(1499)]

    def test_sorted_lexicographically(self):
        cuts = enumerate_min_cuts(cycle_graph(4), 0, 2)
        keys = [tuple(sorted(c.cut)) for c in cuts]
        assert keys == sorted(keys)

    def test_limit_truncates_deterministically(self):
        a = enumerate_min_cuts(cycle_graph(4), 0, 2, limit=2)
        b = enumerate_min_cuts(cycle_graph(4), 0, 2, limit=2)
        assert len(a) == 2
        assert [c.cut for c in a] == [c.cut for c in b]

    def test_limit_keeps_the_emission_order(self):
        # the first limit + 1 vertex sides found are sorted and cut to
        # limit: not the lexicographically first cuts of all 36
        cuts = enumerate_min_cuts(cycle_graph(12), 0, 6, limit=20)
        assert [tuple(sorted(c.cut)) for c in cuts] == [
            (0, 6), (0, 7), (0, 8), (0, 9), (0, 10), (0, 11),
            (1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (1, 11),
            (2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (2, 11),
            (3, 9), (3, 10),
        ]

    @pytest.mark.parametrize("limit", [2, 3])
    def test_isolated_vertices_do_not_count_against_the_limit(self, limit):
        # the vertex sides {0}, {0, 3}, {0, 4}, ... all give the cut {0}
        cuts = enumerate_min_cuts(Graph(6, [(0, 1), (1, 2)]), 0, 2, limit=limit)
        assert [sorted(c.cut) for c in cuts] == [[0], [1]]

    def test_disconnected_pair_has_one_empty_cut(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4)])
        assert enumerate_min_cuts(g, 0, 4) == [CutCertificate((0, 4), frozenset(), 0)]

    def test_limit_zero_lists_nothing(self):
        assert enumerate_min_cuts(cycle_graph(4), 0, 2, limit=0) == []
        assert enumerate_min_cuts(Graph(3, [(0, 1)]), 0, 2, limit=0) == []

    def test_matches_oracle_exhaustively_n4(self):
        for n, edges in all_labeled_graphs(4):
            g = Graph(n, edges)
            for u in range(n):
                for v in range(u + 1, n):
                    lam, expect = oracle_all_min_cuts(n, edges, u, v)
                    got = enumerate_min_cuts(g, u, v)
                    assert [c.cut for c in got] == expect, (edges, u, v)
                    assert all(c.value == lam for c in got)

    @settings(max_examples=40)
    @given(small_graphs(max_vertices=5))
    def test_matches_oracle_random(self, g):
        n, edges = g.vertex_count, list(g.edges)
        for u in range(n):
            for v in range(u + 1, n):
                _, expect = oracle_all_min_cuts(n, edges, u, v)
                got = enumerate_min_cuts(g, u, v)
                assert [c.cut for c in got] == expect


@st.composite
def walk_graphs(draw):
    """A multigraph on 2-10 vertices, maybe disconnected."""
    n = draw(st.integers(2, 10))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=2 * n))
    return Graph(n, edges)


class TestWalkEmissionOrder:
    """The min-cut walk over the flow's walks lists each minimum cut once,
    stops after limit + 1 of them, and lists the same cuts in the same order
    on every call: a truncated enumeration is taken from that list.  Every
    listed cut is one of those the SCC walk of ``reference_walk_min_cuts``
    finds, and an untruncated list holds them all."""

    @settings(max_examples=60, deadline=None)
    @given(walk_graphs())
    def test_distinct_minimum_cuts_up_to_the_limit(self, g):
        for u in range(g.vertex_count):
            for v in range(g.vertex_count):
                if u == v:
                    continue
                value, residual, _ = _max_flow(g, u, v)
                every = set(reference_walk_min_cuts(g, u, v, residual, 10**9))
                for limit in (0, 1, 2, 3, 5, 10_001):
                    got = _walk_min_cuts(g, u, v, residual, value, limit)
                    assert len(set(got)) == len(got), (u, v, limit)
                    assert len(got) == min(limit + 1, len(every)), (u, v, limit)
                    assert set(got) <= every, (u, v, limit)
                    if len(every) <= limit:
                        assert set(got) == every, (u, v, limit)
                    again = _walk_min_cuts(g, u, v, residual, value, limit)
                    assert again == got, (u, v, limit)

    @settings(max_examples=60, deadline=None)
    @given(connected_multigraphs())
    def test_each_side_is_the_cut_s_side_of_the_source(self, g):
        # in a connected graph the closure's reach is all of u's part of
        # G less the cut, so the cut is exactly the edges leaving it
        for u in range(g.vertex_count):
            for v in range(g.vertex_count):
                if u == v:
                    continue
                value, residual, _ = _max_flow(g, u, v)
                sides = []
                cuts = _walk_min_cuts(g, u, v, residual, value, 10**9, sides)
                assert len(sides) == len(cuts)
                for cut, side in zip(cuts, sides):
                    assert u in side and v not in side
                    assert _crossing_edges(g, side) == frozenset(cut), (u, v, cut)


class TestAllMinCuts:
    """``_all_min_cuts`` walks the cut tree's n - 1 pairs and gives every
    pair what its own flow and walk, ``_min_cut_tuples``, gives."""

    LIMITS = (0, 1, 2, 3, 5, 10_001, 200_000)

    @staticmethod
    def per_pair(g, limit):
        n = g.vertex_count
        return {
            (u, v): _min_cut_tuples(g, u, v, limit)
            for u in range(n)
            for v in range(u + 1, n)
        }

    def test_every_connected_graph_on_two_to_six_vertices(self):
        for n in range(2, 7):
            for g in all_connected_graphs(n):
                for limit in self.LIMITS:
                    assert _all_min_cuts(g, limit) == self.per_pair(g, limit), (g, limit)

    @settings(max_examples=150, deadline=None)
    @given(connected_multigraphs(), st.sampled_from(LIMITS))
    def test_connected_multigraphs(self, g, limit):
        assert _all_min_cuts(g, limit) == self.per_pair(g, limit)

    @pytest.mark.parametrize(
        "g, limit, fallbacks",
        [
            # no tree edge has more than 3 cuts to list, but each pair of
            # leaves has 2 minimum cuts, one past the limit of 1
            (star_graph(4), 1, 6),
            (star_graph(4), 2, 0),
            # a tree edge's walk stops past 3 of C8's 2-edge cuts, so every
            # pair takes its own flow and walk
            (cycle_graph(8), 3, 28),
            (cycle_graph(8), 10_001, 0),
        ],
    )
    def test_a_list_past_the_limit_takes_the_pair_s_own_walk(
        self, monkeypatch, g, limit, fallbacks
    ):
        want = self.per_pair(g, limit)
        calls = []
        real = connectivity._min_cut_tuples

        def counted(g, u, v, limit):
            calls.append((u, v))
            return real(g, u, v, limit)

        monkeypatch.setattr(connectivity, "_min_cut_tuples", counted)
        assert _all_min_cuts(g, limit) == want
        assert len(calls) == fallbacks

    def test_tree_edges_walk_the_tree_s_own_flows(self, monkeypatch):
        # step 3 of the cut tree flows 3 against 1, then hangs 3 under 1's
        # parent 0 and 1 under 3, so tree edges (1, 3) and (3, 0) run a
        # fresh flow each; the other three walk the tree's flows
        g = Graph(6, [(0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        want = self.per_pair(g, 10_001)
        assert _cut_tree(g)[0] == [0, 3, 1, 0, 1, 0]
        flows = []
        real = connectivity._max_flow

        def counted(g, s, t):
            flows.append((s, t))
            return real(g, s, t)

        monkeypatch.setattr(connectivity, "_max_flow", counted)
        assert _all_min_cuts(g, 10_001) == want
        assert flows == [(1, 0), (2, 1), (3, 1), (4, 1), (5, 0), (1, 3), (3, 0)]

    def test_a_cut_listed_for_two_tree_edges_is_kept_once(self):
        # C5's cut tree is a star at 0, and 6 of its 10 cuts separate two
        # or more of the star's 4 edges, whose walks all list them; a pair
        # of neighbours has 4 minimum cuts, the other pairs 6
        got = _all_min_cuts(cycle_graph(5), 10)
        assert all(len(set(cuts)) == len(cuts) for _, cuts in got.values())
        assert sorted(len(cuts) for _, cuts in got.values()) == [4] * 5 + [6] * 5

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_pairs_below_two_vertices(self, n):
        assert _all_min_cuts(Graph(n, []), 5) == {}

    def test_disconnected_graph_raises(self):
        with pytest.raises(GraphStructureError, match="connected"):
            _all_min_cuts(Graph(4, [(0, 1), (2, 3)]), 5)


class TestGlobalValues:
    def test_examples(self):
        assert edge_connectivity(k4_minus_edge()) == 2
        assert upper_edge_connectivity(k4_minus_edge()) == 3
        assert edge_connectivity(cycle_graph(5)) == 2
        assert upper_edge_connectivity(cycle_graph(5)) == 2
        assert edge_connectivity(star_graph(4)) == 1
        assert upper_edge_connectivity(star_graph(4)) == 1
        assert edge_connectivity(petersen_graph()) == 3
        assert upper_edge_connectivity(petersen_graph()) == 3

    def test_disconnected_lambda_zero(self):
        assert edge_connectivity(Graph(3, [(0, 1)])) == 0

    def test_upper_requires_two_vertices(self):
        with pytest.raises(GraphStructureError):
            upper_edge_connectivity(Graph(1, []))


def _separated(g, cut, u, v):
    """Does the walk from u over G less ``cut`` miss v?"""
    return _bfs(g, u, _open_arcs(g, cut), target=v)[v] is None


class TestSeparatesAndCuts:
    def test_separates(self):
        g = path_graph(3)
        assert _separated(g, {0}, 0, 2)
        assert not _separated(g, {1}, 0, 1)

    def test_ids_outside_the_edge_list_are_ignored(self):
        g = path_graph(3)  # edges 0 = (0, 1), 1 = (1, 2)
        for stray in (-1, -2, 2, 5):
            assert not _separated(g, {stray}, 0, 2)
            assert _separated(g, {stray, 1}, 0, 2)

    @given(walk_cases())
    def test_against_oracles(self, case):
        g, removed, u, v = case
        if u != v:
            want = oracle_separates(g.vertex_count, g.edges, removed, u, v)
            assert _separated(g, removed, u, v) == want


class TestContractionInteraction:
    def test_contraction_never_lowers_lambda_exhaustive(self):
        from itertools import combinations

        for n, edges in all_labeled_graphs(4):
            g = Graph(n, edges)
            for size in range(1, n - 1):
                for xs in combinations(range(n), size):
                    res = contract(g, xs)
                    kept = [v for v in range(n) if v not in xs]
                    for i, u in enumerate(kept):
                        for v in kept[i + 1:]:
                            lam_g = local_edge_connectivity(g, u, v)
                            lam_c = local_edge_connectivity(
                                res.graph, res.vertex_map[u], res.vertex_map[v]
                            )
                            assert lam_c >= lam_g, (edges, xs, u, v)

    def test_min_cut_side_contraction_preserves_lambda(self):
        # contracting the far side of a minimum x-y cut preserves
        # lambda(u, v) for u, v on the near side
        for n, edges in all_labeled_graphs(5):
            g = Graph(n, edges)
            for x in range(n):
                for y in range(x + 1, n):
                    for cert in enumerate_min_cuts(g, x, y):
                        side = _side_of(g, cert.cut, x)
                        far = frozenset(range(n)) - side
                        if len(side) < 2 or not far:
                            continue
                        res = contract(g, far)
                        pairs = sorted(side)
                        for i, u in enumerate(pairs):
                            for v in pairs[i + 1:]:
                                assert local_edge_connectivity(
                                    res.graph,
                                    res.vertex_map[u],
                                    res.vertex_map[v],
                                ) == local_edge_connectivity(g, u, v), (
                                    edges, (x, y), sorted(cert.cut), (u, v),
                                )


@st.composite
def multigraph_pairs(draw):
    """A multigraph on 10-40 vertices (parallel edges, maybe disconnected)
    and a vertex pair of it."""
    n = draw(st.integers(10, 40))
    vertex = st.integers(0, n - 1)
    edges = []
    if draw(st.booleans()):
        edges += [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    edges += draw(st.lists(edge, max_size=2 * n))
    u = draw(vertex)
    v = draw(vertex.filter(lambda x: x != u))
    return Graph(n, edges), u, v


@st.composite
def tree_multigraphs(draw):
    """A multigraph on 1-10 vertices with parallel edges: half the time a
    random spanning tree plus extra edges, otherwise any edges, so often
    disconnected."""
    n = draw(st.integers(1, 10))
    edges = []
    if draw(st.booleans()):
        edges += [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n > 1:
        vertex = st.integers(0, n - 1)
        edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
        edges += draw(st.lists(edge, max_size=2 * n))
    return Graph(n, edges)


def _lambda_table(g):
    """λ(u, ·) for every u, read off ``_cut_tree``'s tree."""
    parent, weight = _cut_tree(g)
    return [low for low, _ in _lambda_rows(parent, weight, [False] * len(parent))]


def _tree_edges(parent):
    """The cut tree's edges as (s, parent[s]) for s > 0, after checking that
    they form a tree rooted at 0: every chain of parents reaches 0."""
    n = len(parent)
    assert n == 0 or parent[0] == 0
    for s in range(n):
        x, steps = s, 0
        while x != 0:
            x, steps = parent[x], steps + 1
            assert steps < n, ("parent cycle", parent)
    return [(s, parent[s]) for s in range(1, n)]


class TestFlowTree:
    """Gusfield's Gomory-Hu cut tree: n - 1 max flows, the one for s keyed
    (s, t) with t s's parent at that time, give λ(u, v) for every pair, and
    each tree edge's cut is a minimum cut for its two ends."""

    @settings(max_examples=150, deadline=None)
    @given(tree_multigraphs())
    def test_rows_match_pairwise_flows(self, g):
        n = g.vertex_count
        rows = _lambda_table(g)
        assert len(rows) == n
        for u, row in enumerate(rows):
            assert row[u] is None
            for v in range(n):
                if v != u:
                    assert row[v] == local_edge_connectivity(g, u, v), (g.edges, u, v)

    @settings(max_examples=150, deadline=None)
    @given(tree_multigraphs())
    def test_global_values_match_the_pairwise_loops(self, g):
        assert edge_connectivity(g) == reference_edge_connectivity(g)
        if g.vertex_count >= 2:
            assert upper_edge_connectivity(g) == reference_upper_edge_connectivity(g)

    def test_matches_oracle_exhaustively_n4(self):
        for n, edges in all_labeled_graphs(4, connected_only=False):
            g = Graph(n, edges)
            for u, row in enumerate(_lambda_table(g)):
                for v in range(u + 1, n):
                    assert row[v] == oracle_lambda(n, edges, u, v), (edges, u, v)

    @settings(max_examples=60, deadline=None)
    @given(tree_multigraphs())
    def test_one_flow_per_tree_edge(self, g):
        with mock.patch.object(
            connectivity, "_max_flow", wraps=connectivity._max_flow
        ) as spy:
            parent, weight = _cut_tree(g)
        flows = [call.args[1:] for call in spy.call_args_list]
        assert [s for s, _ in flows] == list(range(1, g.vertex_count))
        for s, t in _tree_edges(parent):
            assert weight[s] == local_edge_connectivity(g, s, t)

    @settings(max_examples=150, deadline=None)
    @given(tree_multigraphs())
    def test_each_tree_cut_is_a_minimum_cut_of_its_edge(self, g):
        parent, weight = _cut_tree(g)
        cuts = _tree_cuts(g, parent)
        assert cuts[:1] == [frozenset()] * min(g.vertex_count, 1)
        for s, t in _tree_edges(parent):
            assert len(cuts[s]) == weight[s], (g.edges, s, t)
            separated = oracle_separates(g.vertex_count, g.edges, cuts[s], s, t)
            assert separated, (g.edges, s, t)

    @settings(max_examples=150, deadline=None)
    @given(tree_multigraphs(), st.randoms(use_true_random=False))
    def test_rows_name_the_first_marked_least_weight_edge(self, g, rng):
        n = g.vertex_count
        parent, weight = _cut_tree(g)
        marked = [rng.random() < 0.5 for _ in range(n)]

        def path(u, v):
            """The tree edges from u to v, in order, named by lower end."""
            up_u, up_v = [u], [v]
            while up_u[-1] != 0:
                up_u.append(parent[up_u[-1]])
            while up_v[-1] != 0:
                up_v.append(parent[up_v[-1]])
            while len(up_u) > 1 and len(up_v) > 1 and up_u[-2] == up_v[-2]:
                up_u.pop()
                up_v.pop()
            return up_u[:-1] + up_v[-2::-1]

        for u, (low, first) in enumerate(_lambda_rows(parent, weight, marked)):
            assert low[u] is None and first[u] is None
            for v in range(n):
                if v != u:
                    edges = path(u, v)
                    least = min(weight[s] for s in edges)
                    want = [s for s in edges if weight[s] == least and marked[s]]
                    assert low[v] == least
                    assert first[v] == (want[0] if want else None), (parent, u, v)

    def test_the_swap_keeps_the_root(self):
        # 1 = 2 - 0: the flow for 1 against 0 reaches X = {1, 2}, so 2 moves
        # under 1; the flow for 2 against 1 reaches X = {2, 0}, which holds
        # 1's parent 0, so 2 takes 1's place under 0 and they swap weights
        parent, weight = _cut_tree(Graph(3, [(1, 2), (1, 2), (2, 0)]))
        assert parent == [0, 2, 0] and weight == [0, 2, 1]


def _capacity_network(g):
    """G for networkx, with each bundle of parallel edges merged into one
    edge whose capacity is the bundle's size (networkx.edge_connectivity
    counts a bundle once, so the tests use its max flow instead)."""
    net = nx.Graph()
    net.add_nodes_from(range(g.vertex_count))
    for a, b in g.edges:
        if net.has_edge(a, b):
            net[a][b]["capacity"] += 1
        else:
            net.add_edge(a, b, capacity=1)
    return net


@pytest.mark.skipif(nx is None, reason="networkx is not installed")
class TestAgainstNetworkx:
    """Beyond the oracles' reach: λ against networkx max flow with parallel
    edges merged into capacities, and every certificate re-checked."""

    @settings(max_examples=100, deadline=None)
    @given(multigraph_pairs())
    def test_flow_cut_and_enumeration(self, case):
        g, u, v = case
        lam = nx.maximum_flow_value(_capacity_network(g), u, v)
        assert local_edge_connectivity(g, u, v) == lam
        certs = enumerate_min_cuts(g, u, v, limit=50)
        assert 1 <= len(certs) <= 50
        for cert in certs:
            assert cert.value == len(cert.cut) == lam
            assert oracle_separates(g.vertex_count, g.edges, cert.cut, u, v)

    @settings(max_examples=60, deadline=None)
    @given(tree_multigraphs())
    def test_flow_tree(self, g):
        net = _capacity_network(g)
        for u, row in enumerate(_lambda_table(g)):
            for v in range(u + 1, g.vertex_count):
                assert row[v] == nx.maximum_flow_value(net, u, v), (g.edges, u, v)

    @settings(max_examples=60, deadline=None)
    @given(tree_multigraphs())
    def test_cut_tree_agrees_with_networkx_gomory_hu_tree(self, g):
        gh = nx.gomory_hu_tree(_capacity_network(g))
        for u, row in enumerate(_lambda_table(g)):
            for v in range(u + 1, g.vertex_count):
                path = nx.shortest_path(gh, u, v)
                lam = min(gh[a][b]["weight"] for a, b in zip(path, path[1:]))
                assert row[v] == lam, (g.edges, u, v)


def _side_of(g, cut, start):
    from collections import deque

    seen = {start}
    queue = deque([start])
    while queue:
        a = queue.popleft()
        for b, eid in g.adj[a]:
            if eid in cut or b in seen:
                continue
            seen.add(b)
            queue.append(b)
    return frozenset(seen)
