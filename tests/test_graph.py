from collections import deque

import pytest
from hypothesis import given, strategies as st

try:
    import networkx as nx
except ImportError:  # networkx is a test-only cross-check
    nx = None

from srdkit.errors import (
    ContractionError,
    GraphParseError,
    GraphStructureError,
    NotBipartiteError,
)
from srdkit.graph import (
    Graph,
    _bfs,
    _multiplicity,
    _odd_cycle,
    _open_arcs,
    blocks,
    complete_graph,
    complete_multipartite_graph,
    components,
    contract,
    cycle_graph,
    export_dot,
    grid_graph,
    grid_vertex,
    induced_subgraph,
    is_cactus_with_cycle,
    is_connected,
    parse_graph,
    path_graph,
    petersen_graph,
    serialize_graph,
    star_graph,
)

from conftest import small_graphs, walk_cases
from oracles import (
    all_labeled_graphs,
    oracle_cut_vertices,
    reference_bfs,
    reference_is_cactus_with_cycle,
    reference_multiplicity,
    reference_two_color,
)


def bowtie():
    # two triangles sharing vertex 2
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


class TestConstruction:
    def test_edge_ids_are_positions(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 1)])
        assert g.edges[0] == (0, 1)
        assert g.edges[2] == (0, 1)
        assert g.has_parallel_edges()

    def test_rejects_loops_and_bad_endpoints(self):
        with pytest.raises(GraphStructureError):
            Graph(2, [(0, 0)])
        with pytest.raises(GraphStructureError):
            Graph(2, [(0, 2)])

    def test_immutable(self):
        g = path_graph(3)
        with pytest.raises(AttributeError):
            g.vertex_count = 7

    def test_degrees(self):
        g = star_graph(3)
        assert g.degree(0) == 3
        assert g.max_degree() == 3


class TestParsing:
    def test_round_trip_with_comments(self):
        text = "# a triangle plus a tail\n3 3\n0 1\n\n1 2\n# middle comment\n0 2\n"
        g = parse_graph(text)
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2), (0, 2))
        assert parse_graph(serialize_graph(g)) == g

    def test_edge_id_is_file_order(self):
        g = parse_graph("3 2\n2 1\n0 2\n")
        assert g.edges[0] == (2, 1)
        assert g.edges[1] == (0, 2)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "missing"),
            ("2 1\n0 1\n0 1\n", "more than the declared"),
            ("2 2\n0 1\n", "declared 2 edges but found 1"),
            ("2 1\nnope line\n", "line 2"),
            ("2 1\n0 5\n", "line 2"),
            ("2 1\n1 1\n", "self-loop"),
            ("3 1 9\n", "line 1"),
            ("1_1 0\n", "line 1"),  # int("1_1") is 11
            ("11 1\n0 1_0\n", "line 2"),
            # Arabic-Indic digits, which int() reads as 2, 1 and 0
            ("\u0662 \u0661\n\u0660 \u0661\n", "line 1"),
            ("2 1\n0 \u0661\n", "line 2"),
        ],
    )
    def test_parse_errors_name_the_line(self, text, fragment):
        with pytest.raises(GraphParseError) as err:
            parse_graph(text)
        assert fragment in str(err.value)

    @given(small_graphs(min_vertices=1, max_vertices=6, connected=False))
    def test_serialize_parse_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g


@st.composite
def multigraphs(draw, connected):
    """Multigraphs with parallel edges: a random tree on 1-12 vertices plus
    extra edges when ``connected``, else at most n edges on 1-30 vertices,
    so usually many components."""
    n = draw(st.integers(1, 12 if connected else 30))
    vertex = st.integers(0, n - 1)
    edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)] if connected else []
    edges += draw(st.lists(edge, max_size=n if n > 1 else 0))
    return Graph(n, draw(st.permutations(edges)))


class TestComponents:
    def test_split(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert components(g) == (frozenset({0, 1}), frozenset({2, 3}))
        assert not is_connected(g)

    def test_single_vertex(self):
        assert is_connected(Graph(1, []))

    @given(multigraphs(connected=False))
    def test_same_tuple_as_a_plain_walk(self, g):
        want, seen = [], set()
        for start in range(g.vertex_count):
            if start not in seen:
                comp = frozenset(plain_distances(g, start, ()))
                seen |= comp
                want.append(comp)
        assert components(g) == tuple(want)


def plain_distances(g, start, removed):
    """Hop counts from ``start`` in G minus ``removed``, by a walk over
    ``g.adj`` that knows nothing of arcs."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for w, eid in g.adj[x]:
            if eid not in removed and w not in dist:
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist


class TestBfs:
    @given(walk_cases())
    def test_open_arcs_walk_matches_a_plain_walk(self, case):
        g, removed, start, target = case
        dist = plain_distances(g, start, removed)
        capacity = _open_arcs(g, removed)
        walk = _bfs(g, start, capacity)
        assert {x for x, arc in enumerate(walk) if arc is not None} == set(dist)
        tree = _bfs(g, start, capacity, target=target)
        if target not in dist:
            assert tree[target] is None
            return
        # back from the target, each arc is open and ends where the last began
        x, length = target, 0
        while x != start:
            arc = tree[x]
            tail, head = g.edges[arc >> 1][arc & 1], g.edges[arc >> 1][1 - (arc & 1)]
            assert capacity[arc] and head == x
            x, length = tail, length + 1
        assert length == dist[target]

    @given(walk_cases())
    def test_same_tree_as_the_dict_walk(self, case):
        # the same arc for every reached vertex, None for the others, from
        # every start, run to the end and stopped at the target
        g, removed, _, target = case
        capacity = _open_arcs(g, removed)
        for start in range(g.vertex_count):
            for stop in (None, target):
                tree = _bfs(g, start, capacity, target=stop)
                want = reference_bfs(g, start, capacity, target=stop)
                assert len(tree) == g.vertex_count
                assert {x: arc for x, arc in enumerate(tree) if arc is not None} == want


class TestBlocks:
    def test_path_blocks_are_bridges(self):
        dec = blocks(path_graph(4))
        assert sorted(b.edge_ids for b in dec.blocks) == [(0,), (1,), (2,)]
        assert dec.cut_vertices == frozenset({1, 2})

    def test_cycle_is_one_block(self):
        dec = blocks(cycle_graph(5))
        assert len(dec.blocks) == 1
        assert dec.cut_vertices == frozenset()

    def test_bowtie(self):
        dec = blocks(bowtie())
        assert len(dec.blocks) == 2
        assert dec.cut_vertices == frozenset({2})
        assert sorted(len(b.edge_ids) for b in dec.blocks) == [3, 3]
        # block tree: both blocks attach to the single cut vertex
        assert sorted(dec.tree_edges) == [(0, 2), (1, 2)]

    def test_parallel_edges_one_block(self):
        dec = blocks(Graph(2, [(0, 1), (0, 1)]))
        assert len(dec.blocks) == 1
        assert dec.blocks[0].edge_ids == (0, 1)
        assert dec.cut_vertices == frozenset()

    def test_block_subgraph_mapping(self):
        dec = blocks(bowtie())
        for blk in dec.blocks:
            view = blk.subgraph
            for local_eid, parent_eid in enumerate(view.edge_map):
                lu, lv = view.graph.edges[local_eid]
                pu, pv = view.vertices[lu], view.vertices[lv]
                assert {pu, pv} == set(bowtie().edges[parent_eid])

    def test_disconnected_rejected(self):
        with pytest.raises(GraphStructureError):
            blocks(Graph(4, [(0, 1), (2, 3)]))

    def test_singleton_graph(self):
        dec = blocks(Graph(1, []))
        assert dec.blocks == ()
        assert dec.cut_vertices == frozenset()

    def test_edge_partition_and_tree_shape(self):
        for n, edges in all_labeled_graphs(5):
            g = Graph(n, edges)
            dec = blocks(g)
            seen = sorted(eid for blk in dec.blocks for eid in blk.edge_ids)
            assert seen == list(range(g.edge_count))
            # bipartite incidence structure of a tree
            if dec.blocks:
                assert len(dec.tree_edges) == (
                    len(dec.blocks) + len(dec.cut_vertices) - 1
                )

    @given(multigraphs(connected=True))
    def test_same_decomposition_as_induced_subgraphs(self, g):
        dec = blocks(g)
        for b in dec.blocks:
            assert b.parent is g
            assert b.subgraph == induced_subgraph(g, b.vertices)
            assert b.subgraph is b.subgraph  # built once, on the first read

    def test_cut_vertices_match_oracle(self):
        for n, edges in all_labeled_graphs(5):
            g = Graph(n, edges)
            assert blocks(g).cut_vertices == oracle_cut_vertices(n, edges), edges


any_multigraphs = st.booleans().flatmap(lambda c: multigraphs(connected=c))


def is_bipartite_by_reference(g):
    try:
        reference_two_color(g)
    except NotBipartiteError:
        return False
    return True


class TestStructureAgainstReferences:
    """Each structure answer against the package's former, separate code
    for it in oracles.py."""

    @given(any_multigraphs)
    def test_cactus_answer(self, g):
        assert is_cactus_with_cycle(g) == reference_is_cactus_with_cycle(g)

    def test_parallel_pairs_are_cycle_blocks(self):
        assert is_cactus_with_cycle(Graph(2, [(0, 1), (0, 1)]))
        assert is_cactus_with_cycle(Graph(3, [(0, 1), (1, 0), (1, 2), (2, 1)]))
        assert not is_cactus_with_cycle(Graph(2, [(0, 1), (0, 1), (1, 0)]))
        # a theta graph: as many edges as vertices plus one
        assert not is_cactus_with_cycle(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))

    @given(any_multigraphs)
    def test_multiplicity(self, g):
        assert _multiplicity(g) == reference_multiplicity(g)
        assert g.has_parallel_edges() == (reference_multiplicity(g) > 1)

    @given(any_multigraphs)
    def test_odd_cycle_is_a_simple_odd_cycle_of_g(self, g):
        cycle = _odd_cycle(g)
        assert (cycle is None) == is_bipartite_by_reference(g)
        if cycle is not None:
            assert len(cycle) % 2 == 1 and len(cycle) >= 3
            assert len(set(cycle)) == len(cycle)
            pairs = {frozenset(e) for e in g.edges}
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert frozenset((a, b)) in pairs

    @pytest.mark.skipif(nx is None, reason="networkx is not installed")
    @given(any_multigraphs)
    def test_bipartite_agrees_with_networkx(self, g):
        net = nx.MultiGraph()
        net.add_nodes_from(range(g.vertex_count))
        net.add_edges_from(g.edges)
        assert (_odd_cycle(g) is None) == nx.is_bipartite(net)


class TestContract:
    def test_k4_pair(self):
        res = contract(complete_graph(4), {0, 1})
        assert res.graph.vertex_count == 3
        assert res.graph.edge_count == 5
        assert res.graph.has_parallel_edges()
        # the K4 edge (0,1) is the only one dropped
        assert set(res.edge_map) == {1, 2, 3, 4, 5}

    def test_edge_map_points_at_parents(self):
        g = bowtie()
        res = contract(g, {3, 4})
        for new_eid, old_eid in enumerate(res.edge_map):
            ou, ov = g.edges[old_eid]
            nu, nv = res.graph.edges[new_eid]
            assert {res.vertex_map[ou], res.vertex_map[ov]} == {nu, nv}

    def test_bad_inputs(self):
        g = path_graph(3)
        with pytest.raises(ContractionError):
            contract(g, set())
        with pytest.raises(ContractionError):
            contract(g, {0, 1, 2})
        with pytest.raises(ContractionError):
            contract(g, {9})


class TestDot:
    def test_plain(self):
        out = export_dot(path_graph(3))
        assert "0 -- 1;" in out and "1 -- 2;" in out

    def test_labels(self):
        from srdkit.colorings import EdgeColoring

        out = export_dot(
            path_graph(3),
            EdgeColoring((1, 2)),
            vertex_labels={0: "a", 1: "b", 2: "c"},
            color_labels={1: "red", 2: "blue"},
        )
        assert 'label="red"' in out and 'label="blue"' in out

    def test_length_mismatch(self):
        from srdkit.colorings import EdgeColoring
        from srdkit.errors import ColoringError

        with pytest.raises(ColoringError):
            export_dot(path_graph(3), EdgeColoring((1,)))


class TestBuilders:
    def test_petersen(self):
        g = petersen_graph()
        assert g.vertex_count == 10
        assert g.edge_count == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.vertex_count == 12
        assert g.edge_count == 3 * 3 + 2 * 4
        assert g.degree(grid_vertex(3, 4, 1, 1)) == 4

    def test_multipartite(self):
        g = complete_multipartite_graph([1, 2, 2])
        assert g.vertex_count == 5
        assert g.edge_count == 1 * 2 + 1 * 2 + 2 * 2
        assert g.degree(0) == 4
