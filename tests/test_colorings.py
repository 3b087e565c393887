"""Proper colorings, the chromatic-index search, and the family schemes.

Rainbow-min-cut validity is checked against the independent subset oracles
in oracles.py.  The one construction past their reach, K_{3,3,3,3}, goes
through the package's verifier, which test_verifier.py checks against those
oracles.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdkit import (
    BudgetExceededError,
    ColoringError,
    EdgeColoring,
    Graph,
    GraphParseError,
    NotBipartiteError,
    bipartite_proper_coloring,
    color_by_blocks,
    color_cactus,
    color_complete,
    color_complete_multipartite,
    color_general_upper,
    color_grid,
    color_regular,
    color_tree,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    exact_chromatic_index,
    greedy_fan_coloring,
    grid_graph,
    is_proper,
    is_srd_coloring,
    local_edge_connectivity,
    normalize_colors,
    parse_coloring,
    path_graph,
    petersen_graph,
    serialize_coloring,
    star_graph,
)
from srdkit.colorings import _min_nontrivial_pair_cut
from srdkit.solver import all_connected_graphs

from conftest import small_graphs
from oracles import (
    FastSrdOracle,
    all_labeled_graphs,
    oracle_is_srd,
    reference_chromatic_index,
    reference_min_nontrivial_pair_cut,
)


def assert_oracle_srd(g: Graph, c: EdgeColoring):
    assert oracle_is_srd(g.vertex_count, list(g.edges), list(c.colors))


class TestColoringIO:
    def test_round_trip(self):
        c = EdgeColoring((3, 1, 2, 1))
        assert parse_coloring(serialize_coloring(c)) == c

    def test_header_is_optional(self):
        assert parse_coloring("1\n2\n").colors == (1, 2)

    def test_num_colors_is_max_not_count(self):
        assert EdgeColoring((5, 1)).num_colors == 5
        assert EdgeColoring((5, 1)).distinct_colors() == frozenset({1, 5})

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("colors 1\n1\n2\n", "declares 1"),
            ("0\n", "positive"),
            ("colors 2\nx\n", "expected a color"),
        ],
    )
    def test_rejects(self, text, fragment):
        with pytest.raises(GraphParseError, match=fragment):
            parse_coloring(text)

    def test_normalize_renumbers_by_first_use(self):
        c = normalize_colors(EdgeColoring((7, 3, 7, 9)))
        assert c.colors == (1, 2, 1, 3)


class TestProperColoring:
    def test_is_proper(self):
        tri = cycle_graph(3)
        assert is_proper(tri, EdgeColoring((1, 2, 3)))
        assert not is_proper(tri, EdgeColoring((1, 2, 2)))

    def test_fan_on_triangle(self):
        c = greedy_fan_coloring(cycle_graph(3))
        assert is_proper(cycle_graph(3), c)
        assert c.num_colors <= 3

    def test_fan_rejects_parallel_edges(self):
        g = Graph(2, [(0, 1), (0, 1)])
        with pytest.raises(ColoringError, match="simple"):
            greedy_fan_coloring(g)

    def test_fan_exhaustive_small(self):
        """Proper and within max_degree + 1 on every connected graph, n <= 5."""
        for n in (2, 3, 4, 5):
            for nn, edges in all_labeled_graphs(n):
                g = Graph(nn, edges)
                c = greedy_fan_coloring(g)
                assert is_proper(g, c)
                assert c.num_colors <= g.max_degree() + 1

    @given(small_graphs(max_vertices=7, max_extra_edges=8))
    @settings(max_examples=60, deadline=None)
    def test_fan_property(self, g):
        c = greedy_fan_coloring(g)
        assert is_proper(g, c)
        assert c.num_colors <= g.max_degree() + 1


class TestBipartiteColoring:
    @pytest.mark.parametrize(
        "g",
        [
            star_graph(5),
            cycle_graph(6),
            grid_graph(3, 4),
            grid_graph(4, 5),
            Graph(6, [(i, j) for i in range(3) for j in range(3, 6)]),  # K_{3,3}
            path_graph(2),
        ],
    )
    def test_exactly_max_degree_colors(self, g):
        c = bipartite_proper_coloring(g)
        assert is_proper(g, c)
        assert c.num_colors == g.max_degree()

    def test_odd_cycle_witness(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (3, 5)])
        with pytest.raises(NotBipartiteError) as info:
            bipartite_proper_coloring(g)
        cyc = info.value.odd_cycle
        assert len(cyc) % 2 == 1 and len(cyc) >= 3
        assert len(set(cyc)) == len(cyc)
        pairs = {(min(a, b), max(a, b)) for a, b in g.edges}
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert (min(a, b), max(a, b)) in pairs

    def test_parallel_edges_ok(self):
        g = Graph(2, [(0, 1), (0, 1), (0, 1)])
        c = bipartite_proper_coloring(g)
        assert is_proper(g, c)
        assert c.num_colors == 3


class TestChromaticIndex:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete_graph(4), 3),
            (complete_graph(5), 5),
            (cycle_graph(5), 3),
            (cycle_graph(6), 2),
            (petersen_graph(), 4),
            (star_graph(4), 4),
            (Graph(3, [(0, 1), (0, 1), (1, 2), (2, 0)]), 4),
        ],
    )
    def test_known_values(self, g, expected):
        k, c = exact_chromatic_index(g)
        assert k == expected
        assert is_proper(g, c)
        assert c.num_colors == k

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExceededError):
            exact_chromatic_index(petersen_graph(), budget=20)

    @given(small_graphs(max_vertices=6, max_extra_edges=5))
    @settings(max_examples=40, deadline=None)
    def test_vizing_window(self, g):
        k, c = exact_chromatic_index(g)
        assert g.max_degree() <= k <= g.max_degree() + 1
        assert is_proper(g, c)


@st.composite
def multigraphs(draw):
    """A multigraph on 2-9 vertices with up to 22 edges, possibly
    disconnected."""
    n = draw(st.integers(2, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), max_size=22)))


class TestChromaticIndexAgainstReference:
    """The pruned search against the plain backtracking it prunes."""

    @given(multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_same_witness_within_the_reference_count(self, g):
        k, c, tried = reference_chromatic_index(g)
        # the prune never tries more assignments than the plain search
        assert exact_chromatic_index(g, budget=tried) == (k, c)

    def test_tight_graph_is_pruned(self):
        # K_{2,3,3,3}: m = 9 * 5 edges on 11 vertices, so every one of
        # the 9 color classes is a near-perfect matching; the plain search
        # tries 399,971 assignments
        g = complete_multipartite_graph((2, 3, 3, 3))
        k, c = exact_chromatic_index(g, budget=100)
        assert k == 9
        assert is_proper(g, c)


def bridged_cubic_graph() -> Graph:
    """3-regular with a bridge: two near-K4 lobes joined at subdividers."""
    edges = []
    for base in (0, 5):
        a, b, c, d, e = range(base, base + 5)
        edges += [(a, c), (a, d), (b, c), (b, d), (c, d), (e, a), (e, b)]
    edges.append((4, 9))
    return Graph(10, edges)


class TestFamilySchemes:
    def test_tree_is_single_color(self):
        assert color_tree(path_graph(6)).colors == (1,) * 5
        assert color_tree(star_graph(4)).colors == (1,) * 4
        with pytest.raises(ColoringError):
            color_tree(cycle_graph(4))

    @pytest.mark.parametrize(
        "g",
        [
            cycle_graph(3),
            cycle_graph(7),
            Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
            Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]),
        ],
    )
    def test_cactus_two_colors(self, g):
        c = color_cactus(g)
        assert c.distinct_colors() == frozenset({1, 2})
        assert_oracle_srd(g, c)

    def test_cactus_rejects_non_cactus(self):
        with pytest.raises(ColoringError):
            color_cactus(path_graph(4))  # no cycle
        with pytest.raises(ColoringError):
            color_cactus(complete_graph(4))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_complete_color_count(self, n):
        g, c = color_complete(n)
        assert g.vertex_count == n
        assert c.num_colors == n - 1
        assert len(c.distinct_colors()) == n - 1
        if n % 2 == 0:
            assert is_proper(g, c)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_complete_is_srd(self, n):
        g, c = color_complete(n)
        assert_oracle_srd(g, c)

    @pytest.mark.parametrize(
        "sizes,expected",
        [
            ((1, 1), 1),
            ((1, 2), 1),
            ((1, 1, 1), 2),
            ((1, 1, 2), 3),
            ((1, 2, 2), 3),
            ((2, 2), 2),
            ((2, 3), 3),
            ((2, 2, 2), 4),
            ((3, 3, 3), 6),
            ((1, 2, 3), 4),
            ((3, 3, 3, 3), 9),
            ((2, 2, 2, 2, 2, 2), 10),
        ],
    )
    def test_multipartite_color_count(self, sizes, expected):
        # one smallest part vertex removed: n - n_2 colors if it was alone,
        # n - n_1 otherwise
        g, c = color_complete_multipartite(sizes)
        n = sum(sizes)
        assert g.vertex_count == n
        assert c.num_colors == expected
        assert len(c.distinct_colors()) == expected

    @pytest.mark.parametrize(
        "sizes", [(1, 1), (1, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2), (2, 3), (2, 2, 2)]
    )
    def test_multipartite_is_srd(self, sizes):
        g, c = color_complete_multipartite(sizes)
        assert_oracle_srd(g, c)

    @staticmethod
    def assert_one_spared_star(g, c, spared, spared_rainbow):
        """Every star but ``spared``'s is rainbow, and for each pair with
        the spared vertex the other vertex's star is a minimum cut."""
        def rainbow(v):
            return len({c[eid] for _, eid in g.adj[v]}) == g.degree(v)

        assert rainbow(spared) == spared_rainbow
        for v in range(g.vertex_count):
            if v != spared:
                assert rainbow(v)
                assert local_edge_connectivity(g, spared, v) == g.degree(v)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_complete_odd_spares_the_last_star(self, n):
        g, c = color_complete(n)
        assert {c[eid] for _, eid in g.adj[n - 1]} == {n - 1}
        self.assert_one_spared_star(g, c, n - 1, spared_rainbow=False)

    @pytest.mark.parametrize(
        "sizes, spared_rainbow",
        [
            ((2, 3, 4), False),
            ((3, 3, 3, 3), True),
            ((2, 2, 2, 2, 2), True),
            ((1, 1, 4, 5), False),
            ((1, 2, 2), False),
        ],
    )
    def test_multipartite_spares_vertex_0s_star(self, sizes, spared_rainbow):
        g, c = color_complete_multipartite(sizes)
        self.assert_one_spared_star(g, c, 0, spared_rainbow)

    def test_tight_multipartite_is_srd(self):
        # built on a 9-edge-coloring of the tight graph K_{2,3,3,3}
        g, c = color_complete_multipartite((3, 3, 3, 3))
        assert is_srd_coloring(g, c).verdict

    def test_multipartite_rejects(self):
        with pytest.raises(ColoringError, match="ascending"):
            color_complete_multipartite((3, 2))
        with pytest.raises(ColoringError):
            color_complete_multipartite((4,))

    @pytest.mark.parametrize(
        "m,n,expected",
        [(1, 2, 1), (1, 9, 1), (2, 2, 2), (2, 3, 3), (2, 7, 3), (3, 4, 3), (3, 3, 3), (4, 4, 4), (4, 6, 4)],
    )
    def test_grid_color_count(self, m, n, expected):
        g, c = color_grid(m, n)
        assert g.vertex_count == m * n
        assert c.num_colors == expected

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 3), (1, 5)])
    def test_grid_is_srd(self, m, n):
        g, c = color_grid(m, n)
        assert_oracle_srd(g, c)

    def test_grid_normalizes_orientation(self):
        g1, c1 = color_grid(5, 2)
        g2, c2 = color_grid(2, 5)
        assert g1 == g2
        assert c1 == c2

    def test_grid_wide_case_is_proper(self):
        g, c = color_grid(4, 5)
        assert is_proper(g, c)
        assert c.num_colors == 4

    def test_grid_too_small(self):
        with pytest.raises(ColoringError):
            color_grid(1, 1)

    @pytest.mark.parametrize(
        "g,chi",
        [
            (cycle_graph(5), 3),
            (complete_graph(4), 3),
            (petersen_graph(), 4),
            (grid_graph(2, 2), 2),
            (cycle_graph(1200), 2),  # deeper than the recursion limit
        ],
    )
    def test_regular_uses_chromatic_index(self, g, chi):
        c = color_regular(g)
        assert is_proper(g, c)
        assert c.num_colors == chi

    def test_regular_is_srd(self):
        for g in (cycle_graph(5), complete_graph(4), petersen_graph()):
            assert_oracle_srd(g, color_regular(g))

    def test_regular_rejects(self):
        with pytest.raises(ColoringError, match="not regular"):
            color_regular(path_graph(3))
        with pytest.raises(ColoringError, match="edge-connected"):
            color_regular(bridged_cubic_graph())

    def test_regular_budget_fallback(self):
        c = color_regular(petersen_graph(), budget=10)
        g = petersen_graph()
        assert is_proper(g, c)
        assert c.num_colors <= 4


def two_k4_bridge2() -> Graph:
    """Two K4 blobs joined by a 2-edge cut: the smallest nontrivial
    pairwise minimum cut has four vertices on each side."""
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
    edges += [(0, 4), (1, 5)]
    return Graph(8, edges)


class TestGeneralUpper:
    def test_two_lobes(self):
        g = two_k4_bridge2()
        c = color_general_upper(g)
        assert c.num_colors == 8  # max(6, 6) + 2 crossing colors
        fast = FastSrdOracle(g.vertex_count, list(g.edges))
        assert fast.is_srd(list(c.colors))

    def test_dispatches_to_tree_and_cactus(self):
        assert color_general_upper(path_graph(5)).num_colors == 1
        assert color_general_upper(cycle_graph(6)).num_colors == 2

    def test_grid_stays_under_edge_count(self):
        g = grid_graph(2, 3)
        c = color_general_upper(g)
        assert c.num_colors <= g.edge_count - 1
        assert_oracle_srd(g, c)

    def test_proper_case_on_k4(self):
        # every minimum cut of K4 is a vertex star, so any proper coloring works
        g = complete_graph(4)
        c = color_general_upper(g)
        assert is_proper(g, c)
        assert_oracle_srd(g, c)

    def test_multigraph_proper_case(self):
        g = Graph(3, [(0, 1), (0, 1), (1, 2), (2, 0)])
        c = color_general_upper(g)
        assert c.num_colors <= g.edge_count - 1
        assert_oracle_srd(g, c)

    def test_too_small(self):
        with pytest.raises(ColoringError):
            color_general_upper(path_graph(2))

    def test_exhaustive_n4(self):
        for n, edges in all_labeled_graphs(4):
            if len(edges) < 2:
                continue
            g = Graph(n, edges)
            c = color_general_upper(g)
            assert c.num_colors <= g.edge_count - 1
            assert_oracle_srd(g, c)

    def test_exhaustive_n5(self):
        """The e - 1 bound construction is srd on every connected graph on
        five vertices (oracle-checked through the subset tables)."""
        for n, edges in all_labeled_graphs(5):
            if len(edges) < 2:
                continue
            g = Graph(n, edges)
            c = color_general_upper(g)
            assert c.num_colors <= g.edge_count - 1
            fast = FastSrdOracle(n, edges)
            assert fast.is_srd(list(c.colors))


@st.composite
def connected_multigraphs(draw):
    """A connected multigraph on 3-7 vertices: a random tree plus up to 8
    more edges, parallel ones allowed."""
    n = draw(st.integers(3, 7))
    vertex = st.integers(0, n - 1)
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    return Graph(n, edges + draw(st.lists(edge, max_size=8)))


def pair_cut_outcomes(g, limit):
    """(this side, reference side), or the error message in place of either."""
    out = []
    for choose in (_min_nontrivial_pair_cut, reference_min_nontrivial_pair_cut):
        try:
            out.append(choose(g, limit))
        except ColoringError as exc:
            out.append(str(exc))
    return tuple(out)


class TestMinNontrivialPairCut:
    """One enumeration per pair picks the cut the reference's λ-ordered
    sweep picks, and refuses exactly when the reference does."""

    LIMITS = (1, 2, 3, 5, 200_000)

    def test_matches_reference_on_five_and_six_vertices(self):
        refused = 0
        for g in (*all_connected_graphs(5), *all_connected_graphs(6)):
            for limit in self.LIMITS:
                got, want = pair_cut_outcomes(g, limit)
                assert got == want, (g, limit)
                refused += isinstance(want, str)
        assert refused > 0

    @given(connected_multigraphs(), st.sampled_from(LIMITS))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_multigraphs(self, g, limit):
        got, want = pair_cut_outcomes(g, limit)
        assert got == want

    def test_refusal_names_the_least_pair_that_could_hold_the_cut(self):
        # on C6 every λ is 2; pairs at distance 1, 2, 3 have 5, 8, 9 cuts
        g = cycle_graph(6)
        with pytest.raises(ColoringError, match=r"pair \(0, 1\) has at least 5 "):
            _min_nontrivial_pair_cut(g, 5)
        # (0, 1) now lists its 5 cuts and finds a nontrivial one of size 2
        with pytest.raises(ColoringError, match=r"pair \(0, 2\) has at least 6 "):
            _min_nontrivial_pair_cut(g, 6)
        # the least cut of the least pair: edges 0 = (0, 1) and 2 = (2, 3)
        assert _min_nontrivial_pair_cut(g, 10) == frozenset({0, 3, 4, 5})


class TestColorByBlocks:
    def test_glue_bowtie(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        glued = color_by_blocks(g, [EdgeColoring((2, 1, 1)), EdgeColoring((2, 1, 1))])
        assert len(glued) == 6
        assert glued.distinct_colors() == frozenset({1, 2})
        assert_oracle_srd(g, glued)

    def test_triangle_with_pendant(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        from srdkit import blocks

        subcolorings = []
        for blk in blocks(g).blocks:
            sub = blk.subgraph.graph
            if sub.edge_count == 1:
                subcolorings.append(EdgeColoring((1,)))
            else:
                subcolorings.append(color_cactus(sub))
        glued = color_by_blocks(g, subcolorings)
        assert_oracle_srd(g, glued)

    def test_wrong_counts(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        with pytest.raises(ColoringError, match="2 blocks"):
            color_by_blocks(g, [EdgeColoring((1, 2, 1))])
        with pytest.raises(ColoringError, match="fit"):
            color_by_blocks(g, [EdgeColoring((1,)), EdgeColoring((1,))])
