"""Rainbow-cut verification against the independent subset oracles.

The core property: on every small graph and every canonical coloring the
verifier's verdict matches a naive oracle that tries all edge subsets, and
the rainbow-cut DFS respects the fixed-k state bound.
"""

from itertools import product
from math import comb, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srdkit import (
    BudgetExceededError,
    ColoringError,
    EdgeColoring,
    Graph,
    GraphStructureError,
    SearchStats,
    build_reduction,
    color_complete,
    color_general_upper,
    color_grid,
    color_regular,
    complete_graph,
    components,
    cycle_graph,
    enumerate_min_cuts,
    exact_chromatic_index,
    find_rainbow_min_cut,
    is_connected,
    is_rainbow,
    is_rd_coloring,
    is_srd_coloring,
    local_edge_connectivity,
    normalize_colors,
    parse_dimacs_cnf,
    path_graph,
    petersen_graph,
    upper_edge_connectivity,
)

from srdkit import connectivity, verifier
from srdkit.graph import _reached

from oracles import (
    all_labeled_graphs,
    lambda_without,
    oracle_is_rd,
    oracle_is_srd,
    oracle_separates,
    reference_find_rainbow_min_cut,
    reference_rainbow_cut_dfs,
    reference_rainbow_min_cut_by_enumeration,
    reference_verify,
)


@st.composite
def colored_multigraph_pairs(draw, joined=False):
    """A multigraph on 2-8 vertices with up to 16 edges (possibly
    disconnected), 1-4 colors, a vertex pair and an optional node budget.
    With ``joined`` the graph has an edge and the pair lies in one
    component, so λ(u, v) > 0."""
    n = draw(st.integers(2, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=int(joined), max_size=16))
    k = draw(st.integers(1, 4))
    colors = draw(st.lists(st.integers(1, k), min_size=len(edges), max_size=len(edges)))
    if joined:
        part = {x: i for i, comp in enumerate(components(Graph(n, edges))) for x in comp}
        pairs = [(a, b) for a, b in pairs if part[a] == part[b]]
    u, v = draw(st.sampled_from(pairs))
    budget = draw(st.none() | st.integers(1, 40))
    return Graph(n, edges), EdgeColoring(tuple(colors)), u, v, budget


def _any_size_cut(g, c, u, v, stats, lam=None):
    """The rd verifier's search for one pair, capped at the number of
    colors: a rainbow u-v cut of any size, or None after a complete search.
    λ(u, v) is ``lam``, or else comes from one max flow."""
    if lam is None:
        lam = local_edge_connectivity(g, u, v)
    return verifier._rainbow_cut(g, c, u, v, lam, len(c.distinct_colors()), stats)


def _assert_agrees_with_enumeration(g, c, u, v):
    """The DFS finds a rainbow minimum cut exactly when one of the listed
    minimum cuts is rainbow, and its cut is a rainbow u-v cut of λ edges."""
    cert = find_rainbow_min_cut(g, c, u, v)
    want = reference_rainbow_min_cut_by_enumeration(g, c, u, v)
    assert (cert is None) == (want is None), (g, c, u, v)
    if cert is not None:
        assert cert.value == len(cert.cut) == want.value
        assert is_rainbow(c, cert.cut)
        assert oracle_separates(g.vertex_count, g.edges, cert.cut, u, v)


def canonical_colorings(m, max_colors):
    """All color tuples in restricted-growth form (first use of color k
    comes after k-1), covering every coloring up to renaming."""
    out = []

    def rec(prefix, used):
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for c in range(1, min(used + 1, max_colors) + 1):
            rec(prefix + [c], max(used, c))

    rec([], 0)
    return out


class TestIsRainbow:
    def test_basics(self):
        c = EdgeColoring((1, 2, 1))
        assert is_rainbow(c, [])
        assert is_rainbow(c, [0, 1])
        assert not is_rainbow(c, [0, 2])


class TestFindRainbowMinCut:
    def test_triangle_mixed(self):
        g = cycle_graph(3)  # edges (0,1), (1,2), (2,0)
        c = EdgeColoring((1, 2, 2))
        cert = find_rainbow_min_cut(g, c, 0, 1)
        assert cert is not None
        assert cert.value == 2
        assert is_rainbow(c, cert.cut)
        assert oracle_separates(g.vertex_count, g.edges, cert.cut, 0, 1)

    def test_triangle_monochromatic(self):
        g = cycle_graph(3)
        assert find_rainbow_min_cut(g, EdgeColoring((1, 1, 1)), 0, 1) is None

    def test_k4_proper(self):
        g = complete_graph(4)
        _, c = exact_chromatic_index(g)
        for u in range(4):
            for v in range(u + 1, 4):
                cert = find_rainbow_min_cut(g, c, u, v)
                assert cert is not None and cert.value == 3

    def test_same_vertex_rejected(self):
        with pytest.raises(GraphStructureError):
            find_rainbow_min_cut(cycle_graph(3), EdgeColoring((1, 2, 3)), 1, 1)

    def test_parallel_pair(self):
        g = Graph(2, [(0, 1), (0, 1)])
        assert find_rainbow_min_cut(g, EdgeColoring((1, 2)), 0, 1) is not None
        assert find_rainbow_min_cut(g, EdgeColoring((1, 1)), 0, 1) is None

    def test_dfs_agrees_with_enumeration(self):
        for n, edges in all_labeled_graphs(4):
            if not edges:
                continue
            g = Graph(n, edges)
            for colors in canonical_colorings(len(edges), 3)[::5]:
                c = EdgeColoring(colors)
                for u in range(n):
                    for v in range(u + 1, n):
                        _assert_agrees_with_enumeration(g, c, u, v)

    @settings(max_examples=150, deadline=None)
    @given(colored_multigraph_pairs())
    def test_dfs_agrees_with_enumeration_on_multigraphs(self, case):
        g, c, u, v, _ = case
        if local_edge_connectivity(g, u, v) == 0:
            with pytest.raises(GraphStructureError, match="disconnected"):
                find_rainbow_min_cut(g, c, u, v)
        else:
            _assert_agrees_with_enumeration(g, c, u, v)

    def test_threshold_is_not_an_option(self):
        # every srd pair runs the DFS, so there is no strategy to pick:
        # neither by keyword nor in the place the threshold held
        g, c = cycle_graph(3), EdgeColoring((1, 2, 2))
        for call in (
            lambda: find_rainbow_min_cut(g, c, 0, 1, threshold=0),
            lambda: find_rainbow_min_cut(g, c, 0, 1, 0),
            lambda: is_srd_coloring(g, c, threshold=0),
            lambda: is_srd_coloring(g, c, 0),
        ):
            with pytest.raises(TypeError):
                call()

    def test_default_call_runs_the_dfs(self):
        g = cycle_graph(4)
        c = EdgeColoring((1, 2, 1, 2))
        st = SearchStats()
        find_rainbow_min_cut(g, c, 0, 2, stats=st)
        assert st.nodes > 0 and st.enumerated == 0


    def test_long_path_single_color(self):
        g = path_graph(1200)
        cert = find_rainbow_min_cut(g, EdgeColoring((1,) * 1199), 0, 1199)
        assert cert is not None and cert.value == 1 and len(cert.cut) == 1

    def test_deep_search_has_no_recursion_limit(self):
        """λ = 1,100 parallel edges, all colors distinct: the search goes
        1,100 edges deep before it finds the whole bundle."""
        g = Graph(2, [(0, 1)] * 1100)
        c = EdgeColoring(tuple(range(1, 1101)))
        cert = find_rainbow_min_cut(g, c, 0, 1)
        assert cert.value == 1100 and cert.cut == frozenset(range(1100))
        assert _any_size_cut(g, c, 0, 1, SearchStats()) == frozenset(range(1100))


def _three_variable_reduction():
    return build_reduction(
        parse_dimacs_cnf("p cnf 3 4\n1 2 3 0\n-1 -2 -3 0\n1 -2 3 0\n-1 2 -3 0\n")
    )


class TestSearchOrder:
    """DFS node counts and witnesses that pin the order of the search."""

    REDUCTION_WITNESS = [
        0, 4, 8, 12, 16, 20, 24, 28, 34, 38, 42, 46,
        50, 52, 54, 57, 60, 65, 68, 69, 72, 75, 80, 82,
    ]

    def test_reduction_witness_and_nodes(self):
        # the search on all of G, as the reference keeps it
        inst = _three_variable_reduction()
        st = SearchStats()
        cert = reference_find_rainbow_min_cut(
            inst.graph, inst.coloring, inst.s, inst.t, stats=st
        )
        assert st.nodes == 683
        assert sorted(cert.cut) == self.REDUCTION_WITNESS

    def test_kernel_reduction_witness_and_nodes(self):
        # the walk search picks one edge per flow walk from the root, and
        # stops at T0, which holds t, the padding clique and the hubs
        inst = _three_variable_reduction()
        st = SearchStats()
        cert = find_rainbow_min_cut(inst.graph, inst.coloring, inst.s, inst.t, stats=st)
        assert st.nodes == 25
        assert sorted(cert.cut) == self.REDUCTION_WITNESS

    @staticmethod
    def _rd_and_srd(g, c):
        """(verdict, failing pair, DFS nodes) of the reference verifier,
        which runs the DFS for every pair, in rd and in srd mode."""
        out = []
        for mode in ("rd", "srd"):
            st = SearchStats()
            report = reference_verify(g, c, mode, stats=st)
            out.append((report.verdict, report.failing_pair, st.nodes))
        return out

    def test_petersen_three_colors_fail_at_first_pair(self):
        g = petersen_graph()
        c = EdgeColoring(tuple(i % 3 + 1 for i in range(g.edge_count)))
        assert self._rd_and_srd(g, c) == [(False, (0, 5), 43)] * 2

    def test_petersen_general_upper_passes(self):
        g = petersen_graph()
        c = normalize_colors(color_general_upper(g))
        assert c.num_colors == 4
        assert self._rd_and_srd(g, c) == [(True, None, 180)] * 2


def _petersen_three_colors():
    g = petersen_graph()
    return g, EdgeColoring(tuple(i % 3 + 1 for i in range(g.edge_count)))


def _petersen_general_upper():
    g = petersen_graph()
    return g, normalize_colors(color_general_upper(g))


class TestTreeCutsSettlePairs:
    """The verifier's search states and the pairs its cut tree settles,
    pinned on the colorings of ``TestSearchOrder`` and on two
    constructions.  A pair an endpoint's star settles visits no state and
    is not counted as settled."""

    @pytest.mark.parametrize(
        "instance, rd, srd",
        [
            # fails at (0, 5): the tree settles (0, 1) to (0, 4); λ = 3 is
            # the cap in both modes, and the walk search takes 3 states to
            # refute (0, 5)
            (_petersen_three_colors, (False, (0, 5), 3, 4), (False, (0, 5), 3, 4)),
            (_petersen_general_upper, (True, None, 0, 45), (True, None, 0, 45)),
            # srd: an endpoint's star settles each of the other 36 pairs
            (lambda: color_grid(8, 8), (True, None, 4, 2015), (True, None, 0, 1980)),
            (lambda: color_complete(16), (True, None, 0, 120), (True, None, 0, 120)),
        ],
        ids=["petersen-3", "petersen-upper", "grid8x8", "K16"],
    )
    def test_nodes_and_settled_pairs(self, instance, rd, srd):
        g, c = instance()
        for verify, expected in ((is_rd_coloring, rd), (is_srd_coloring, srd)):
            st = SearchStats()
            report = verify(g, c, stats=st)
            assert (report.verdict, report.failing_pair, st.nodes, st.settled) == expected
            assert st.enumerated == 0


def _two_cliques(bridge_color=None):
    """Two K5s, {0..4} and {7..11}, joined through the free vertices 5
    and 6 by the paths 4-5-7 and 3-6-8, and, with ``bridge_color``, by
    the edge (1, 9) as well.  For the pair (0, 11) the forced sides are
    the two K5s, as each is 4-edge-connected and λ is 2 or 3.  The clique
    edges have color 4, the path edges 20..23 colors 1, 1, 2, 2."""
    left = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    right = [(a + 7, b + 7) for a, b in left]
    edges = left + right + [(4, 5), (3, 6), (5, 7), (6, 8)]
    colors = (4,) * 20 + (1, 1, 2, 2)
    if bridge_color is not None:
        edges.append((1, 9))
        colors += (bridge_color,)
    return Graph(12, edges), EdgeColoring(colors)


class TestMinCutKernel:
    """The minimum-cut kernel of a pair's flow: the edges of G that a
    minimum cut can hold, none inside the source side S0 or with its tail
    in the sink side T0.  ``find_rainbow_min_cut`` keeps to it on G itself:
    S0 is the closure's first reach, and every walk's candidates and the
    closure stop at T0.  It must find a rainbow minimum cut exactly when
    the search on all of G does, and every cut it finds must be one of G."""

    @settings(max_examples=300, deadline=None)
    @given(colored_multigraph_pairs())
    def test_same_answer_as_the_uncontracted_search(self, case):
        g, c, u, v, _ = case
        if local_edge_connectivity(g, u, v) == 0:
            # both refuse the pair, naming it in G's vertex ids
            for search in (find_rainbow_min_cut, reference_find_rainbow_min_cut):
                with pytest.raises(
                    GraphStructureError, match=f"^vertices {u} and {v} are disconnected$"
                ):
                    search(g, c, u, v)
            return
        cert = find_rainbow_min_cut(g, c, u, v)
        want = reference_find_rainbow_min_cut(g, c, u, v)
        assert (cert is None) == (want is None), (g, c.colors, u, v)
        if cert is not None:
            assert cert.pair == (u, v)
            assert cert.value == len(cert.cut) == local_edge_connectivity(g, u, v)
            assert is_rainbow(c, cert.cut)
            assert oracle_separates(g.vertex_count, g.edges, cert.cut, u, v)

    def test_sink_side_is_the_far_clique(self):
        g, c = _two_cliques()
        value, residual, tree = connectivity._max_flow(g, 0, 11)
        assert value == 2
        assert connectivity._sink_side(g, 11, residual) == set(range(7, 12))
        assert _reached(tree) == set(range(5))  # S0, the closure's first reach
        # walk 0 leaves S0 over 0-3-6, G's first arcs, so its first candidate
        # 21 is picked first, and then 22, the other walk's one of color 2
        st = SearchStats()
        cert = find_rainbow_min_cut(g, c, 0, 11, stats=st)
        assert (sorted(cert.cut), st.nodes) == ([21, 22], 3)
        ref_st = SearchStats()
        ref = reference_find_rainbow_min_cut(g, c, 0, 11, stats=ref_st)
        assert (sorted(ref.cut), ref_st.nodes) == ([21, 22], 5)

    # with color 2 the Hall test prunes the root: the bridge's walk has
    # only color 2, which leaves the two path walks one color, 1, for both
    @pytest.mark.parametrize(
        "bridge_color, witness, nodes", [(3, [21, 22, 24], 4), (2, None, 1)]
    )
    def test_an_edge_between_the_forced_sides_is_in_every_cut(
        self, bridge_color, witness, nodes
    ):
        # (1, 9) joins S0 to T0, so it is in each of the four minimum cuts,
        # the one candidate of its walk, which enters T0 at once
        g, c = _two_cliques(bridge_color)
        cuts = enumerate_min_cuts(g, 0, 11)
        assert len(cuts) == 4 and all(24 in cert.cut for cert in cuts)
        st = SearchStats()
        cert = find_rainbow_min_cut(g, c, 0, 11, stats=st)
        assert (cert and sorted(cert.cut), st.nodes) == (witness, nodes)
        assert (reference_find_rainbow_min_cut(g, c, 0, 11) is None) == (
            witness is None
        )

    def test_no_edge_out_of_the_sink_side_is_tried(self, monkeypatch):
        # on the reduction T0 holds t, the padding clique and the hubs: the
        # flow walks run on through T0 to t, but no edge that leaves a
        # vertex of T0 is a candidate of the Hall test or offered to the
        # closure
        inst = _three_variable_reduction()
        g, t = inst.graph, inst.t
        value, residual, _ = connectivity._max_flow(g, inst.s, t)
        sink = connectivity._sink_side(g, t, residual)
        assert {x for x, role in inst.vertex_roles.items() if role[0] == "y"} < sink

        def tail(e):  # where e's unit of flow starts
            return g.edges[e][0 if residual[2 * e] == 0 else 1]

        offered = []
        real_add, real_matched = connectivity._CutClosure.add, verifier._walks_matched

        def add(closure, e, undo):
            offered.append(e)
            return real_add(closure, e, undo)

        def matched(cands):
            offered.extend(triple[0] for c in cands if c is not None for triple in c)
            return real_matched(cands)

        monkeypatch.setattr(connectivity._CutClosure, "add", add)
        monkeypatch.setattr(verifier, "_walks_matched", matched)
        assert find_rainbow_min_cut(g, inst.coloring, inst.s, t) is not None
        assert offered and not any(tail(e) in sink for e in offered)
        walks = connectivity._flow_walks(g, inst.s, {t}, residual, value)[0]
        assert any(tail(e) in sink for walk in walks for e, _ in walk)


@pytest.fixture
def flow_calls(monkeypatch):
    """Counts every max flow, whichever module calls it."""
    calls = []
    real = connectivity._max_flow

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(connectivity, "_max_flow", counted)
    monkeypatch.setattr(verifier, "_max_flow", counted)
    return calls


class TestFlowsPerSearch:
    """A pair search runs at most one max flow.  ``find_rainbow_min_cut``
    runs one for λ and hands it to the search; the verifier reads every
    pair's λ off a cut tree of n - 1 flows.  The search is chosen from λ
    and the cap alone: capped at λ, the walk search takes G's flow, handed
    in or its own, and decides every prune by closure and Hall tests on
    it; capped below λ the root is pruned, and capped above λ the path DFS
    runs no flow."""

    def test_enumeration_path_runs_one_flow(self, flow_calls):
        proper = EdgeColoring((1, 2, 3, 3, 2, 1))
        cert = find_rainbow_min_cut(complete_graph(4), proper, 0, 1)
        assert cert is not None and cert.value == 3
        assert len(flow_calls) == 1

    def test_threshold_zero_runs_one_flow(self, flow_calls):
        g = complete_graph(4)
        st = SearchStats()
        c = EdgeColoring((1, 1, 2, 2, 3, 3))
        find_rainbow_min_cut(g, c, 0, 1, stats=st)
        assert st.nodes > 1
        assert len(flow_calls) == 1

    def test_srd_search_repairs_no_flow_where_degrees_settle_every_prune(
        self, flow_calls
    ):
        # K16 with 15 colors: λ = 15 = the degree of every vertex
        st = SearchStats()
        report = is_srd_coloring(*color_complete(16), stats=st)
        assert report.verdict
        assert (st.nodes, st.settled) == (0, 120)  # every pair by a tree cut
        assert len(flow_calls) == 15  # the tree's, for every λ

    def test_srd_verification_of_the_grid(self, flow_calls):
        # 63 tree flows; the tree cuts settle 1,980 of the 2,016 pairs, and
        # an endpoint's star settles each of the other 36
        assert is_srd_coloring(*color_grid(8, 8)).verdict
        assert len(flow_calls) == 63

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_upper_edge_connectivity_runs_one_flow_per_tree_edge(
        self, flow_calls, n
    ):
        assert upper_edge_connectivity(complete_graph(n)) == n - 1
        assert len(flow_calls) == n - 1

    def test_an_end_without_edges_is_a_cut_without_a_walk(self, monkeypatch):
        # handed the flow, the root is a walk search: its one flow walk 0-1-2
        # has both edges as candidates, and the first, {edge 0}, is a cut.
        # The root walks no path toward v: the flow routes 0-1-2 by its
        # scan, so its one pass from 0 to 2 is the one that fails, and the
        # only other walk is T0's, from 2 with no target
        walks = []
        for module in (connectivity, verifier):

            def counted(g, start, capacity, target=None, real=module._bfs, by=module):
                walks.append((by.__name__, start, target))
                return real(g, start, capacity, target)

            monkeypatch.setattr(module, "_bfs", counted)
        st = SearchStats()
        cert = find_rainbow_min_cut(path_graph(3), EdgeColoring((1, 1)), 0, 2, stats=st)
        assert cert.cut == frozenset({0})
        assert st.nodes == 2
        assert walks == [("srdkit.connectivity", 0, 2), ("srdkit.connectivity", 2, None)]

    def test_any_size_search_above_lambda_runs_no_flow(self, flow_calls):
        # λ(0, 3) = 2 in C6 with 3 colors: the path DFS runs
        g = cycle_graph(6)
        st = SearchStats()
        cut = _any_size_cut(g, EdgeColoring((1, 2, 3) * 2), 0, 3, st, lam=2)
        assert cut is not None and oracle_separates(g.vertex_count, g.edges, cut, 0, 3)
        assert st.nodes > 1
        assert flow_calls == []

    def test_any_size_search_runs_one_flow_where_the_root_needs_it(
        self, flow_calls
    ):
        # two K4s joined by two edges, 2 colors: λ(0, 7) = 2 is the cap, so
        # the root is a walk search on G's flow
        left = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        right = [(a + 4, b + 4) for a, b in left]
        g = Graph(8, left + right + [(3, 4), (2, 5)])
        c = EdgeColoring((1, 2) * 6 + (1, 2))
        st = SearchStats()
        cut = _any_size_cut(g, c, 0, 7, st, lam=2)
        assert cut == frozenset({12, 13})
        assert st.nodes > 1
        assert flow_calls == [(0, 7)]

    def test_any_size_search_below_lambda_prunes_the_root(self, flow_calls):
        # K4 in 2 colors: λ = 3 exceeds the cap, so no pair has a rainbow
        # cut.  No tree cut settles (0, 1), and its root is pruned by the
        # tree's λ: λ(G - chosen) ≥ 3 - |chosen| > the room at every state.
        c = EdgeColoring((1, 2, 2, 1, 1, 2))
        st = SearchStats()
        report = is_rd_coloring(complete_graph(4), c, stats=st)
        assert (report.verdict, report.failing_pair) == (False, (0, 1))
        assert (st.nodes, st.settled) == (1, 0)
        # the cut tree's three flows and no other
        assert flow_calls == [(1, 0), (2, 0), (3, 0)]


def _search_outcome(search):
    """(cut or (error type, message), states visited) of one search."""
    stats = SearchStats()
    try:
        result = search(stats)
    except (BudgetExceededError, GraphStructureError) as err:
        result = (type(err), str(err))
    return result, stats.nodes


class TestFlowedSearch:
    """``_rainbow_cut``, which chooses its search once from λ and the cap,
    against the reference DFS that runs a fresh max flow at every state.
    Capped at λ, the walk search runs on G's flow, handed in or its own,
    and answers as the reference does, with a cut, None or the same error,
    though the cut may be another rainbow minimum cut, in at most
    prod(s_i + 1) states.  Capped below λ, the root is pruned, as the
    reference prunes it.  Capped above λ, the path DFS runs no flow and no
    closure, and prunes no state the reference keeps, so it finds the
    reference's cut in no fewer states, and may run out of budget where the
    reference answers."""

    @settings(max_examples=150, deadline=None)
    @given(colored_multigraph_pairs())
    # three parallel edges 0-1 in colors 2, 3 and 4, then 1-2 in color 1:
    # capped at λ + 1 = 2, {0, 1} has no room left, so it is pruned, though
    # {0, 1, 2} is a rainbow cut
    @example(
        (Graph(3, [(0, 1)] * 3 + [(1, 2)]), EdgeColoring((2, 3, 4, 1)), 0, 2, None)
    )
    def test_same_cut_nodes_and_errors_as_fresh_flows(self, case):
        g, c, u, v, budget = case
        calls = {"flow": 0, "closure": 0}

        def counting(kind, real):
            def counted(*args, **kwargs):
                calls[kind] += 1
                return real(*args, **kwargs)

            return counted

        g_flow = connectivity._max_flow(g, u, v)[:2]
        lam = g_flow[0]
        searches = (
            (lam, None),  # srd, flowing on its own
            (lam, g_flow),  # srd, handed G's flow
            (len(c.distinct_colors()), None),  # any size
            (lam + 1, None),  # a cap above λ
            (lam - 1, None),  # a cap below λ
        )
        budget_stop = (
            BudgetExceededError, f"rainbow min-cut search exceeded {budget} states"
        )
        bound = prod(c.colors.count(col) + 1 for col in set(c.colors))
        with mock.patch.object(
            verifier, "_CutClosure", counting("closure", verifier._CutClosure)
        ):
            for cap, flow in searches:

                def search(st, budget=budget):
                    return verifier._rainbow_cut(g, c, u, v, lam, cap, st, budget, flow)

                def reference(st, budget=budget):
                    return reference_rainbow_cut_dfs(g, c, u, v, cap, st, budget)

                calls.update(flow=0, closure=0)
                with mock.patch.object(
                    verifier, "_max_flow", counting("flow", verifier._max_flow)
                ):
                    new = _search_outcome(search)
                assert calls["flow"] <= (1 if flow is None and cap == lam else 0)
                if cap != lam:
                    assert calls["closure"] == 0
                ref = _search_outcome(reference)
                if cap == lam:
                    # either side may run out of budget where the other answers
                    if new[0] == budget_stop:
                        new = _search_outcome(lambda st: search(st, None))
                    if ref[0] == budget_stop:
                        ref = _search_outcome(lambda st: reference(st, None))
                    assert new[1] <= bound
                    if isinstance(ref[0], frozenset):
                        cut = new[0]
                        assert isinstance(cut, frozenset) and len(cut) == lam
                        assert is_rainbow(c, cut)
                        assert oracle_separates(g.vertex_count, g.edges, cut, u, v)
                    else:
                        assert new[0] == ref[0]
                elif cap < lam:
                    assert new == ref
                else:
                    if new[0] != ref[0] and new[0] == budget_stop:
                        new = _search_outcome(lambda st: search(st, None))
                    assert new[0] == ref[0]
                    assert new[1] >= ref[1]

    def test_any_size_search_above_lambda_prunes_only_full_states(self, flow_calls):
        # three parallel edges 0-1, then 1-2: λ(0, 2) = 1 and 2 colors.  The
        # path DFS takes no flow: {0, 2} is pruned as it has no room left
        # and its walk reaches 2, and {1} is found in the fourth state.
        g = Graph(3, [(0, 1), (1, 2), (0, 1), (0, 1)])
        c = EdgeColoring((1, 1, 2, 1))
        with mock.patch.object(verifier, "_CutClosure") as closure:
            new = _search_outcome(lambda st: _any_size_cut(g, c, 0, 2, st, lam=1))
        assert flow_calls == []
        assert not closure.called
        assert new == (frozenset({1}), 4)
        assert new == _search_outcome(
            lambda st: reference_rainbow_cut_dfs(g, c, 0, 2, 2, st)
        )


class TestCutClosure:
    """``_CutClosure``, the test that decides the prunes of a DFS capped at
    λ, against λ of G without the edges from a flow from zero.  R must not
    reach v, which the min-cut walk marks alone and the walk search marks
    with the rest of the sink side T0: the verdicts are the same."""

    @settings(max_examples=300, deadline=None)
    @given(colored_multigraph_pairs(), st.data(), st.booleans())
    def test_verdict_is_whether_the_edges_lower_lambda_by_their_count(
        self, case, data, whole_sink
    ):
        g, _, u, v, _ = case
        subsets = st.lists(st.integers(0, max(g.edge_count - 1, 0)), unique=True)
        if not g.edge_count:
            subsets = st.just([])
        detour, chosen = data.draw(subsets), data.draw(subsets)
        lam, residual, _ = connectivity._max_flow(g, u, v)
        sink = connectivity._sink_side(g, v, residual) if whole_sink else {v}
        closure = connectivity._CutClosure(g, u, sink, residual)
        fresh = (list(closure.reach), list(closure.heads))
        # edges added and taken back, in stack order, leave no trace
        undos = [[] for _ in detour]
        for e, undo in zip(detour, undos):
            closure.add(e, undo)
        for undo in reversed(undos):
            closure.remove(undo)
        assert (closure.reach, closure.heads) == fresh
        verdict = all(closure.add(e, []) for e in chosen)
        assert verdict == (lambda_without(g, u, v, set(chosen)) == lam - len(chosen))


class TestFlowWalks:
    """``_flow_walks`` splits a maximum flow into λ edge-disjoint walks from
    u, each edge taken in the direction of its unit of flow, each walk up
    to its first vertex in the set it is given: v alone, or the sink side
    T0, where the walks to v keep the same edges up to T0."""

    @settings(max_examples=200, deadline=None)
    @given(colored_multigraph_pairs())
    def test_walks_follow_the_flow_from_u_to_v(self, case):
        g, _, u, v, _ = case
        lam, residual, _ = connectivity._max_flow(g, u, v)
        sink = connectivity._sink_side(g, v, residual)
        to_v = connectivity._flow_walks(g, u, {v}, residual, lam)
        to_sink = connectivity._flow_walks(g, u, sink, residual, lam)
        for (walks, walk_of), ends in ((to_v, {v}), (to_sink, sink)):
            assert len(walks) == lam
            for i, walk in enumerate(walks):
                x = u
                for e, head in walk:
                    assert x not in ends
                    assert walk_of[e] == i
                    a, b = g.edges[e]
                    # the flow crosses e from x to head
                    assert (x, head) == ((a, b) if residual[2 * e] == 0 else (b, a))
                    assert residual[2 * e] != 1
                    x = head
                assert x in ends
            assert sum(map(len, walks)) == sum(w != -1 for w in walk_of)
        for walk, prefix in zip(to_v[0], to_sink[0]):
            assert walk[: len(prefix)] == prefix
            assert all(head in sink for _, head in walk[len(prefix) :])


def _hall_prunes(g, c, u, v):
    """The picks of each state of ``find_rainbow_min_cut``'s walk search
    that the Hall test prunes.  The search adds each pick to its
    ``_CutClosure`` and takes it back before the next pick of its state, so
    a spy on the closure keeps the current picks on a stack."""
    pruned, picks = [], []
    real_add, real_remove = connectivity._CutClosure.add, connectivity._CutClosure.remove
    matched = verifier._walks_matched

    def add(closure, e, undo):
        picks.append(e)
        return real_add(closure, e, undo)

    def remove(closure, undo):
        picks.pop()
        real_remove(closure, undo)

    def recording(cands):
        verdict = matched(cands)
        if not verdict:
            pruned.append(frozenset(picks))
        return verdict

    with mock.patch.object(connectivity._CutClosure, "add", add), mock.patch.object(
        connectivity._CutClosure, "remove", remove
    ), mock.patch.object(verifier, "_walks_matched", recording):
        find_rainbow_min_cut(g, c, u, v)
    return pruned


class TestHallPrune:
    """The Hall test of the walk search: the flow walks without a pick need
    distinct unused colors from their edges that are not headed into the
    closure's reach.  It prunes only states below which no rainbow minimum
    cut lies."""

    @settings(max_examples=300, deadline=None)
    @given(colored_multigraph_pairs(joined=True))
    def test_a_pruned_state_has_no_rainbow_minimum_cut(self, case):
        g, c, u, v, _ = case
        cuts = [cert.cut for cert in enumerate_min_cuts(g, u, v)]
        for chosen in _hall_prunes(g, c, u, v):
            assert not any(chosen <= cut and is_rainbow(c, cut) for cut in cuts), chosen

    def test_two_walks_of_one_color_prune_the_root(self):
        # λ(0, 3) = 2 through the parallel edges 0 and 3, both of color 3,
        # beside the pendant edges 1 and 2.  Each walk has a color, but not
        # its own one.
        g = Graph(4, [(0, 3), (0, 1), (2, 3), (0, 3)])
        c = EdgeColoring((3, 1, 2, 3))
        assert _hall_prunes(g, c, 0, 3) == [frozenset()]
        assert _search_outcome(
            lambda st: verifier._rainbow_cut(g, c, 0, 3, 2, 2, st)
        ) == (None, 1)
        assert _search_outcome(
            lambda st: reference_rainbow_cut_dfs(g, c, 0, 3, 2, st)
        ) == (None, 2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.none() | st.lists(st.integers(1, 5), max_size=4), max_size=5
        )
    )
    def test_matching_covers_the_walks_exactly_when_colors_can_be_picked(
        self, palettes
    ):
        # one walk per palette, of one candidate per color; None for a walk
        # with a pick, which needs no color
        cands = [
            None if palette is None else [(0, 0, col) for col in palette]
            for palette in palettes
        ]
        open_palettes = [palette for palette in palettes if palette is not None]
        distinct = any(
            len(set(pick)) == len(pick) for pick in product(*open_palettes)
        )
        assert verifier._walks_matched(cands) == distinct


class TestWalkSearch:
    """``_search_walks``, the search of a pair at its cap λ, from its root on
    G's flow, against brute force over the listed minimum cuts: it returns
    a rainbow minimum cut exactly when one exists, and otherwise None, in
    at most prod(s_i + 1) states."""

    @settings(max_examples=300, deadline=None)
    @given(colored_multigraph_pairs(joined=True))
    def test_a_cut_through_the_state_exactly_when_one_exists(self, case):
        g, c, u, v, _ = case
        lam, residual, _ = connectivity._max_flow(g, u, v)
        cuts = [cert.cut for cert in enumerate_min_cuts(g, u, v)]
        want = [cut for cut in cuts if is_rainbow(c, cut)]
        nodes = [1]  # the root, which the caller counts
        hit = verifier._search_walks(
            g, c.colors, u, v, (lam, residual), lambda: nodes.append(1)
        )
        if want:
            assert hit in want, (g, c.colors, u, v)
        else:
            assert hit is None, (g, c.colors, u, v)
        assert len(nodes) <= prod(c.colors.count(col) + 1 for col in set(c.colors))


class TestReports:
    def test_tree_single_color(self):
        g = path_graph(5)
        report = is_srd_coloring(g, EdgeColoring((1, 1, 1, 1)))
        assert report.verdict
        assert len(report.witnesses) == 10

    def test_c4_construction(self):
        assert is_srd_coloring(cycle_graph(4), EdgeColoring((1, 2, 2, 2))).verdict

    def test_c4_monochromatic_fails_deterministically(self):
        report = is_srd_coloring(cycle_graph(4), EdgeColoring((1, 1, 1, 1)))
        assert not report.verdict
        assert report.failing_pair == (0, 1)

    def test_rd_monochromatic_tree(self):
        assert is_rd_coloring(path_graph(4), EdgeColoring((1, 1, 1))).verdict

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphStructureError):
            is_srd_coloring(g, EdgeColoring((1, 2)))
        with pytest.raises(GraphStructureError):
            is_rd_coloring(g, EdgeColoring((1, 2)))

    def test_disconnected_pair_rejected(self):
        g, c = Graph(4, [(0, 1), (2, 3)]), EdgeColoring((1, 2))
        for search in (
            lambda: find_rainbow_min_cut(g, c, 0, 2),
            lambda: _any_size_cut(g, c, 0, 2, SearchStats()),
        ):
            with pytest.raises(GraphStructureError, match="disconnected"):
                search()

    def test_wrong_length_rejected(self):
        with pytest.raises(ColoringError):
            is_srd_coloring(cycle_graph(3), EdgeColoring((1, 2)))

    def test_witness_soundness(self):
        g = complete_graph(4)
        _, c = exact_chromatic_index(g)
        report = is_srd_coloring(g, c)
        assert report.verdict
        for (u, v), cert in report.witnesses.items():
            assert oracle_separates(g.vertex_count, g.edges, cert.cut, u, v)
            assert is_rainbow(c, cert.cut)
            assert cert.value == len(cert.cut) == local_edge_connectivity(g, u, v)


@st.composite
def colored_connected_multigraphs(draw):
    """A connected multigraph on 2-9 vertices (a random spanning tree plus
    up to 10 extra edges, parallel ones allowed) with 1-4 colors."""
    n = draw(st.integers(2, 9))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=10))
    k = draw(st.integers(1, 4))
    colors = draw(st.lists(st.integers(1, k), min_size=len(edges), max_size=len(edges)))
    return Graph(n, edges), EdgeColoring(tuple(colors))


def _assert_witnesses_are_rainbow_cuts(g, c, report, minimum):
    for (u, v), cert in report.witnesses.items():
        assert cert.pair == (u, v) and cert.value == len(cert.cut)
        separated = oracle_separates(g.vertex_count, g.edges, cert.cut, u, v)
        assert separated, (g.edges, c.colors, u, v)
        assert is_rainbow(c, cert.cut), (g.edges, c.colors, u, v)
        if minimum:
            assert cert.value == local_edge_connectivity(g, u, v)


class TestAgainstPairSearches:
    """``is_srd_coloring`` reads λ off the cut tree and settles most pairs
    with its cuts; one ``find_rainbow_min_cut`` per pair, each with its own
    flow, must give the same failing pair, and where the two witnesses
    differ both must be rainbow minimum cuts."""

    @settings(max_examples=120, deadline=None)
    @given(colored_connected_multigraphs())
    def test_same_report_as_per_pair_searches(self, case):
        g, c = case
        witnesses, failing = {}, None
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                cert = find_rainbow_min_cut(g, c, u, v)
                if cert is None:
                    failing = (u, v)
                    break
                witnesses[(u, v)] = cert
            if failing is not None:
                break
        report = is_srd_coloring(g, c)
        assert report.failing_pair == failing
        assert report.verdict == (failing is None)
        assert report.witnesses.keys() == witnesses.keys()
        _assert_witnesses_are_rainbow_cuts(g, c, report, minimum=True)


class TestAgainstReferenceVerifier:
    """The verifier against ``reference_verify``, which runs the DFS for
    every pair: the same verdict, failing pair and witnessed pairs in both
    modes, and every witness a rainbow cut of the pair, of λ(u, v) edges
    for srd.  A disconnected graph is refused by both."""

    @settings(max_examples=300, deadline=None)
    @given(
        colored_connected_multigraphs()
        | colored_multigraph_pairs().map(lambda case: case[:2])
    )
    def test_same_verdicts_and_failing_pairs(self, case):
        g, c = case
        for verify, mode in ((is_srd_coloring, "srd"), (is_rd_coloring, "rd")):
            if not is_connected(g):
                for check in (lambda: verify(g, c), lambda: reference_verify(g, c, mode)):
                    with pytest.raises(GraphStructureError, match="connected"):
                        check()
                continue
            st = SearchStats()
            report = verify(g, c, stats=st)
            ref = reference_verify(g, c, mode)
            assert (report.verdict, report.failing_pair) == (ref.verdict, ref.failing_pair)
            assert report.witnesses.keys() == ref.witnesses.keys()
            assert st.settled <= len(report.witnesses)
            _assert_witnesses_are_rainbow_cuts(g, c, report, minimum=mode == "srd")


class TestOracleAgreement:
    def test_small_graphs_all_canonical_colorings(self):
        """Verifier == subset oracle on every connected graph with up to 4
        vertices and every canonical coloring with up to 3 colors, for both
        modes; srd implies rd throughout."""
        for n in (2, 3, 4):
            for nn, edges in all_labeled_graphs(n):
                if not edges:
                    continue
                g = Graph(nn, edges)
                for colors in canonical_colorings(len(edges), 3):
                    c = EdgeColoring(colors)
                    srd_report = is_srd_coloring(g, c)
                    rd_report = is_rd_coloring(g, c)
                    expect_srd = oracle_is_srd(nn, edges, list(colors))
                    expect_rd = oracle_is_rd(nn, edges, list(colors))
                    assert srd_report.verdict == expect_srd, (edges, colors)
                    assert rd_report.verdict == expect_rd, (edges, colors)
                    if srd_report.verdict:
                        assert rd_report.verdict


class TestStateBound:
    def test_forced_dfs_respects_class_product(self):
        """With k color classes of sizes s_i, the DFS visits at most
        prod(s_i + 1) states, itself at most sum_{l<=k} C(m, l)."""
        for nn, edges in all_labeled_graphs(4):
            if len(edges) < 3:
                continue
            g = Graph(nn, edges)
            m = len(edges)
            for colors in canonical_colorings(m, 3)[::3]:
                c = EdgeColoring(colors)
                sizes = [colors.count(x) for x in sorted(set(colors))]
                bound = prod(s + 1 for s in sizes)
                subsets = sum(comb(m, l) for l in range(len(sizes) + 1))
                assert bound <= subsets
                for u in range(nn):
                    for v in range(u + 1, nn):
                        st = SearchStats()
                        find_rainbow_min_cut(g, c, u, v, stats=st)
                        assert st.nodes <= bound
                        st = SearchStats()
                        _any_size_cut(g, c, u, v, st)
                        assert st.nodes <= bound


class TestConstructionsVerify:
    def test_petersen_proper_four_coloring(self):
        g = petersen_graph()
        c = color_regular(g)
        assert is_srd_coloring(g, c).verdict

    @pytest.mark.parametrize("m,n", [(3, 4), (3, 5), (4, 4), (4, 5), (2, 6)])
    def test_larger_grids(self, m, n):
        g, c = color_grid(m, n)
        assert is_srd_coloring(g, c).verdict
