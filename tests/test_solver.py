"""Exact solver results against brute-force oracles and frozen values.

The load-bearing properties: the reported value always carries a witness
the verifier accepts, no smaller palette passes the oracle, and the
candidate counter is identical from one run to the next.
"""

import contextlib
import inspect
import itertools
import pickle
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdkit import (
    BudgetExceededError,
    EdgeColoring,
    Graph,
    GraphStructureError,
    all_connected_graphs,
    canonical_colorings,
    complete_graph,
    conjecture_scan,
    cycle_graph,
    edge_connectivity,
    grid_graph,
    is_rd_coloring,
    is_srd_coloring,
    path_graph,
    rd_number,
    srd_by_blocks,
    srd_number,
    star_graph,
    upper_edge_connectivity,
)
from srdkit import connectivity, solver, verifier
from srdkit.cli import run
from srdkit.graph import serialize_graph
from srdkit.solver import DEFAULT_THRESHOLD, _pair_cut_tables, _search_level
from conftest import connected_multigraphs
from oracles import (
    oracle_is_rd,
    oracle_is_srd,
    reference_bond_tables,
    reference_canonical_colorings,
    reference_connected_graphs,
    reference_search_level,
)

BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
K4_PENDANT = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])


@contextlib.contextmanager
def shallow_recursion_limit():
    """Allow only 200 frames beyond the caller's stack."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 200)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def brute_min_colors(g: Graph, oracle) -> int:
    """Smallest palette any coloring achieves, by exhaustive canonical scan."""
    for k in range(1, g.edge_count + 1):
        for c in canonical_colorings(g.edge_count, k):
            if oracle(g.vertex_count, g.edges, tuple(c.colors)):
                return k
    raise AssertionError("all-distinct coloring must have passed")


class TestCanonicalColorings:
    def test_counts(self):
        assert sum(1 for _ in canonical_colorings(3, 3)) == 5
        assert sum(1 for _ in canonical_colorings(4, 2)) == 8
        assert sum(1 for _ in canonical_colorings(3, 1)) == 1
        assert sum(1 for _ in canonical_colorings(1, 4)) == 1

    def test_bell_number_when_k_is_m(self):
        # with k >= m the cap never binds: full Bell numbers
        assert sum(1 for _ in canonical_colorings(4, 4)) == 15
        assert sum(1 for _ in canonical_colorings(5, 5)) == 52

    def test_restricted_growth_shape(self):
        seen = set()
        previous = None
        for c in canonical_colorings(5, 3):
            t = tuple(c.colors)
            assert t not in seen
            seen.add(t)
            if previous is not None:
                assert t > previous  # lexicographic stream
            previous = t
            assert t[0] == 1
            mx = 0
            for x in t:
                assert 1 <= x <= mx + 1  # each new color is the next integer
                mx = max(mx, x)
            assert mx <= 3

    def test_empty_edge_set(self):
        assert [tuple(c.colors) for c in canonical_colorings(0, 2)] == [()]

    def test_same_stream_as_the_recursive_reference(self):
        for m in range(8):
            for k in range(5):
                got = [c.colors for c in canonical_colorings(m, k)]
                want = [c.colors for c in reference_canonical_colorings(m, k)]
                assert got == want, (m, k)

    def test_deeper_than_the_recursion_limit(self):
        with shallow_recursion_limit():
            assert next(canonical_colorings(1100, 1)).colors == (1,) * 1100
            with pytest.raises(RecursionError):
                next(reference_canonical_colorings(1100, 1))


class TestSrdNumber:
    def test_tree_needs_one_color(self):
        tree = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        res = srd_number(tree)
        assert res.value == 1
        assert res.complete
        assert res.colorings_tested == 0  # bounds met, nothing searched
        assert is_srd_coloring(tree, res.witness).verdict

    def test_star(self):
        assert srd_number(star_graph(6)).value == 1

    def test_single_edge(self):
        assert srd_number(path_graph(2)).value == 1

    def test_cycles(self):
        assert srd_number(cycle_graph(4)).value == 2
        assert srd_number(cycle_graph(5)).value == 2

    def test_k4_is_three_with_frozen_count(self):
        res = srd_number(complete_graph(4))
        assert res.value == 3
        assert (res.lower_bound, res.upper_bound) == (3, 4)
        # 85th exactly-three-class string over 6 edges is the first hit;
        # ordering is fixed, so this number is a determinism canary
        assert res.colorings_tested == 85
        assert is_srd_coloring(complete_graph(4), res.witness).verdict

    def test_ladder_middle_rung_forces_three(self):
        # the two middle-column vertices have three edge-disjoint paths,
        # so lambda+ already rules out two colors
        for n in (3, 4):
            g = grid_graph(2, n)
            res = srd_number(g)
            assert res.value == 3
            assert res.lower_bound == 3

    def test_parallel_edges(self):
        double = Graph(2, [(0, 1), (0, 1)])
        assert srd_number(double).value == 2
        tri = Graph(3, [(0, 1), (0, 1), (1, 2), (2, 0)])
        res = srd_number(tri)
        assert res.value == brute_min_colors(tri, oracle_is_srd)
        assert is_srd_coloring(tri, res.witness).verdict

    def test_value_matches_witness_palette(self):
        for g in (cycle_graph(5), complete_graph(4), BOWTIE):
            res = srd_number(g)
            assert res.witness.num_colors == res.value

    def test_budget_gives_bounds_only(self):
        res = srd_number(complete_graph(4), max_edges=3)
        assert res.value is None
        assert res.witness is None
        assert not res.complete
        assert (res.lower_bound, res.upper_bound) == (3, 4)
        assert res.colorings_tested == 0

    def test_tight_bounds_beat_the_budget(self):
        # when lower and upper already agree no search happens, so even a
        # tiny budget cannot stop the solve
        res = srd_number(cycle_graph(5), max_edges=1)
        assert res.value == 2
        assert res.complete

    def test_large_graph_partial(self):
        res = srd_number(complete_graph(6))
        assert res.value is None
        assert not res.complete
        assert res.lower_bound == 5

    def test_rejects_bad_inputs(self):
        with pytest.raises(GraphStructureError):
            srd_number(Graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(GraphStructureError):
            srd_number(Graph(1, []))


class TestRdNumber:
    def test_known_values(self):
        assert rd_number(path_graph(4)).value == 1
        assert rd_number(BOWTIE).value == 2
        assert rd_number(complete_graph(4)).value == 3
        assert rd_number(cycle_graph(5)).value == 2

    def test_witness_verifies(self):
        res = rd_number(BOWTIE)
        assert is_rd_coloring(BOWTIE, res.witness).verdict
        assert res.witness.num_colors == res.value

    def test_never_exceeds_srd(self):
        for g in (cycle_graph(4), complete_graph(4), BOWTIE, grid_graph(2, 3)):
            assert rd_number(g).value <= srd_number(g).value


class TestOracleAgreement:
    def test_exhaustive_on_four_vertices(self):
        for g in all_connected_graphs(4):
            assert srd_number(g).value == brute_min_colors(g, oracle_is_srd)
            assert rd_number(g).value == brute_min_colors(g, oracle_is_rd)

    def test_sampled_on_five_vertices(self):
        graphs = list(all_connected_graphs(5))
        for g in graphs[::4]:
            assert srd_number(g).value == brute_min_colors(g, oracle_is_srd)


class TestSrdByBlocks:
    def test_known_values(self):
        assert srd_by_blocks(K4_PENDANT).value == 3
        assert srd_by_blocks(BOWTIE).value == 2
        assert srd_by_blocks(path_graph(5)).value == 1

    def test_glued_witness_verifies_globally(self):
        res = srd_by_blocks(K4_PENDANT)
        assert res.witness.num_colors == 3
        assert is_srd_coloring(K4_PENDANT, res.witness).verdict

    def test_matches_direct_solve(self):
        for n in (2, 3, 4):
            for g in all_connected_graphs(n):
                assert srd_by_blocks(g).value == srd_number(g).value
        for g in itertools.islice(all_connected_graphs(5), 0, None, 3):
            assert srd_by_blocks(g).value == srd_number(g).value

    def test_partial_block_makes_whole_partial(self):
        res = srd_by_blocks(K4_PENDANT, max_edges=3)
        assert res.value is None
        assert not res.complete
        assert (res.lower_bound, res.upper_bound) == (3, 4)

    def test_edgeless_graph_rejected(self):
        with pytest.raises(GraphStructureError):
            srd_by_blocks(Graph(1, []))


class TestAllConnectedGraphs:
    def test_census(self):
        # connected simple graphs up to isomorphism
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
        for n, count in expected.items():
            assert sum(1 for _ in all_connected_graphs(n)) == count

    def test_members_are_connected_and_simple(self):
        for g in all_connected_graphs(4):
            assert not g.has_parallel_edges()
            assert len(set(g.edges)) == g.edge_count

    def test_deterministic_order(self):
        a = [g.edges for g in all_connected_graphs(4)]
        b = [g.edges for g in all_connected_graphs(4)]
        assert a == b

    @pytest.mark.parametrize("n", range(1, 7))
    def test_same_list_as_the_direct_census(self, n):
        got = [list(g.edges) for g in all_connected_graphs(n)]
        assert got == reference_connected_graphs(n)

    def test_rejects_zero_vertices(self):
        with pytest.raises(GraphStructureError):
            next(all_connected_graphs(0))

    def test_eight_or_more_vertices_is_a_budget_verdict(self, monkeypatch):
        # refused before the n! relabellings and the 2^(n(n-1)/2)-byte marks
        def no_relabellings(*args):
            raise AssertionError("relabellings built past the census cap")

        monkeypatch.setattr(itertools, "permutations", no_relabellings)
        for n in (8, 9):
            with pytest.raises(BudgetExceededError, match="census cap of 7"):
                next(all_connected_graphs(n))


class TestConjectureScan:
    MULTIGRAPHS = [
        Graph(2, [(0, 1), (0, 1), (1, 0)]),
        Graph(3, [(0, 1), (0, 1), (1, 2), (2, 0), (1, 2)]),
        Graph(4, [(0, 1), (1, 2), (1, 2), (2, 3), (3, 0), (0, 2)]),
    ]
    GRAPHS = [
        *(g for n in (2, 3, 4, 5) for g in all_connected_graphs(n)),
        *MULTIGRAPHS,
        K4_PENDANT,
    ]

    def test_small_graphs_all_equal(self):
        graphs = [g for n in (2, 3, 4) for g in all_connected_graphs(n)]
        records = conjecture_scan(graphs)
        assert len(records) == 9
        for rec in records:
            assert rec.equal is True
            assert rec.note == ""
            lam = edge_connectivity(rec.graph)
            lam_plus = upper_edge_connectivity(rec.graph)
            assert lam <= lam_plus <= rec.rd.value
            assert rec.rd.value <= rec.srd.value <= rec.graph.edge_count

    @pytest.mark.parametrize("cap", [DEFAULT_THRESHOLD, 0, 2])
    def test_same_results_as_the_single_mode_solves(self, monkeypatch, cap):
        # one bound stage for both modes gives what two separate solves give,
        # with the per-pair tables and with the per-leaf verifier
        monkeypatch.setattr(solver, "DEFAULT_THRESHOLD", cap)
        for g in self.GRAPHS:
            (rec,) = conjecture_scan([g])
            assert rec.rd == rd_number(g), g
            assert rec.srd == srd_number(g), g

    def test_verifier_path_gives_what_the_tables_give(self, monkeypatch):
        modes = ("rd", "srd")
        tabled = [solver._solve(g, modes, 12) for g in self.GRAPHS]
        monkeypatch.setattr(solver, "DEFAULT_THRESHOLD", 0)
        assert all(_pair_cut_tables(g, mode, {}) is None for g in self.GRAPHS for mode in modes)
        assert [solver._solve(g, modes, 12) for g in self.GRAPHS] == tabled

    @pytest.mark.parametrize("cap", [DEFAULT_THRESHOLD, 0, 1, 2])
    def test_handed_lists_give_what_fresh_tables_give(self, monkeypatch, cap):
        # the construction lists up to 200,000 cuts a pair, a fresh table
        # walk cap + 1: the srd tables, and so the solves, are the same
        monkeypatch.setattr(solver, "DEFAULT_THRESHOLD", cap)
        real = solver._pair_cut_tables
        graphs = [g for n in range(2, 7) for g in all_connected_graphs(n)]
        for g in graphs + self.MULTIGRAPHS:
            cut_lists = {}
            solver._upper_bound_witness(g, cut_lists)
            fresh = real(g, "srd", {})
            assert real(g, "srd", cut_lists) == fresh, g
            if fresh is None:
                continue  # both solves take the verifier path
            handed = solver._solve(g, ("srd",), 12)
            with monkeypatch.context() as patch:
                patch.setattr(
                    solver, "_pair_cut_tables", lambda g, mode, _: real(g, mode, {})
                )
                assert solver._solve(g, ("srd",), 12) == handed, g

    def test_budget_overrun_is_flagged_not_dropped(self):
        records = conjecture_scan([cycle_graph(4), complete_graph(6)])
        assert records[0].equal is True
        assert records[1].equal is None
        assert records[1].note == "budget"


class TestParallelism:
    def test_graph_pickles(self):
        g = Graph(3, [(0, 1), (0, 1), (1, 2)])
        h = pickle.loads(pickle.dumps(g))
        assert (h.vertex_count, h.edges) == (g.vertex_count, g.edges)


class TestDeterminism:
    def test_srd_repeats_its_answer(self):
        first = srd_number(complete_graph(4))
        again = srd_number(complete_graph(4))
        assert first.value == again.value
        assert first.witness == again.witness
        assert first.colorings_tested == again.colorings_tested

    def test_rd_repeats_its_answer(self):
        g = grid_graph(2, 4)
        first = rd_number(g)
        again = rd_number(g)
        assert (first.value, first.colorings_tested) == (
            again.value,
            again.colorings_tested,
        )
        assert first.witness == again.witness

    def test_threshold_is_not_a_solver_option(self):
        # the threshold picks a strategy, never an answer, so the solver
        # takes none: neither by keyword nor as a third argument
        for solve in (srd_number, rd_number, srd_by_blocks, conjecture_scan):
            g = [complete_graph(4)] if solve is conjecture_scan else complete_graph(4)
            with pytest.raises(TypeError):
                solve(g, threshold=0)
            with pytest.raises(TypeError):
                solve(g, 12, 2)


class TestLambdaPlus:
    """The lower bound λ+ comes from the upper-bound verification's
    certificates, with the per-pair cut tables and without them."""

    GRAPHS = [
        *(g for n in (2, 3, 4, 5) for g in all_connected_graphs(n)),
        Graph(2, [(0, 1), (0, 1), (1, 0)]),
        Graph(3, [(0, 1), (0, 1), (1, 2), (2, 0), (1, 2)]),
        BOWTIE,
        K4_PENDANT,
        grid_graph(2, 3),
    ]

    @pytest.mark.parametrize("cap", [DEFAULT_THRESHOLD, 0, 2])
    def test_equals_the_pairwise_maximum(self, monkeypatch, cap):
        # the solver's tables under this cap: at 0 no pair's table fits
        monkeypatch.setattr(solver, "DEFAULT_THRESHOLD", cap)
        for g in self.GRAPHS:
            want = upper_edge_connectivity(g)
            for solve in (srd_number, rd_number):
                assert solve(g).lower_bound == want, g

    def test_all_distinct_fallback(self, monkeypatch):
        # a construction that fails verification leaves the all-distinct
        # coloring, whose certificates then give λ+
        monkeypatch.setattr(
            solver, "_general_upper", lambda g, cut_lists: EdgeColoring((1,) * g.edge_count)
        )
        res = srd_number(complete_graph(4))
        assert (res.value, res.lower_bound, res.upper_bound) == (3, 3, 6)


class TestCutListHandOver:
    """Within the edge budget the construction hands the minimum cuts it
    lists to the srd tables, so each cut-tree edge's cuts are walked once
    per solve, and no other pair's; past the budget no pair's list is
    kept."""

    @staticmethod
    def spy(monkeypatch):
        """(edges, pair) of each min-cut walk."""
        walks = Counter()
        real = connectivity._walk_min_cuts

        def counted(g, s, t, *args):
            walks[(g.edges, (s, t))] += 1
            return real(g, s, t, *args)

        monkeypatch.setattr(connectivity, "_walk_min_cuts", counted)
        return walks

    @staticmethod
    def tree_edges(g):
        """(edges, (s, parent[s])) for each edge of G's cut tree."""
        parent, _ = connectivity._cut_tree(g)
        return [(g.edges, (s, parent[s])) for s in range(1, g.vertex_count)]

    def test_solve_both_on_the_grid_walks_each_tree_edge_once(self, monkeypatch, tmp_path):
        walks = self.spy(monkeypatch)
        g = grid_graph(2, 3)
        path = tmp_path / "grid.txt"
        path.write_text(serialize_graph(g))
        code, text = run(["solve", str(path), "--mode", "both"])
        assert (code, text.splitlines()[2]) == (0, "rd=3 srd=3")
        assert walks == {edge: 1 for edge in self.tree_edges(g)}
        assert sum(walks.values()) == 5

    @pytest.mark.parametrize("max_edges, kept", [(5, False), (6, True)])
    def test_only_within_the_edge_budget(self, monkeypatch, max_edges, kept):
        # K4 has 6 edges, and λ+ = 3 < 4 colors from the construction
        walks = self.spy(monkeypatch)
        handed = []
        real = solver._upper_bound_witness

        def counted(g, cut_lists):
            handed.append(cut_lists)
            return real(g, cut_lists)

        monkeypatch.setattr(solver, "_upper_bound_witness", counted)
        g = complete_graph(4)
        res = srd_number(g, max_edges)
        assert res.complete == kept and (res.lower_bound, res.upper_bound) == (3, 4)
        pairs = list(itertools.combinations(range(4), 2))
        assert walks == {edge: 1 for edge in self.tree_edges(g)}
        assert sum(walks.values()) == 3
        (cut_lists,) = handed
        if kept:
            assert sorted(cut_lists) == pairs
        else:
            assert cut_lists is None

    def test_census_walks_each_tree_edge_at_most_once(self, monkeypatch):
        # 89 of the graphs list their cuts, in the construction or else in
        # the tables, each over its cut tree's 5 edges
        walks = self.spy(monkeypatch)
        flows = []
        real = connectivity._max_flow

        def counted(g, s, t):
            flows.append((s, t))
            return real(g, s, t)

        for module in (connectivity, verifier):
            monkeypatch.setattr(module, "_max_flow", counted)
        conjecture_scan(all_connected_graphs(6), max_edges=11)
        assert sum(walks.values()) == 445
        assert set(walks.values()) == {1}
        # most walks run on their cut tree's own flows; with a fresh flow
        # for each of the 445 walks the census ran 1,494
        assert len(flows) == 1_053


class TestPrunedSearch:
    """Values recorded with the generate-and-test scan that preceded the
    pruned search: both searches count every candidate before the hit."""

    @pytest.mark.parametrize(
        "edges, tested",
        [
            (
                [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3),
                 (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)],
                592_256,
            ),
            (
                [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3),
                 (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)],
                96_325,
            ),
        ],
    )
    def test_six_vertex_counts_in_both_modes(self, edges, tested):
        g = Graph(6, edges)
        for solve, oracle in ((rd_number, oracle_is_rd), (srd_number, oracle_is_srd)):
            res = solve(g)
            assert (res.value, res.colorings_tested, res.complete) == (4, tested, True)
            assert oracle(6, g.edges, res.witness.colors)

    @pytest.mark.parametrize(
        "solve, g", [(srd_number, complete_graph(4)), (rd_number, grid_graph(2, 4))]
    )
    def test_verifier_fallback_matches_tables(self, monkeypatch, solve, g):
        tabled = solve(g)
        monkeypatch.setattr(solver, "DEFAULT_THRESHOLD", 0)
        fallback = solve(g)
        assert (fallback.value, fallback.witness, fallback.colorings_tested) == (
            tabled.value,
            tabled.witness,
            tabled.colorings_tested,
        )

    def test_rd_tables_match_the_set_sweep(self):
        for n in range(2, 7):
            for g in all_connected_graphs(n):
                assert _pair_cut_tables(g, "rd", {}) == reference_bond_tables(g), g

    @settings(max_examples=100, deadline=None)
    @given(connected_multigraphs())
    def test_rd_tables_match_the_set_sweep_on_multigraphs(self, g):
        # parallel edges keep their own ids in each bond
        assert _pair_cut_tables(g, "rd", {}) == reference_bond_tables(g)

    def test_rd_tables_hold_only_bonds(self, monkeypatch):
        # side {0, 2} of the path 0-1-2 is disconnected, so δ({0, 2}) is
        # a cut of pair (0, 2) but not a bond
        g = path_graph(3)
        monkeypatch.setattr(solver, "DEFAULT_THRESHOLD", 4)
        assert _pair_cut_tables(g, "rd", {}) == [[(0,)], [(0,), (1,)], [(1,)]]
        monkeypatch.setattr(solver, "DEFAULT_THRESHOLD", 3)
        assert _pair_cut_tables(g, "rd", {}) is None  # 2^(n-1) sides > 3


class TestDeepSearch:
    """A search deeper than the recursion limit: a triangle with 133
    parallel edges per side and a pendant edge, m = 400."""

    G = Graph(4, [(0, 1)] * 133 + [(1, 2)] * 133 + [(0, 2)] * 133 + [(2, 3)])

    def test_solves_under_a_shallow_recursion_limit(self):
        with shallow_recursion_limit():
            for solve in (srd_number, rd_number):
                res = solve(self.G, max_edges=400)
                assert (res.value, res.lower_bound, res.upper_bound) == (266, 266, 399)
                assert res.complete

    def test_the_recursive_search_would_not(self):
        tables = _pair_cut_tables(self.G, "srd", {})
        with shallow_recursion_limit():
            with pytest.raises(RecursionError):
                reference_search_level(self.G, tables, "srd", 266)


class TestSearchLevelAgainstReference:
    """The explicit-stack level search visits the prefixes of the recursive
    one in the same order: same witness, same count, with and without
    tables, on every level from 1 to the upper bound.  Without tables each
    leaf goes to the verifier, as in the solver.  Level k indexes only the
    table cuts of at most k edges, as no larger cut is rainbow under k
    colors; the reference indexes every table cut."""

    GRAPHS = [
        *all_connected_graphs(5),
        Graph(3, [(0, 1), (0, 1), (1, 2), (2, 0), (1, 2)]),
        K4_PENDANT,
        grid_graph(2, 4),
    ]

    @pytest.mark.parametrize("mode", ["srd", "rd"])
    def test_same_witness_and_count(self, mode):
        for g in self.GRAPHS:
            upper = srd_number(g).upper_bound
            for tables in (_pair_cut_tables(g, mode, {}), None):
                for k in range(1, upper + 1):
                    got = _search_level(g, tables, mode, k)
                    want = reference_search_level(g, tables, mode, k)
                    assert got == want, (g, mode, tables is None, k)

    @pytest.mark.parametrize("mode", ["srd", "rd"])
    def test_every_connected_six_vertex_graph(self, mode):
        for g in all_connected_graphs(6):
            tables = _pair_cut_tables(g, mode, {})
            for k in range(1, srd_number(g).upper_bound + 1):
                got = _search_level(g, tables, mode, k)
                want = reference_search_level(g, tables, mode, k)
                assert got == want, (g, mode, k)

    @given(
        connected_multigraphs(), st.integers(0, 10**6), st.sampled_from(["srd", "rd"])
    )
    @settings(max_examples=40, deadline=None)
    def test_multigraphs_with_parallel_edges(self, g, pick, mode):
        # one more copy of a drawn edge, so some pair is joined twice
        doubled = g.edges[pick % g.edge_count]
        g = Graph(g.vertex_count, [*g.edges, doubled])
        tables = _pair_cut_tables(g, mode, {})
        for k in range(1, srd_number(g).upper_bound + 1):
            got = _search_level(g, tables, mode, k)
            assert got == reference_search_level(g, tables, mode, k), (g, mode, k)

    @pytest.mark.parametrize("mode", ["srd", "rd"])
    def test_a_level_below_lambda_plus_is_refuted_at_the_root(self, mode):
        # every cut of K4 has 3 or 4 edges, so no pair keeps a cut at k = 2:
        # all S(6, 2) = 31 exactly-2 strings count as tested
        g = complete_graph(4)
        tables = _pair_cut_tables(g, mode, {})
        assert _search_level(g, tables, mode, 2) == (None, 31)
        assert reference_search_level(g, tables, mode, 2) == (None, 31)
