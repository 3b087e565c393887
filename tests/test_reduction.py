"""Formula-to-graph reduction: structure, cut recipes and the paired
SAT / rainbow-cut oracles.

The decisive property is equivalence: a rainbow minimum s-t cut exists in
the built instance exactly when the formula is satisfiable, checked with
brute-force SAT on one side and the exhaustive DFS cut search (which
never lists the minimum cuts; the clique has far too many) on the other.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdkit import (
    BudgetExceededError,
    CnfFormula,
    ExtractionError,
    Graph,
    ReductionError,
    SearchStats,
    build_reduction,
    check_equivalence,
    cut_from_assignment,
    extract_assignment,
    find_rainbow_min_cut,
    is_rainbow,
    local_edge_connectivity,
    parse_dimacs_cnf,
    sat_brute_force,
)
from srdkit import connectivity, graph, reduction, verifier

import oracles

from test_acceptance import _exhaustive_family

FIGURE_CLAUSE = CnfFormula(3, ((1, -2, 3),))
UNSAT = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
# all eight sign patterns of (x1, x2, x3): the smallest unsatisfiable 3-CNF
# whose clauses each hold three distinct variables
EIGHT_PATTERNS = CnfFormula(
    3, tuple((a, 2 * b, 3 * c) for a in (1, -1) for b in (1, -1) for c in (1, -1))
)


def random_formula(rng, max_vars=4, max_clauses=3) -> CnfFormula:
    """Random 3-CNF with every variable actually occurring (indices are
    compacted, since the builder rejects unused variables)."""
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = [
        tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3))
        for _ in range(m)
    ]
    used = sorted({abs(lit) for c in clauses for lit in c})
    remap = {v: i + 1 for i, v in enumerate(used)}
    clauses = tuple(
        tuple((1 if lit > 0 else -1) * remap[abs(lit)] for lit in c)
        for c in clauses
    )
    return CnfFormula(len(used), clauses)


class TestParseDimacs:
    def test_single_clause(self):
        phi = parse_dimacs_cnf("p cnf 3 1\n1 -2 3 0")
        assert phi.variable_count == 3
        assert phi.clauses == ((1, -2, 3),)

    def test_comments_and_blank_lines(self):
        text = "c a comment\n\np cnf 2 2\nc more\n1 1 2 0\n-1 -1 -2 0\n"
        phi = parse_dimacs_cnf(text)
        assert phi.num_clauses == 2

    def test_repeated_literal_clause_accepted(self):
        phi = parse_dimacs_cnf("p cnf 1 1\n1 1 1 0")
        assert phi.clauses == ((1, 1, 1),)

    def test_clause_spanning_lines(self):
        phi = parse_dimacs_cnf("p cnf 2 1\n1 -2\n2 0")
        assert phi.clauses == ((1, -2, 2),)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ReductionError):
            parse_dimacs_cnf("p cnf 2 1\n1 -2 0")
        with pytest.raises(ReductionError):
            parse_dimacs_cnf("p cnf 2 1\n1 1 2 2 0")

    def test_header_problems(self):
        with pytest.raises(ReductionError):
            parse_dimacs_cnf("1 2 3 0")  # no header
        with pytest.raises(ReductionError):
            parse_dimacs_cnf("p sat 2 1\n1 1 2 0")
        with pytest.raises(ReductionError):
            parse_dimacs_cnf("p cnf 2 2\n1 1 2 0")  # count mismatch
        with pytest.raises(ReductionError):
            parse_dimacs_cnf("p cnf 2 1\np cnf 2 1\n1 1 2 0")

    def test_trailing_garbage(self):
        with pytest.raises(ReductionError):
            parse_dimacs_cnf("p cnf 2 1\n1 1 2 0\n2")
        with pytest.raises(ReductionError):
            parse_dimacs_cnf("p cnf 2 1\n1 one 2 0")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf 1_0 1\n1 -2 3 0\n", "malformed header"),
            ("p cnf 3 1_0\n1 -2 3 0\n", "malformed header"),
            ("p cnf 10 1\n1_0 -2 3 0\n", "non-integer token '1_0'"),
            ("p cnf 10 1\n1 -1_0 3 0\n", "non-integer token '-1_0'"),
        ],
    )
    def test_rejects_digit_group_underscores(self, text, message):
        # int() reads "1_0" as 10
        with pytest.raises(ReductionError, match=message):
            parse_dimacs_cnf(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf \u0663 1\n1 -2 3 0\n", "malformed header"),
            ("p cnf 3 1\n1 -2 \u0663 0\n", "non-integer token"),
        ],
    )
    def test_rejects_non_ascii_digits(self, text, message):
        # int() reads the Arabic-Indic digit "\u0663" as 3
        with pytest.raises(ReductionError, match=message):
            parse_dimacs_cnf(text)

    def test_out_of_range_literal(self):
        with pytest.raises(ReductionError):
            parse_dimacs_cnf("p cnf 2 1\n1 2 3 0")


class TestCnfFormula:
    def test_occurrences_and_evaluate(self):
        phi = CnfFormula(2, ((1, -2, 1), (2, 2, -1)))
        assert phi.occurrences() == (3, 3)
        assert phi.evaluate((True, True))
        assert phi.evaluate((True, False)) is False  # second clause dies

    def test_validation(self):
        with pytest.raises(ReductionError):
            CnfFormula(0, ((1, 1, 1),))
        with pytest.raises(ReductionError):
            CnfFormula(2, ())
        with pytest.raises(ReductionError):
            CnfFormula(2, ((1, 2),))
        with pytest.raises(ReductionError):
            CnfFormula(2, ((1, 0, 2),))
        with pytest.raises(ReductionError):
            CnfFormula(2, ((1, 3, 2),))


class TestStructure:
    def expected_counts(self, phi):
        n, m = phi.variable_count, phi.num_clauses
        total_occ = sum(phi.occurrences())
        vertices = 2 + 2 * n + 4 * m + 2 * total_occ + (5 * m + 1)
        clique = (6 * m + 2) * (6 * m + 1) // 2
        edges = 4 * total_occ + 9 * m + clique
        return vertices, edges, clique

    def test_figure_instance_counts(self):
        inst = build_reduction(FIGURE_CLAUSE)
        g = inst.graph
        assert g.vertex_count == 24
        assert g.edge_count == 49  # 12 + 9 + C(8,2)
        assert g.degree(inst.s) == 6
        assert g.degree(inst.t) == 7
        assert local_edge_connectivity(g, inst.s, inst.t) == 6
        assert inst.coloring.num_colors == 9  # 8m + 1

    @pytest.mark.parametrize(
        "phi",
        [
            FIGURE_CLAUSE,
            UNSAT,
            CnfFormula(2, ((1, 1, 2), (-1, 2, -2), (1, -2, 1))),
            CnfFormula(4, ((1, 2, 3), (-2, -3, 4))),
        ],
    )
    def test_recounted_invariants(self, phi):
        inst = build_reduction(phi)
        g, m = inst.graph, phi.num_clauses
        vertices, edges, clique = self.expected_counts(phi)
        assert g.vertex_count == vertices
        assert g.edge_count == edges
        assert g.degree(inst.s) == 6 * m
        assert g.degree(inst.t) == 6 * m + 1
        assert local_edge_connectivity(g, inst.s, inst.t) == 6 * m

        # the uniform clique color covers exactly the clique edges
        plain = [col for col, role in inst.color_roles.items() if role == "r_0"]
        assert len(plain) == 1
        assert sum(1 for e in range(g.edge_count)
                   if inst.coloring[e] == plain[0]) == clique

        # every occurrence color classes exactly its four gadget edges
        occ = phi.occurrences()
        r0_roles = [r for r in inst.color_roles.values() if r.startswith("r0[")]
        assert len(r0_roles) == sum(occ) == 3 * m
        for col, role in inst.color_roles.items():
            if role.startswith("r0["):
                size = sum(1 for e in range(g.edge_count)
                           if inst.coloring[e] == col)
                assert size == 4

    def test_role_tables_cover_everything(self):
        inst = build_reduction(FIGURE_CLAUSE)
        assert set(inst.vertex_roles) == set(range(inst.graph.vertex_count))
        assert sorted(inst.color_roles) == list(range(1, 10))
        tags = set(inst.vertex_roles.values())
        assert {"s", "t", "x[1,0]", "x[2,1]", "c[1,0]", "c[1,3]",
                "p[1,1]", "q[3,1]", "y[6]"} <= tags

    def test_unused_variable_rejected(self):
        with pytest.raises(ReductionError):
            build_reduction(CnfFormula(3, ((1, 1, 3),)))  # x2 never occurs

    def test_repeated_literals_make_parallel_edges(self):
        inst = build_reduction(CnfFormula(1, ((1, 1, 1),)))
        assert inst.graph.has_parallel_edges()


class TestCutRecipe:
    @pytest.mark.parametrize(
        "phi",
        [
            FIGURE_CLAUSE,
            CnfFormula(1, ((1, 1, 1),)),
            CnfFormula(2, ((1, 1, 2), (-1, -1, 2))),
            CnfFormula(3, ((1, -2, 3), (-1, 2, -3), (1, 2, 3))),
        ],
    )
    def test_recipe_cut_is_rainbow_minimum(self, phi):
        inst = build_reduction(phi)
        model = sat_brute_force(phi)
        assert model is not None
        cut = cut_from_assignment(inst, model)
        assert len(cut) == 6 * inst.m
        assert is_rainbow(inst.coloring, cut)
        g = inst.graph
        assert oracles.oracle_separates(g.vertex_count, g.edges, cut, inst.s, inst.t)

    def test_recipe_cut_per_gadget_counts(self):
        phi = CnfFormula(3, ((1, -2, 3), (-1, 2, -3)))
        inst = build_reduction(phi)
        model = sat_brute_force(phi)
        cut = cut_from_assignment(inst, model)
        by_role = {}
        for e in cut:
            role = inst.color_roles[inst.coloring[e]]
            by_role.setdefault(role.split("[")[0], []).append(role)
        # one edge per occurrence color, three per clause among r[i,*]
        occ = phi.occurrences()
        assert sorted(by_role["r0"]) == sorted(
            f"r0[{j},{l}]"
            for j in range(1, 4)
            for l in range(1, occ[j - 1] + 1)
        )
        assert len(by_role["r"]) == 3 * phi.num_clauses
        assert "r_0" not in by_role  # clique edges never enter the cut

    def test_recipe_rejects_bad_assignments(self):
        inst = build_reduction(FIGURE_CLAUSE)
        with pytest.raises(ReductionError):
            cut_from_assignment(inst, (False, True, False))  # falsifies clause
        with pytest.raises(ReductionError):
            cut_from_assignment(inst, (True,))


class TestExtraction:
    def test_round_trip_from_recipe(self):
        phi = CnfFormula(3, ((1, -2, 3), (-1, 2, -3)))
        inst = build_reduction(phi)
        for mask in range(8):
            assignment = tuple(bool(mask >> b & 1) for b in range(3))
            if not phi.evaluate(assignment):
                continue
            cut = cut_from_assignment(inst, assignment)
            assert extract_assignment(inst, cut) == assignment

    def test_undecided_variable_defaults_false(self):
        # a legal rainbow minimum cut may leave one variable's both value
        # vertices on the s side by cutting its hub entry and exit instead
        phi = CnfFormula(2, ((1, 1, 2),))
        inst = build_reduction(phi)
        edges = self._edge_lookup(inst)
        cut = frozenset([
            edges[("s", "q[1,1]")],
            edges[("s", "q[1,2]")],
            edges[("x[1,0]", "c[1,0]", "r[1,1]")],
            edges[("x[1,0]", "c[1,0]", "r[1,2]")],
            edges[("x[2,0]", "c[1,0]")],
            edges[("c[1,3]", "x[2,1]")],
        ])
        assert is_rainbow(inst.coloring, cut)
        g = inst.graph
        assert oracles.oracle_separates(g.vertex_count, g.edges, cut, inst.s, inst.t)
        assert extract_assignment(inst, cut) == (True, False)

    @staticmethod
    def _edge_lookup(inst):
        """Map (endpoint role, endpoint role[, color role]) to edge id."""
        table = {}
        for e, (a, b) in enumerate(inst.graph.edges):
            ra, rb = inst.vertex_roles[a], inst.vertex_roles[b]
            color = inst.color_roles[inst.coloring[e]]
            table[(ra, rb)] = e
            table[(rb, ra)] = e
            table[(ra, rb, color)] = e
            table[(rb, ra, color)] = e
        return table

    def test_rejects_wrong_size(self):
        inst = build_reduction(FIGURE_CLAUSE)
        with pytest.raises(ExtractionError):
            extract_assignment(inst, frozenset(range(5)))

    def test_rejects_repeated_color(self):
        inst = build_reduction(FIGURE_CLAUSE)
        # all six s-edges form a minimum cut but sp/sq pairs share colors
        s_edges = frozenset(
            e for e, (a, b) in enumerate(inst.graph.edges)
            if inst.s in (a, b)
        )
        assert len(s_edges) == 6
        with pytest.raises(ExtractionError):
            extract_assignment(inst, s_edges)

    def test_rejects_non_separating_rainbow_set(self):
        inst = build_reduction(FIGURE_CLAUSE)
        model = sat_brute_force(inst.formula)
        cut = sorted(cut_from_assignment(inst, model))
        # swap one cut edge for a clique edge: still rainbow, no longer a cut
        clique_edge = next(
            e for e in range(inst.graph.edge_count)
            if inst.color_roles[inst.coloring[e]] == "r_0"
        )
        broken = frozenset(cut[1:] + [clique_edge])
        with pytest.raises(ExtractionError):
            extract_assignment(inst, broken)


class TestFoundCuts:
    """What the DFS returns is a valid cut with the provable shape:
    each variable contributes all-or-none of its occurrence colors."""

    @pytest.mark.parametrize(
        "phi",
        [
            FIGURE_CLAUSE,
            CnfFormula(1, ((1, 1, 1),)),
            CnfFormula(2, ((1, 1, 2),)),
            CnfFormula(2, ((1, 1, 2), (-1, -1, 2))),
            CnfFormula(3, ((1, 2, 3), (-1, -2, -3))),
        ],
    )
    def test_dfs_cut_shape(self, phi):
        inst = build_reduction(phi)
        cert = find_rainbow_min_cut(inst.graph, inst.coloring, inst.s, inst.t)
        assert cert is not None
        cut = cert.cut
        assert len(cut) == 6 * inst.m
        assert is_rainbow(inst.coloring, cut)
        g = inst.graph
        assert oracles.oracle_separates(g.vertex_count, g.edges, cut, inst.s, inst.t)

        occ = phi.occurrences()
        per_var = {j: 0 for j in range(1, phi.variable_count + 1)}
        for e in cut:
            role = inst.color_roles[inst.coloring[e]]
            if role.startswith("r0["):
                j = int(role[3:-1].split(",")[0])
                per_var[j] += 1
        for j, got in per_var.items():
            assert got in (0, occ[j - 1])

        assignment = extract_assignment(inst, cut)
        assert phi.evaluate(assignment)


class TestSatBruteForce:
    def test_first_model_in_counting_order(self):
        assert sat_brute_force(CnfFormula(1, ((1, 1, 1),))) == (True,)
        assert sat_brute_force(CnfFormula(2, ((1, 2, 2),))) == (True, False)
        assert sat_brute_force(UNSAT) is None

    def test_variable_cap(self):
        clause = tuple([21, 20, 19])
        with pytest.raises(BudgetExceededError):
            sat_brute_force(CnfFormula(21, (clause,) * 21))


class TestEquivalence:
    def test_figure_clause_consistent(self):
        rep = check_equivalence(build_reduction(FIGURE_CLAUSE))
        assert rep.consistent is True
        assert rep.satisfiable and rep.cut_found
        assert FIGURE_CLAUSE.evaluate(rep.assignment)

    def test_unsat_consistent(self):
        rep = check_equivalence(build_reduction(UNSAT))
        assert rep.consistent is True
        assert not rep.satisfiable and not rep.cut_found
        assert rep.assignment is None

    def test_eight_patterns_refuted_within_the_default_budget(self):
        inst = build_reduction(EIGHT_PATTERNS)
        stats = SearchStats()
        real = reduction.find_rainbow_min_cut

        def counted(*args, **kwargs):
            return real(*args, stats=stats, **kwargs)

        with mock.patch.object(reduction, "find_rainbow_min_cut", counted):
            rep = check_equivalence(inst)
        assert (rep.consistent, rep.satisfiable, rep.cut_found) == (True, False, False)
        assert stats.nodes == 58_417

    def test_exhaustive_single_clauses(self):
        # every 3-literal clause over x1..x3 up to renaming and sign flips
        shapes = [
            (1, ((1, 1, 1),)),
            (1, ((1, 1, -1),)),
            (2, ((1, 1, 2),)),
            (2, ((1, 1, -2),)),
            (2, ((1, -1, 2),)),
            (2, ((1, 2, -2),)),
            (3, ((1, 2, 3),)),
            (3, ((1, 2, -3),)),
        ]
        for n, clauses in shapes:
            rep = check_equivalence(build_reduction(CnfFormula(n, clauses)))
            assert rep.consistent is True, clauses

    def test_random_formulas(self):
        rng = random.Random(20260814)
        for _ in range(30):
            phi = random_formula(rng)
            rep = check_equivalence(build_reduction(phi))
            assert rep.consistent is True, phi
            if rep.satisfiable:
                assert phi.evaluate(rep.assignment)

    def test_budget_returns_inconclusive(self):
        rep = check_equivalence(build_reduction(FIGURE_CLAUSE), node_budget=1)
        assert rep.consistent is None
        assert rep.cut_found is None
        assert "states" in rep.detail

    def test_batch_matches_sequential(self):
        rng = random.Random(99)
        formulas = [random_formula(rng) for _ in range(6)]
        seq = [check_equivalence(build_reduction(phi)) for phi in formulas]
        again = [check_equivalence(build_reduction(phi)) for phi in formulas]
        assert seq == again
        assert all(rep.consistent is True for rep in seq)


def six_variable_formula(seed) -> CnfFormula:
    """A 6-variable, 14-clause 3-CNF: ``random.Random(seed)`` draws each
    clause's variables by ``rng.sample(range(1, 7), 3)`` and negates each
    literal unless ``rng.random() < 0.5``.  Its reduction has 225 vertices
    and 3,949 edges."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(14):
        chosen = rng.sample(range(1, 7), 3)
        clauses.append(tuple(j if rng.random() < 0.5 else -j for j in chosen))
    return CnfFormula(6, tuple(clauses))


class TestSixVariableFormulas:
    """The 6-variable, 14-clause reductions of seeds 0 to 3 decide within
    the default budget of ``check_equivalence``."""

    @pytest.mark.parametrize("seed, nodes", [(0, 143), (1, 85), (2, 85), (3, 85)])
    def test_satisfiable_within_the_default_budget(self, seed, nodes):
        phi = six_variable_formula(seed)
        inst = build_reduction(phi)
        assert (inst.graph.vertex_count, inst.graph.edge_count) == (225, 3949)
        rep = check_equivalence(inst)
        assert (rep.consistent, rep.satisfiable, rep.cut_found) == (True, True, True)
        assert phi.evaluate(rep.assignment)
        stats = SearchStats()
        find_rainbow_min_cut(inst.graph, inst.coloring, inst.s, inst.t, stats=stats)
        assert stats.nodes == nodes


@st.composite
def formulas(draw):
    """A 3-CNF formula with 1-3 clauses over up to 4 variables, each of
    which occurs (indices compacted as in ``random_formula``)."""
    n = draw(st.integers(1, 4))
    literal = st.integers(1, n).flatmap(lambda j: st.sampled_from((j, -j)))
    clause = st.tuples(literal, literal, literal)
    clauses = draw(st.lists(clause, min_size=1, max_size=3))
    used = sorted({abs(lit) for c in clauses for lit in c})
    remap = {j: i + 1 for i, j in enumerate(used)}
    return CnfFormula(
        len(used),
        tuple(
            tuple(remap[abs(lit)] * (1 if lit > 0 else -1) for lit in c)
            for c in clauses
        ),
    )


class TestCheckOutcomes:
    """``check_equivalence``, whose walk search stops at the sink side of its
    flow, reports the outcome the path-branching search on all of G gives,
    and every assignment it extracts satisfies its formula.  The acceptance gate checks every
    formula of the exhaustive family for consistency."""

    @settings(max_examples=60, deadline=None)
    @given(formulas())
    def test_random_formulas(self, phi):
        inst = build_reduction(phi)
        rep = check_equivalence(inst)
        want = oracles.reference_find_rainbow_min_cut(
            inst.graph, inst.coloring, inst.s, inst.t
        )
        found = want is not None
        assert (rep.consistent, rep.satisfiable, rep.cut_found) == (True, found, found)
        if found:
            assert phi.evaluate(rep.assignment)

    def test_one_max_flow_per_check(self):
        # build_reduction runs none; the cut search runs one, for λ
        calls = []
        real = verifier._max_flow

        def counted(*args):
            calls.append(args[1:])
            return real(*args)

        with mock.patch.object(connectivity, "_max_flow", counted), mock.patch.object(
            verifier, "_max_flow", counted
        ):
            inst = build_reduction(FIGURE_CLAUSE)
            assert calls == []
            assert check_equivalence(inst).consistent is True
        assert calls == [(inst.s, inst.t)]


class TestCheckWork:
    """The machine-independent work of the reduction check's cut search
    over the 236-formula exhaustive family: DFS states, max flows (one per
    search, for λ) and graph walks, for the walk search and for the
    path-branching reference.  Both are srd searches handed a flow of value
    λ, so a closure test and a Hall test on that one flow decide every
    prune; the walk search picks one edge per flow walk, stops at the sink
    side T0 of its flow and walks no path.  Every walk goes through
    ``graph._walk``, directly or by ``_bfs``, or ``connectivity._walk``:
    the reference DFS's path walks, the closure's walks, T0's walk and the
    flows' own.  Splitting the flow into u-v walks makes no graph walk."""

    @staticmethod
    def _family_work(search):
        calls = {"flow": 0, "walk": 0}

        def counting(kind, real):
            def counted(*args):
                calls[kind] += 1
                return real(*args)

            return counted

        stats = SearchStats()
        with mock.patch.object(
            verifier, "_max_flow", counting("flow", verifier._max_flow)
        ), mock.patch.object(
            oracles, "_max_flow", counting("flow", oracles._max_flow)
        ), mock.patch.object(
            graph, "_walk", counting("walk", graph._walk)
        ), mock.patch.object(
            connectivity, "_walk", counting("walk", connectivity._walk)
        ):
            for phi in _exhaustive_family():
                inst = build_reduction(phi)
                search(inst.graph, inst.coloring, inst.s, inst.t, stats=stats)
        return stats.nodes, calls

    def test_exhaustive_family_counts(self):
        nodes, calls = self._family_work(oracles.reference_find_rainbow_min_cut)
        assert nodes == 93_805
        assert calls == {"flow": 236, "walk": 125_289}

    def test_walk_search_family_counts(self):
        nodes, calls = self._family_work(find_rainbow_min_cut)
        assert nodes == 3_763
        assert calls == {"flow": 236, "walk": 4_881}
