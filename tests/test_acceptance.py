"""Acceptance gate: ten end-to-end criteria, one test each.

Every test prints exactly one ``ACCEPTANCE <nn> PASS|FAIL`` line (run with
``-s`` to see the lines for passing tests too) and then asserts.  Criteria
collect all their sub-failures first so the printed line names everything
that went wrong, not just the first assert.

Criterion 2 pins the grid srd-numbers 1 / 2 / 3 / 4.  Its value 3 for
G_{2,n} (n >= 3) rests on the lower bound lambda(u, v) = 3 for an interior
column, which it checks against the independent oracles, not only the solver.
"""

from __future__ import annotations

import random
from itertools import product
from math import comb

import pytest

from srdkit import (
    CnfFormula,
    SearchStats,
    all_connected_graphs,
    blocks,
    build_reduction,
    check_equivalence,
    color_complete,
    color_complete_multipartite,
    color_general_upper,
    color_grid,
    complete_graph,
    complete_multipartite_graph,
    conjecture_scan,
    edge_connectivity,
    exact_chromatic_index,
    find_rainbow_min_cut,
    grid_graph,
    grid_vertex,
    is_cactus_with_cycle,
    is_srd_coloring,
    is_tree,
    local_edge_connectivity,
    petersen_graph,
    srd_by_blocks,
    srd_number,
    upper_edge_connectivity,
)
from srdkit.solver import canonical_colorings

from oracles import FastSrdOracle, oracle_lambda


def _verdict(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    tail = f" — {'; '.join(failures)}" if failures else ""
    print(f"\nACCEPTANCE {num:02d} {status} {name}{tail}")
    assert not failures, f"criterion {num}: {'; '.join(failures)}"


@pytest.fixture(scope="module")
def corpus():
    """Every connected graph on 2..5 vertices, one per isomorphism class."""
    return [g for n in range(2, 6) for g in all_connected_graphs(n)]


@pytest.fixture(scope="module")
def scan_records(corpus):
    return conjecture_scan(corpus)


def test_criterion_01_complete_graphs():
    failures = []
    for n in range(2, 10):
        g, c = color_complete(n)
        if c.num_colors != n - 1:
            failures.append(f"K_{n} construction used {c.num_colors} colors")
        elif not is_srd_coloring(g, c).verdict:
            failures.append(f"K_{n} construction failed verification")
    res = srd_number(complete_graph(4))
    if res.value != 3:
        failures.append(f"exhaustive srd(K_4) = {res.value}, want 3")
    _verdict(1, "complete graphs: n-1 colors for n=2..9, srd(K_4)=3", failures)


def test_criterion_02_grids():
    # G_{2,2} is the 4-cycle, a cactus with a cycle, so it takes 2 colors.
    # In G_{2,n} (n >= 3) the two vertices of an interior column are joined
    # by three edge-disjoint paths, so lambda(u, v) = 3, and a rainbow cut of
    # size exactly 3 needs three distinct colors: srd(G_{2,n}) >= 3.  The
    # bound is checked below with the brute-force oracles, independently of
    # the solver.
    failures = []
    cases = (
        [((1, 5), 1), ((2, 2), 2)]
        + [((2, n), 3) for n in range(3, 7)]
        + [((3, n), 3) for n in range(4, 7)]
        + [((4, 4), 4)]
    )
    for (rows, cols), want in cases:
        g, c = color_grid(rows, cols)
        if not is_srd_coloring(g, c).verdict:
            failures.append(f"G_{{{rows},{cols}}} construction failed verification")
        if c.num_colors != want:
            failures.append(
                f"G_{{{rows},{cols}}} used {c.num_colors} colors, want {want}"
            )
    g = grid_graph(2, 3)
    n, edges = g.vertex_count, list(g.edges)
    top, bottom = grid_vertex(2, 3, 0, 1), grid_vertex(2, 3, 1, 1)
    lam = oracle_lambda(n, edges, top, bottom)
    if lam != 3:
        failures.append(f"oracle lambda(middle column of G_{{2,3}}) = {lam}, want 3")
    oracle = FastSrdOracle(n, edges)
    accepted = sum(
        oracle.is_srd(colors) for colors in product((1, 2), repeat=len(edges))
    )
    if accepted:
        failures.append(f"oracle accepts {accepted} two-colorings of G_{{2,3}}")
    res = srd_number(g)
    if res.value != 3:
        failures.append(f"exhaustive srd(G_{{2,3}}) = {res.value}, want 3")
    _verdict(2, "grids: counts 1/2/3/4 and srd(G_{2,3})=3", failures)


def test_criterion_03_complete_multipartite():
    failures = []
    for sizes, want in [((1, 2, 2), 3), ((2, 2, 2), 4)]:
        g, c = color_complete_multipartite(sizes)
        if not is_srd_coloring(g, c).verdict:
            failures.append(f"K_{sizes} construction failed verification")
        if c.num_colors != want:
            failures.append(f"K_{sizes} used {c.num_colors} colors, want {want}")
    res = srd_number(complete_multipartite_graph((1, 1, 2)))
    if res.value != 3:
        failures.append(f"exhaustive srd(K_(1,1,2)) = {res.value}, want 3")
    _verdict(3, "complete multipartite: 3 and 4 colors, srd(K_(1,1,2))=3", failures)


def test_criterion_04_block_decomposition():
    failures = []
    with_cut_vertex = [
        g for g in all_connected_graphs(5) if blocks(g).cut_vertices
    ]
    if len(with_cut_vertex) < 10:
        failures.append(f"only {len(with_cut_vertex)} cut-vertex graphs found")
    for g in with_cut_vertex:
        per_block = srd_by_blocks(g)
        direct = srd_number(g)
        if per_block.value != direct.value:
            failures.append(
                f"{g.edges}: by-blocks {per_block.value} != direct {direct.value}"
            )
        elif not is_srd_coloring(g, per_block.witness).verdict:
            failures.append(f"{g.edges}: glued block witness failed verification")
    _verdict(
        4,
        f"srd equals the block maximum on all {len(with_cut_vertex)} "
        "cut-vertex graphs with 5 vertices",
        failures,
    )


def test_criterion_05_bounds_chain(corpus, scan_records):
    failures = []
    for rec in scan_records:
        g = rec.graph
        lam = edge_connectivity(g)
        lam_plus = upper_edge_connectivity(g)
        rd, srd = rec.rd.value, rec.srd.value
        e = g.edge_count
        if not (lam <= lam_plus <= rd <= srd <= e):
            failures.append(
                f"{g.edges}: chain {lam} <= {lam_plus} <= {rd} <= {srd} <= {e} broken"
            )
        is_p2 = g.vertex_count == 2 and e == 1
        if is_p2 and srd != e:
            failures.append("srd(P_2) != 1")
        if not is_p2 and srd > e - 1:
            failures.append(f"{g.edges}: srd = {srd} exceeds e-1 = {e - 1}")
    # the e-1 witness is defined exactly on the "otherwise" side of the
    # dichotomy: P_2 (the only n=2 graph here) has srd = e, so no such
    # coloring can exist for it
    for g in corpus:
        if g.vertex_count < 3:
            continue
        c = color_general_upper(g)
        if not is_srd_coloring(g, c).verdict:
            failures.append(f"{g.edges}: general upper witness failed")
        elif c.num_colors > g.edge_count - 1:
            failures.append(f"{g.edges}: upper witness used {c.num_colors} colors")
    _verdict(
        5,
        "lambda <= lambda+ <= rd <= srd <= e on all 30 graphs; "
        "srd=e only for P_2; e-1 upper construction verifies",
        failures,
    )


def test_criterion_06_characterizations(scan_records):
    failures = []
    for rec in scan_records:
        g, rd, srd = rec.graph, rec.rd.value, rec.srd.value
        if (srd == 1) != is_tree(g):
            failures.append(f"{g.edges}: srd={srd} vs is_tree={is_tree(g)}")
        if (srd == 2) != is_cactus_with_cycle(g):
            failures.append(
                f"{g.edges}: srd={srd} vs cactus-with-cycle={is_cactus_with_cycle(g)}"
            )
        for k in (1, 2):
            if (rd == k) != (srd == k):
                failures.append(f"{g.edges}: rd={rd} but srd={srd} at k={k}")
    _verdict(
        6,
        "srd=1 exactly on trees, srd=2 exactly on cactus-with-cycle, "
        "rd=k iff srd=k for k in {1,2}",
        failures,
    )


def test_criterion_07_conjecture_scan(scan_records):
    # conjecture_scan re-verifies both witnesses before it will flag any
    # inequality, so a "counterexample-candidate" here is double-checked.
    failures = []
    for rec in scan_records:
        if rec.equal is not True:
            failures.append(f"{rec.graph.edges}: rd={rec.rd.value} "
                            f"srd={rec.srd.value} note={rec.note!r}")
    _verdict(
        7,
        f"rd = srd on all {len(scan_records)} connected graphs with <= 5 "
        "vertices (no counterexample found)",
        failures,
    )


def test_criterion_08_regular_graphs():
    failures = []
    petersen = petersen_graph()
    chi, proper = exact_chromatic_index(petersen)
    if chi != 4:
        failures.append(f"chi'(Petersen) = {chi}, want 4")
    if not is_srd_coloring(petersen, proper).verdict:
        failures.append("proper 4-coloring of Petersen is not an srd-coloring")
    k4 = complete_graph(4)
    chi4, _ = exact_chromatic_index(k4)
    srd4 = srd_number(k4).value
    if not (srd4 == chi4 == 3):
        failures.append(f"K_4: srd={srd4}, chi'={chi4}, want both 3")
    _verdict(
        8,
        "chi'(Petersen)=4 and the proper coloring is srd; K_4 has srd=chi'=3",
        failures,
    )


def test_criterion_08_slow_petersen_three_color_refutation():
    """No 3-coloring of the Petersen graph's 15 edges is an srd-coloring.

    The solver's lower bound is 3 (= lambda+), so it exhausts every
    canonical 3-class coloring — all Stirling S(15,3) = 2,375,101 of them
    — before settling on the verified 4-color witness.
    """
    res = srd_number(petersen_graph(), max_edges=15)
    failures = []
    if res.value != 4:
        failures.append(f"srd(Petersen) = {res.value}, want 4")
    if res.colorings_tested != 2_375_101:
        failures.append(
            f"tested {res.colorings_tested} colorings, want the full "
            "3-class level of 2375101"
        )
    if not res.complete:
        failures.append("search did not complete")
    _verdict(8, "slow: exhaustive 3-color refutation for Petersen", failures)


def _canonical_form(clauses):
    """Sort literals and clauses, rename variables by first appearance,
    and flip signs so each variable's first occurrence is positive."""
    cl = sorted(tuple(sorted(c, key=lambda l: (abs(l), l < 0))) for c in clauses)
    order, flip = {}, {}
    for clause in cl:
        for lit in clause:
            v = abs(lit)
            if v not in order:
                order[v] = len(order) + 1
                flip[v] = 1 if lit > 0 else -1
    out = sorted(
        tuple(sorted(flip[abs(l)] * (1 if l > 0 else -1) * order[abs(l)] for l in c))
        for c in cl
    )
    return len(order), tuple(out)


def _exhaustive_family():
    """All 3-clause formulas with <= 3 variables and <= 2 clauses, up to
    variable renaming, sign flips, and literal/clause order."""
    lits = [l for v in (1, 2, 3) for l in (v, -v)]
    raw = list(product(lits, repeat=3))
    family = {_canonical_form([c]) for c in raw}
    family.update(_canonical_form([c1, c2]) for c1 in raw for c2 in raw)
    return [CnfFormula(n, cls) for n, cls in sorted(family)]


def _random_formula(rng, max_vars, max_clauses):
    n = rng.randint(1, max_vars)
    clauses = [
        tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3))
        for _ in range(rng.randint(1, max_clauses))
    ]
    used = sorted({abs(l) for c in clauses for l in c})
    remap = {v: i + 1 for i, v in enumerate(used)}
    clauses = tuple(
        tuple((1 if l > 0 else -1) * remap[abs(l)] for l in c) for c in clauses
    )
    return CnfFormula(len(used), clauses)


def _instance_invariant_failures(phi):
    inst = build_reduction(phi)
    m = phi.num_clauses
    out = []
    if inst.graph.degree(inst.s) != 6 * m:
        out.append(f"{phi.clauses}: deg(s) = {inst.graph.degree(inst.s)}")
    clique = [
        v
        for v, role in inst.vertex_roles.items()
        if role == "t"
        or role.startswith("y[")
        or (role.startswith("c[") and role.endswith(",0]"))
    ]
    if len(clique) != 6 * m + 2:
        out.append(f"{phi.clauses}: clique has {len(clique)} vertices")
    if local_edge_connectivity(inst.graph, inst.s, inst.t) != 6 * m:
        out.append(f"{phi.clauses}: lambda(s,t) != {6 * m}")
    return out


def test_criterion_09_reduction_equivalence():
    failures = []
    family = _exhaustive_family()
    if len(family) != 236:
        failures.append(f"exhaustive family has {len(family)} formulas, want 236")
    rng = random.Random(20260814)
    randoms = [_random_formula(rng, 4, 3) for _ in range(100)]
    for phi in family + randoms:
        failures.extend(_instance_invariant_failures(phi))
    for phi in family:
        rep = check_equivalence(build_reduction(phi))
        if rep.consistent is not True:
            failures.append(f"exhaustive {phi.clauses}: {rep.detail}")
    for phi in randoms:
        rep = check_equivalence(build_reduction(phi))
        if rep.consistent is not True:
            failures.append(f"random {phi.clauses}: {rep.detail}")
    _verdict(
        9,
        "reduction invariants hold and SAT <=> rainbow min cut on 236 "
        "exhaustive + 100 random formulas",
        failures,
    )


def test_criterion_10_verifier_oracle_equivalence(corpus):
    failures = []
    compared = 0
    for g in corpus:
        n, m = g.vertex_count, g.edge_count
        oracle = FastSrdOracle(n, list(g.edges))
        for c in canonical_colorings(m, 3):
            compared += 1
            fast = is_srd_coloring(g, c).verdict
            naive = oracle.is_srd(c.colors)
            if fast != naive:
                failures.append(f"{g.edges} {c.colors}: verifier {fast} naive {naive}")
                break
            bound = sum(comb(m, l) for l in range(c.num_colors + 1))
            for u in range(n):
                for v in range(u + 1, n):
                    stats = SearchStats()
                    find_rainbow_min_cut(g, c, u, v, stats=stats)
                    if stats.nodes > bound:
                        failures.append(
                            f"{g.edges} {c.colors} pair ({u},{v}): "
                            f"{stats.nodes} states > bound {bound}"
                        )
    _verdict(
        10,
        f"verifier matches the all-subsets oracle on {compared} "
        "(graph, coloring) pairs and respects the state bound",
        failures,
    )
