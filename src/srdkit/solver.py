"""Exact srd and rd numbers by canonical-coloring search between sound
bounds, plus block-accelerated solving and the rd-vs-srd scan.

The search ascends k from the upper local connectivity λ+ (no coloring
with fewer classes can work) toward a verified constructive upper bound,
trying one representative per color-permutation orbit at each level; the
first hit is therefore optimal.  One pruned search serves srd and rd, on
per-pair cut tables when those are small and the full verifier otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .colorings import EdgeColoring, _general_upper, color_by_blocks, normalize_colors
from .connectivity import _all_min_cuts
from .errors import BudgetExceededError, ColoringError, GraphStructureError
from .graph import Graph, _open_arcs, _walk, blocks, is_connected
from .verifier import (
    _cut_tree_with_cuts,
    _verify_pairs,
    is_rd_coloring,
    is_srd_coloring,
)

DEFAULT_MAX_EDGES = 12
DEFAULT_THRESHOLD = 10_000  # the most cuts a pair's table may hold


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact search.

    ``value``/``witness`` are None when the edge budget stopped the search;
    the bounds are always valid.  ``colorings_tested`` counts candidates as
    a sequential scan would, pruned ones included.
    """

    value: int | None
    witness: EdgeColoring | None
    colorings_tested: int
    lower_bound: int
    upper_bound: int
    complete: bool


def canonical_colorings(m: int, k: int):
    """All colorings of m edges with at most k classes, one per
    color-renaming orbit: restricted-growth strings, lexicographic."""
    colors = [0] * m
    high = [0] * (m + 1)  # high[p]: the largest color among colors[:p]
    p = 0
    while p >= 0:
        if p == m:
            yield EdgeColoring(tuple(colors))
            p -= 1
            continue
        c = colors[p] + 1
        if c > min(high[p] + 1, k):
            colors[p] = 0
            p -= 1
            continue
        colors[p] = c
        high[p + 1] = max(high[p], c)
        p += 1


def _pair_cut_tables(g: Graph, mode: str, cut_lists):
    """Each pair's cuts (sorted EdgeId tuples) one rainbow member of which
    settles it, or None when a pair has more than ``DEFAULT_THRESHOLD``:
    minimum cuts for srd; for rd the bonds δ(S) with G[S] and G[V∖S]
    connected, enough as every cut contains one.  Bonds come from the
    2^(n-1) sides S that hold vertex 0, as vertex bitmasks, done only when
    that many fit in the cap: δ(S) is a bond when the walks from 0 and
    from the least vertex outside S, in G less δ(S), reach all n vertices.

    The srd tables take a pair's minimum cuts from ``cut_lists``, the
    sorted EdgeId tuples the construction listed ({(u, v): cuts}, u < v).
    When it lacks a pair, one ``_all_min_cuts`` lists them all afresh,
    walking the cut tree's n - 1 pairs on the tree's own flows.  The
    construction's lists ran to a larger limit, so they give the same
    tables: a pair with at most ``DEFAULT_THRESHOLD`` cuts is listed whole
    either way, and one with more overflows either way.

    The tables hold cuts of every size; ``_search_level`` keeps, at level
    k, those of at most k edges, the only ones k colors can make rainbow.
    That drops most rd bonds at low levels, and no srd cut at the levels
    ``_solve`` asks: a minimum cut has λ(u, v) ≤ λ+ ≤ k edges."""
    n = g.vertex_count
    pairs = list(itertools.combinations(range(n), 2))
    if mode == "srd":
        if any(pair not in cut_lists for pair in pairs):
            fresh = _all_min_cuts(g, DEFAULT_THRESHOLD + 1)
            cut_lists = {pair: cuts for pair, (_, cuts) in fresh.items()}
        tables = [tuple(cut_lists[pair]) for pair in pairs]
        return None if any(len(cuts) > DEFAULT_THRESHOLD for cuts in tables) else tables
    if 2 ** (n - 1) > DEFAULT_THRESHOLD:
        return None
    tables = [[] for _ in pairs]
    for bits in range(2 ** (n - 1) - 1):
        side = bits << 1 | 1  # the vertex bitmask of S, 0 included
        cut = tuple([e for e, (a, b) in enumerate(g.edges) if (side >> a ^ side >> b) & 1])
        other = (~side & side + 1).bit_length() - 1  # the least vertex outside S
        capacity, tree = _open_arcs(g, cut), [None] * n
        if len(_walk(g, tree, 0, capacity)) + len(_walk(g, tree, other, capacity)) == n:
            for i, (u, v) in enumerate(pairs):
                if (side >> u ^ side >> v) & 1:
                    tables[i].append(cut)
    return tables


def _search_level(g, tables, mode, k):
    """First canonical exactly-k coloring that passes, and the candidates a
    sequential scan would have consumed.  A DFS over restricted-growth
    prefixes kills a cut once two of its edges share a color and skips a
    prefix leaving some pair no live cut, counting its exactly-k completions
    as tested; without tables each leaf goes to the verifier.

    Only table cuts of at most k edges are indexed: k colors make no larger
    cut rainbow, so no leaf passes through one, and a pair left without a
    small cut refutes the level at the root.  A prefix the smaller index
    prunes earlier holds no passing leaf, and its exactly-k completions are
    what the scan would have consumed, so the witness and the count stay
    those of the search over all table cuts."""
    m = g.edge_count
    ways = [[0] * (k + 2) for _ in range(m + 1)]  # [r][mx]: completions to k
    ways[0][k] = 1
    for r in range(1, m + 1):
        for mx in range(k + 1):
            ways[r][mx] = mx * ways[r - 1][mx] + ways[r - 1][mx + 1]
    cut_pairs: dict = {}  # cut of at most k edges -> indices of its pairs
    alive = [0] * len(tables or ())
    for i, cuts in enumerate(tables or ()):
        for cut in cuts:
            if len(cut) <= k:
                cut_pairs.setdefault(cut, []).append(i)
                alive[i] += 1
    if 0 in alive:
        return None, ways[m][0]  # a pair has no cut k colors can make rainbow
    touching = [[] for _ in range(m)]  # edge -> (cut id, pairs) of its cuts
    for cid, (cut, pairs) in enumerate(cut_pairs.items()):
        for e in cut:
            touching[e].append((cid, pairs))
    dead = [False] * len(cut_pairs)
    used = [0] * len(cut_pairs)  # cut -> bitmask of its assigned edges' colors
    colors = [0] * m
    tested = 0

    # the verifier's cut tree depends on G alone: one serves every leaf
    tree = _cut_tree_with_cuts(g) if tables is None else None

    def verified() -> bool:
        c = EdgeColoring(tuple(colors))
        return _verify_pairs(g, c, mode == "srd", None, tree).verdict

    # Restricted-growth prefixes on an explicit stack, as in
    # canonical_colorings.  colors[p] sets its bit in each live cut through p
    # (marked[p]) or kills the cut if the bit is set already (killed[p]);
    # both are undone before the next color is tried at p.  A dead cut takes
    # no marks, so it revives with the marks of the edges before its killer.
    high = [0] * (m + 1)
    killed = [()] * m
    marked = [()] * m
    p = 0
    while p >= 0:
        bit = 1 << colors[p]
        for cid in marked[p]:
            used[cid] ^= bit
        for cid, pairs in killed[p]:
            dead[cid] = False
            for i in pairs:
                alive[i] += 1
        killed[p] = marked[p] = ()
        c = colors[p] + 1
        if c > min(high[p] + 1, k):
            colors[p] = 0
            p -= 1
            continue
        colors[p] = c
        top = max(high[p], c)
        if k - top > m - p - 1:
            continue  # not enough positions left to reach k classes
        bit = 1 << c
        kills, marks = [], []
        for cid, pairs in touching[p]:
            if dead[cid]:
                continue
            if used[cid] & bit:
                dead[cid] = True
                for i in pairs:
                    alive[i] -= 1
                kills.append((cid, pairs))
            else:
                used[cid] |= bit
                marks.append(cid)
        killed[p], marked[p] = kills, marks
        if kills and 0 in alive:
            tested += ways[m - p - 1][top]
        elif p + 1 < m:
            high[p + 1] = top
            p += 1
        else:
            tested += 1
            if tables is not None or verified():
                return EdgeColoring(tuple(colors)), tested
    return None, tested


def _upper_bound_witness(g: Graph, cut_lists) -> tuple[EdgeColoring, int]:
    """A verified rainbow-min-cut coloring, preferring the constructive
    e-1 scheme and falling back to all-distinct colors (always valid), and
    λ+(G), read off the verification: each pair's witness has λ(u, v) edges.
    The construction keeps the minimum cuts it lists in ``cut_lists``, as
    sorted EdgeId tuples keyed by pair, when that is a dict."""
    report = None
    if g.vertex_count >= 3:
        try:
            cand = normalize_colors(_general_upper(g, cut_lists))
            report = is_srd_coloring(g, cand)
        except ColoringError:
            pass
    if report is None or not report.verdict:
        cand = EdgeColoring(tuple(range(1, g.edge_count + 1)))
        report = is_srd_coloring(g, cand)
        assert report.verdict, "all-distinct colors failed verification"
    return cand, max(cert.value for cert in report.witnesses.values())


def _solve(g, modes, max_edges) -> dict:
    """{mode: SolveResult} for each of ``modes`` ("srd", "rd").  The bound
    stage (the verified upper witness and λ+) runs once for all of them.
    Within the edge budget the construction hands the minimum cuts it lists
    to the srd tables, so each cut-tree edge's cuts are walked once per
    solve; past it no pair's list is kept, as the search does not run."""
    if g.vertex_count < 2:
        raise GraphStructureError("need at least two vertices")
    if not is_connected(g):
        raise GraphStructureError("solver requires a connected graph")

    cut_lists = {} if g.edge_count <= max_edges else None
    upper_witness, lower = _upper_bound_witness(g, cut_lists)
    upper = upper_witness.num_colors
    results = {}
    for mode in modes:
        if lower < upper and g.edge_count > max_edges:
            results[mode] = SolveResult(None, None, 0, lower, upper, False)
            continue
        tables = _pair_cut_tables(g, mode, cut_lists) if lower < upper else None
        value, witness, tested = upper, upper_witness, 0
        for k in range(lower, upper):
            found, used = _search_level(g, tables, mode, k)
            tested += used
            if found is not None:
                value, witness = k, found
                break
        results[mode] = SolveResult(value, witness, tested, lower, upper, True)
    return results


def srd_number(g: Graph, max_edges: int = DEFAULT_MAX_EDGES) -> SolveResult:
    """Exact srd(G): fewest colors so every pair has a rainbow minimum cut."""
    return _solve(g, ("srd",), max_edges)["srd"]


def rd_number(g: Graph, max_edges: int = DEFAULT_MAX_EDGES) -> SolveResult:
    """Exact rd(G): fewest colors so every pair has a rainbow cut."""
    return _solve(g, ("rd",), max_edges)["rd"]


def srd_by_blocks(g: Graph, max_edges: int = DEFAULT_MAX_EDGES) -> SolveResult:
    """srd(G) as the maximum over blocks, with a witness glued from the
    block witnesses over one shared palette.

    Any two vertices have all their minimum cuts inside a single block, so
    the block maximum is exact and usually far cheaper than the direct
    search.
    """
    decomposition = blocks(g)
    if not decomposition.blocks:
        raise GraphStructureError("graph has no edges")
    results = [srd_number(blk.subgraph.graph, max_edges) for blk in decomposition.blocks]
    tested = sum(r.colorings_tested for r in results)
    lower = max(r.lower_bound for r in results)
    upper = max(r.upper_bound for r in results)
    if any(r.value is None for r in results):
        return SolveResult(None, None, tested, lower, upper, False)
    value = max(r.value for r in results)
    witness = color_by_blocks(g, [r.witness for r in results])
    return SolveResult(value, witness, tested, lower, upper, True)


def all_connected_graphs(n: int):
    """Every connected simple graph on n vertices up to isomorphism, one
    canonical representative each, in a deterministic order.

    Canonical form: the edge-set bitmask is minimal over all vertex
    permutations.  Masks are walked in ascending order, so the first mask
    met of each relabelling orbit is its minimum; the whole orbit is then
    marked, and connectivity is tested once per orbit.  The marks take
    2^(n(n-1)/2) bytes, 2 MiB at n = 7, so n >= 8 raises BudgetExceededError.
    """
    if n < 1:
        raise GraphStructureError("need at least one vertex")
    if n >= 8:
        raise BudgetExceededError(
            f"{n} vertices is past the census cap of 7 "
            f"(its marks would take 2^{n * (n - 1) // 2} bytes)"
        )
    if n == 1:
        yield Graph(1, [])
        return
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: i for i, p in enumerate(pairs)}
    perm_bits = [
        [1 << index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
        for perm in itertools.permutations(range(n))
    ]
    seen = bytearray(1 << len(pairs))
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        on = [i for i in range(len(pairs)) if mask >> i & 1]
        for bits in perm_bits:
            seen[sum(bits[i] for i in on)] = 1
        g = Graph(n, [pairs[i] for i in on])
        if is_connected(g):
            yield g


@dataclass(frozen=True)
class ScanRecord:
    graph: Graph
    rd: SolveResult
    srd: SolveResult
    equal: bool | None  # None when a budget cut either search short
    note: str  # "", "budget", or "counterexample-candidate"


def conjecture_scan(graphs, max_edges: int = DEFAULT_MAX_EDGES) -> list:
    """rd vs srd for each graph; any inequality is double-checked and
    flagged, never silently dropped, and the bound chain
    λ+ ≤ rd ≤ srd ≤ e is asserted for every completed graph.  λ ≤ λ+ needs
    no check: they are the minimum and the maximum of the same λ(u, v)."""
    records = []
    for g in graphs:
        results = _solve(g, ("rd", "srd"), max_edges)
        rd, srd = results["rd"], results["srd"]
        if rd.value is None or srd.value is None:
            records.append(ScanRecord(g, rd, srd, None, "budget"))
            continue
        lam_plus = rd.lower_bound  # read off _solve's upper-bound verification
        if not lam_plus <= rd.value <= srd.value <= g.edge_count:
            raise AssertionError(
                f"bound chain violated on {g!r}: "
                f"{lam_plus} <= {rd.value} <= {srd.value} <= {g.edge_count}"
            )
        note = ""
        equal = rd.value == srd.value
        if not equal:
            if not is_rd_coloring(g, rd.witness).verdict:
                raise AssertionError(f"rd witness failed re-verification on {g!r}")
            if not is_srd_coloring(g, srd.witness).verdict:
                raise AssertionError(f"srd witness failed re-verification on {g!r}")
            note = "counterexample-candidate"
        records.append(ScanRecord(g, rd, srd, equal, note))
    return records
