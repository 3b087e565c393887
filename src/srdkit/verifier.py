"""Decide whether an edge-colored graph has rainbow (minimum) cuts for
every vertex pair.

``is_srd_coloring`` and ``is_rd_coloring`` read every pair's λ(u, v) off
one Gomory-Hu cut tree and test its n - 1 cuts for rainbowness; an srd
pair no tree cut settles tries its endpoints' stars.  Every other pair,
and ``find_rainbow_min_cut``'s one pair, runs ``_rainbow_cut``, capped at
λ for a rainbow minimum cut (srd) and at the number of colors for a
rainbow cut of any size (rd).  Each rainbow edge subset is visited at most
once: with k colors in classes of sizes s_1..s_k, at most
prod(s_i + 1) <= sum_{l<=k} C(m, l) states, polynomial for fixed k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .colorings import EdgeColoring, check_coloring_fits
from .connectivity import (
    CutCertificate,
    _CutClosure,
    _check_pair,
    _cut_tree,
    _flow_walks,
    _lambda_rows,
    _max_flow,
    _sink_side,
    _tree_cuts,
)
from .errors import BudgetExceededError, GraphStructureError
from .graph import Graph, _bfs, _open_arcs, is_connected


@dataclass
class SearchStats:
    """Mutable counters a caller can pass in to observe search effort."""

    nodes: int = 0  # search states visited
    settled: int = 0  # pairs a cut of the verifier's cut tree settled
    enumerated: int = 0  # stays 0: no pair search lists minimum cuts


@dataclass(frozen=True)
class VerificationReport:
    verdict: bool
    witnesses: dict = field(default_factory=dict)  # (u, v) -> CutCertificate
    failing_pair: tuple | None = None


def is_rainbow(c: EdgeColoring, edge_set) -> bool:
    """True when no color repeats on the given edges.  ``c`` may also be a
    plain tuple of colors indexed by EdgeId."""
    seen = set()
    for eid in edge_set:
        col = c[eid]
        if col in seen:
            return False
        seen.add(col)
    return True


def _walks_matched(cands) -> bool:
    """The Hall test of a walk-search state (``_search_walks``): can every
    open walk take a color of its own?  ``cands`` holds each walk's
    candidate (edge, head, color) triples, None for a walk with a pick.
    Kuhn's method matches the open walks to colors one by one, and a walk
    without an augmenting path leaves every maximum matching short (Régin
    1994), whatever order the walks are matched in."""
    owner = {}  # color -> the walk matched to it
    held = [None] * len(cands)  # walk -> its color
    return all(
        c is None or _augment(w, cands, owner, held) for w, c in enumerate(cands)
    )


def _augment(i, wanted, owner, held) -> bool:
    """Match index i to the color of one of its triples ``wanted[i]`` by one
    augmenting path, breadth first over the colors, and flip it into
    ``owner`` and ``held``; False when there is none."""
    for t in wanted[i]:  # a free color: the path the search below finds first
        if t[2] not in owner:
            owner[t[2]], held[i] = i, t[2]
            return True
    came = {}  # color -> the index that reached it
    queue = [i]
    for x in queue:
        for t in wanted[x]:
            col = t[2]
            if col in came:
                continue
            came[col] = x
            y = owner.get(col)
            if y is None:
                while col is not None:  # each index on the path takes the next color
                    x = came[col]
                    owner[col], held[x], col = x, col, held[x]
                return True
            queue.append(y)
    return False


def _rainbow_cut(g, c, u, v, lam, cap, stats, node_budget=None, flow=None):
    """The first rainbow u-v cut of at most ``cap`` edges, or None after a
    complete search, for a pair with λ(u, v) = ``lam``, by a search chosen
    once from ``lam`` against ``cap``.  Above the cap no cut fits and the
    root is pruned.  At the cap every cut that fits is a minimum cut, and
    ``_search_walks`` runs on G's max flow, ``flow`` = (value, residual) if
    handed one.  Below it ``_dfs_rainbow_cut`` runs.  ``node_budget``
    bounds the states (BudgetExceededError); λ = 0 raises
    GraphStructureError."""

    def count():
        stats.nodes += 1
        if node_budget is not None and stats.nodes > node_budget:
            raise BudgetExceededError(
                f"rainbow min-cut search exceeded {node_budget} states"
            )

    count()  # the root
    if lam == 0:
        raise GraphStructureError(f"vertices {u} and {v} are disconnected")
    if lam > cap:
        return None
    if lam == cap:
        return _search_walks(g, c.colors, u, v, flow or _max_flow(g, u, v)[:2], count)
    return _dfs_rainbow_cut(g, c.colors, u, v, cap, count)


def _dfs_rainbow_cut(g, colors, u, v, cap, count):
    """``_rainbow_cut``'s search below the cap, where λ(u, v) < ``cap``;
    ``count`` counts each state below the root.  A state branches over the
    unused-color edges of a live shortest path, excluding its earlier
    siblings; every edge of an inclusion-minimal cut lies on a live path,
    so this is complete.  No state takes a flow, as λ(G - chosen) ≥
    λ - |chosen| stays under its room ``cap`` - |chosen|: the one prune is
    a state with no room left whose path walk reaches v.  An explicit
    stack of [branch, next index] frames keeps clear of the recursion
    limit; the chosen edges are the frames' current children."""
    edges = g.edges
    used, excluded = set(), set()
    open_arcs = _open_arcs(g)
    stack = []

    def enter():
        """Return the state's cut, or push a frame if it branches."""
        tree = _bfs(g, u, open_arcs, target=v)
        if tree[v] is None:  # λ(G - chosen) = 0
            return frozenset(branch[i - 1] for branch, i in stack)
        if len(stack) == cap:  # λ(G - chosen) > 0, and no room is left
            return None
        branch = []
        x = v
        while x != u:
            arc = tree[x]
            e = arc >> 1
            x = edges[e][arc & 1]
            if e not in excluded and colors[e] not in used:
                branch.append(e)
        branch.reverse()
        stack.append([branch, 0])
        return None

    hit = enter()
    while hit is None and stack:
        frame = stack[-1]
        branch, i = frame
        if i:  # the previous child is done: drop it and exclude it
            prev = branch[i - 1]
            open_arcs[2 * prev] = open_arcs[2 * prev + 1] = 1
            used.discard(colors[prev])
            excluded.add(prev)
        if i == len(branch):
            stack.pop()
            excluded.difference_update(branch)
            continue
        e = branch[i]
        frame[1] = i + 1
        open_arcs[2 * e] = open_arcs[2 * e + 1] = 0
        used.add(colors[e])
        count()
        hit = enter()
    return hit


def _search_walks(g, colors, u, v, flow, count):
    """``_rainbow_cut``'s search at the cap λ(u, v), on G's max flow
    ``flow`` = (λ, residual); ``count`` counts each pick that the closure
    accepts.  A minimum cut D is δ(S) for S closed in the residual
    (Picard-Queyranne), so each of the flow's λ walks (``_flow_walks``)
    crosses D once, on an edge whose head lies outside S ⊇ R, the reach of
    a ``_CutClosure`` over the picks, and whose tail lies in S, so outside
    the sink side T0 (``_sink_side``).  No flow leaves T0, so the walks
    stop at their first edge into T0, and the closure fails a pick as soon
    as R touches T0.  So a rainbow D crosses each walk without a pick on a
    candidate: an edge with its head outside R and an unused color.  A
    state is pruned unless its open walks can each take a candidate color
    of their own, which one matching decides (``_walks_matched``).  It
    branches on the candidates of the open walk with the fewest, the lowest
    on a tie (fail-first: Haralick and Elliott 1980); every cut below it
    holds one of them, so no sibling is excluded.  Once every walk has a
    pick, the λ picks are a minimum cut.
    """
    sink = _sink_side(g, v, flow[1])
    closure = _CutClosure(g, u, sink, flow[1])
    walks = [
        [(e, h, colors[e]) for e, h in p]
        for p in _flow_walks(g, u, sink, flow[1], flow[0])[0]
    ]
    used = set()
    reach = closure.reach
    stack = []  # [candidates below, branch, next index, undo] per branching state

    def enter(above):
        """Return the state's cut, or push a frame if it branches.  ``above``
        holds each walk's candidates at the state above, None for a walk
        with a pick; a walk's candidates here are among those there.  The
        picks are the frames' current children."""
        if len(stack) == len(walks):  # every walk has its pick
            return frozenset(f[1][f[2] - 1] for f in stack)
        cands = [
            c and [t for t in c if reach[t[1]] is None and t[2] not in used]
            for c in above
        ]
        if not _walks_matched(cands):
            return None
        best = None
        for w, c in enumerate(cands):
            if c is not None and (best is None or len(c) < len(cands[best])):
                best = w
        branch = [t[0] for t in cands[best]]
        cands[best] = None
        stack.append([cands, branch, 0, []])
        return None

    hit = enter(walks)
    while hit is None and stack:
        frame = stack[-1]
        below, branch, i, undo = frame
        if i:  # the previous pick is done
            prev = branch[i - 1]
            closure.remove(undo)
            used.discard(colors[prev])
        if i == len(branch):
            stack.pop()
            continue
        e = branch[i]
        frame[2] = i + 1
        used.add(colors[e])
        if closure.add(e, undo):
            count()
            hit = enter(below)
    return hit


def find_rainbow_min_cut(
    g: Graph,
    c: EdgeColoring,
    u: int,
    v: int,
    *,
    stats: SearchStats | None = None,
    node_budget: int | None = None,
) -> CutCertificate | None:
    """A rainbow u-v cut of size exactly λ(u, v), or None after a complete
    search: ``_search_walks`` from the root, on the one max flow that gives
    λ.  Its candidates stop at the sink side T0 of that flow, all that
    reaches v in the residual; on the 3-SAT reduction T0 takes in t, the
    padding clique and the clause hubs, so no clique edge is tried.
    ``node_budget`` bounds the states, raising BudgetExceededError;
    λ(u, v) = 0 raises GraphStructureError."""
    check_coloring_fits(g, c)
    _check_pair(g, u, v)
    stats = stats if stats is not None else SearchStats()
    flow = _max_flow(g, u, v)[:2]
    cut = _rainbow_cut(g, c, u, v, flow[0], flow[0], stats, node_budget, flow)
    if cut is None:
        return None
    return CutCertificate(pair=(u, v), cut=cut, value=flow[0])


def _cut_tree_with_cuts(g: Graph):
    """(parent, weight, cuts) of ``_cut_tree`` and ``_tree_cuts``: all the
    verifier needs of G besides the coloring."""
    parent, weight = _cut_tree(g)
    return parent, weight, _tree_cuts(g, parent)


def _verify_pairs(
    g: Graph, c: EdgeColoring, srd: bool, stats, tree=None
) -> VerificationReport:
    """Check every pair in lexicographic order for a rainbow cut, minimum
    for srd, and report the first pair without one; on success every pair
    carries its cut as a certificate.

    One Gomory-Hu cut tree, ``tree`` from ``_cut_tree_with_cuts`` or built
    here, gives every pair's λ(u, v) and n - 1 cuts, each tested for
    rainbowness once.  A pair is settled by the first rainbow tree cut on
    its tree path, seen from the smaller vertex, that for srd is also of
    least weight there, so of λ edges; an srd pair that none settles tries
    u's star, then v's, which settles it when rainbow and of λ edges.  The
    other pairs run ``_rainbow_cut``, capped at λ for srd and at the number
    of colors for rd, so the failing pair is the first whose search finds
    none."""
    check_coloring_fits(g, c)
    if not is_connected(g):
        raise GraphStructureError("graph must be connected")
    stats = stats if stats is not None else SearchStats()
    n = g.vertex_count
    parent, weight, cuts = tree or _cut_tree_with_cuts(g)
    rainbow = [is_rainbow(c, cut) for cut in cuts]
    # rd: any rainbow cut on the path will do, so let every tree edge be least
    rows = _lambda_rows(parent, weight if srd else [0] * n, rainbow)
    cap = len(c.distinct_colors())  # a rainbow cut has one edge per color
    witnesses = {}
    for u, (low, first) in zip(range(n - 1), rows):
        searched = 0  # the pairs of this row that no tree cut settled
        for v in range(u + 1, n):
            if first[v] is not None:
                cut = cuts[first[v]]
            else:
                searched += 1
                if not low[v]:  # an rd row has no λ: take u's row of λ once
                    low = next(_lambda_rows(parent, weight, rainbow, (u,)))[0]
                stars = (
                    frozenset(e for _, e in g.adj[x])
                    for x in (u, v)
                    if srd and len(g.adj[x]) == low[v]
                )
                cut = next((s for s in stars if is_rainbow(c, s)), None)
                if cut is None:
                    cut = _rainbow_cut(g, c, u, v, low[v], low[v] if srd else cap, stats)
                if cut is None:
                    stats.settled += v - u - searched
                    return VerificationReport(
                        verdict=False, witnesses=witnesses, failing_pair=(u, v)
                    )
            pair = (u, v)
            witnesses[pair] = CutCertificate(pair, cut, len(cut))
        stats.settled += n - 1 - u - searched
    return VerificationReport(verdict=True, witnesses=witnesses)


def is_srd_coloring(
    g: Graph, c: EdgeColoring, *, stats: SearchStats | None = None
) -> VerificationReport:
    """Does every vertex pair have a rainbow minimum cut?

    Pairs are scanned in lexicographic order and the first failing pair is
    reported; on success every pair carries its witness certificate.  A
    rainbow least-weight cut on a pair's path in one Gomory-Hu cut tree, or
    a rainbow endpoint star of λ(u, v) edges, is its witness; the other
    pairs run the walk search on the pair's max flow.
    """
    return _verify_pairs(g, c, True, stats)


def is_rd_coloring(
    g: Graph, c: EdgeColoring, *, stats: SearchStats | None = None
) -> VerificationReport:
    """Does every vertex pair have a rainbow cut of some size?

    As ``is_srd_coloring``, but any rainbow tree cut on a pair's tree path
    settles it, no star is tried, and the search for the other pairs is
    capped at the number of colors instead of λ(u, v)."""
    return _verify_pairs(g, c, False, stats)
