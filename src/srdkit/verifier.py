"""Decide whether an edge-colored graph has rainbow (minimum) cuts for
every vertex pair.

``is_srd_coloring`` and ``is_rd_coloring`` test the n - 1 cuts of one
Gomory-Hu cut tree for rainbowness and run the rainbow-cut search
``_dfs_rainbow_cut`` for each pair that no tree cut settles, capped at
λ(u, v) for a rainbow minimum cut (srd) and at the number of colors for a
rainbow cut of any size (rd); ``find_rainbow_min_cut`` runs it for one
pair, handed the pair's max flow.  Once a search holds a flow whose value
is its cap, ``_search_walks`` picks one edge per flow walk, up to the
walk's first edge into the flow's sink side, and prunes a state unless
one matching gives its open walks distinct unused colors
(``_walks_matched``).  Each rainbow edge subset is
visited at most once: with k colors in classes of sizes s_1..s_k, at most
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

    nodes: int = 0  # DFS states visited
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


def _dfs_rainbow_cut(g, c, u, v, cap, stats, node_budget=None, flow=None):
    """Complete search for a rainbow u-v cut of at most ``cap`` edges: with
    ``cap`` = λ(u, v) every cut found is a minimum cut, and with ``cap`` =
    the number of colors any rainbow cut fits.  ``node_budget`` bounds the
    states (BudgetExceededError); λ(u, v) = 0 raises GraphStructureError.

    A state branches over the unused-color edges of a live shortest path,
    excluding its earlier siblings; every edge of an inclusion-minimal cut
    lies on a live path, so this is complete.  A state whose λ(G - chosen)
    exceeds its room ``cap`` - |chosen| has no completion.  While the
    smaller degree of u and v in G - chosen, a bound on that λ, is within
    the room, the state needs no flow.  The first state where it is not
    takes G's max flow, and the root takes ``flow`` = (value, residual) if
    handed one; no search runs a second.  A value above ``cap`` prunes the
    state, as λ(G - chosen) ≥ λ - |chosen| > room.  A value equal to
    ``cap``, as in every srd search, hands the state to ``_search_walks``
    with the flow's sink side, walked once per search.  Below ``cap`` (rd)
    the states go on by their degrees, and one with no room left whose
    path walk reaches v is pruned.  An explicit stack of [branch, next
    index] frames keeps clear of the recursion limit.
    """
    colors = c.colors
    edges = g.edges
    chosen, used, excluded = set(), set(), set()
    open_arcs = _open_arcs(g)
    degree = [len(arcs) for arcs in g.adj]
    sink = None  # T0 of the flow, once a walk search needs it
    stack = []

    def count():
        stats.nodes += 1
        if node_budget is not None and stats.nodes > node_budget:
            raise BudgetExceededError(
                f"rainbow min-cut search exceeded {node_budget} states"
            )

    def enter():
        """Count a state; return its cut, or push a frame if it branches."""
        nonlocal flow, sink
        count()
        room = cap - len(chosen)
        bound = min(degree[u], degree[v])  # λ(G - chosen) is at most this
        if bound > room or flow is not None and not chosen:
            if flow is None:
                flow = _max_flow(g, u, v)[:2]
            if flow[0] > cap:  # λ(G - chosen) ≥ λ - |chosen| > room
                return None
            if flow[0] == cap:
                if sink is None:
                    sink = _sink_side(g, v, flow[1])
                return _search_walks(
                    g, colors, u, v, flow, sink, chosen, used, excluded, count
                )
        tree = None if bound == 0 else _bfs(g, u, open_arcs, target=v)
        if tree is None or tree[v] is None:  # λ(G - chosen) = 0
            return frozenset(chosen)
        if room == 0:  # λ(G - chosen) > 0 = room
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
            chosen.discard(prev)
            open_arcs[2 * prev] = open_arcs[2 * prev + 1] = 1
            used.discard(colors[prev])
            excluded.add(prev)
            a, b = edges[prev]
            degree[a] += 1
            degree[b] += 1
        if i == len(branch):
            stack.pop()
            excluded.difference_update(branch)
            continue
        e = branch[i]
        frame[1] = i + 1
        chosen.add(e)
        open_arcs[2 * e] = open_arcs[2 * e + 1] = 0
        used.add(colors[e])
        a, b = edges[e]
        degree[a] -= 1
        degree[b] -= 1
        hit = enter()
    if hit == frozenset():  # λ = 0 at the root
        raise GraphStructureError(f"vertices {u} and {v} are disconnected")
    return hit


def _search_walks(g, colors, u, v, flow, sink, chosen, used, excluded, count):
    """The first rainbow minimum u-v cut that holds ``chosen`` and avoids
    ``excluded``, or None, which leaves the sets as they were: the search
    below a state of ``_dfs_rainbow_cut`` that holds G's max flow ``flow``
    of value λ and its sink side ``sink`` (``_sink_side``).  ``count``
    counts each pick that the closure accepts.

    A minimum cut D ⊇ ``chosen`` is δ(S) for S closed in the residual
    (Picard-Queyranne), so each of the flow's λ walks (``_flow_walks``)
    crosses D once, on an edge whose head lies outside S ⊇ R, the reach of
    a ``_CutClosure`` over ``chosen``, and whose tail lies in S, so outside
    T0 = ``sink``.  No flow leaves T0, so the walks stop at their first
    edge into T0, and the closure fails a pick as soon as R touches T0.
    So a rainbow D clear of ``excluded`` crosses each walk without a
    chosen edge on a candidate: an edge with its head outside R and an
    unused color that is not excluded.  A state is pruned unless its open
    walks can each take a candidate color of their own, which one matching
    over the candidates decides (``_walks_matched``).  It branches on the
    candidates of the open walk with the fewest, the lowest on a tie, in
    walk order (fail-first: Haralick and Elliott 1980).  Every cut below it
    holds one of them, so no sibling is excluded.  Once every walk has a
    pick, the λ picks lie in a minimum cut of λ edges: they are that cut.
    """
    closure = _CutClosure(g, u, sink, flow[1])
    if not all(closure.add(e, []) for e in chosen):
        return None
    paths, walk_of = _flow_walks(g, u, sink, flow[1], flow[0])
    closed = {walk_of[e] for e in chosen}
    walks = [  # None for a walk with a pick
        None if w in closed else [(e, h, colors[e]) for e, h in p if e not in excluded]
        for w, p in enumerate(paths)
    ]
    reach = closure.reach
    stack = []  # [candidates below, branch, next index, undo] per branching state

    def enter(above):
        """Return the state's cut, or push a frame if it branches.  ``above``
        holds each walk's candidates at the state above, None for a walk
        with a pick; a walk's candidates here are among those there."""
        if len(chosen) == len(walks):  # every walk has its pick
            return frozenset(chosen)
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
            chosen.discard(prev)
            used.discard(colors[prev])
        if i == len(branch):
            stack.pop()
            continue
        e = branch[i]
        frame[2] = i + 1
        chosen.add(e)
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
    search: ``_search_walks`` from the root, handed the max flow that gives
    λ.  Its candidates stop at the sink side T0 of that flow, all that
    reaches v in the residual; on the 3-SAT reduction T0 takes in t, the
    padding clique and the clause hubs, so no clique edge is tried.
    ``node_budget`` bounds the states, raising BudgetExceededError;
    λ(u, v) = 0 raises GraphStructureError."""
    check_coloring_fits(g, c)
    _check_pair(g, u, v)
    stats = stats if stats is not None else SearchStats()
    flow = _max_flow(g, u, v)[:2]
    cut = _dfs_rainbow_cut(g, c, u, v, flow[0], stats, node_budget, flow)
    if cut is None:
        return None
    # a cut within the cap λ has exactly λ edges
    return CutCertificate(pair=(u, v), cut=cut, value=len(cut))


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

    The n - 1 cuts of one Gomory-Hu cut tree, ``tree`` from
    ``_cut_tree_with_cuts`` or built here, are tested for rainbowness
    first.  A pair is settled by the first rainbow tree cut on its tree
    path, seen from the smaller vertex, that for srd is also of least
    weight there, so of λ(u, v) edges.  Every other pair runs the DFS,
    capped at λ(u, v) for srd and at the number of colors for rd.  A
    settled pair has a cut, so the pair reported as failing is the first
    one whose DFS finds none."""
    check_coloring_fits(g, c)
    if not is_connected(g):
        raise GraphStructureError("graph must be connected")
    stats = stats if stats is not None else SearchStats()
    n = g.vertex_count
    parent, weight, cuts = tree or _cut_tree_with_cuts(g)
    rainbow = [is_rainbow(c, cut) for cut in cuts]
    if not srd:
        # any rainbow cut on the path will do: let every tree edge be least
        cap = len(c.distinct_colors())  # a rainbow cut has one edge per color
        weight = [0] * n
    witnesses = {}
    for u, (low, first) in zip(range(n - 1), _lambda_rows(parent, weight, rainbow)):
        for v in range(u + 1, n):
            if first[v] is not None:
                stats.settled += 1
                cut = cuts[first[v]]
            else:
                cut = _dfs_rainbow_cut(g, c, u, v, low[v] if srd else cap, stats)
                if cut is None:
                    return VerificationReport(
                        verdict=False, witnesses=witnesses, failing_pair=(u, v)
                    )
            witnesses[(u, v)] = CutCertificate(pair=(u, v), cut=cut, value=len(cut))
    return VerificationReport(verdict=True, witnesses=witnesses)


def is_srd_coloring(
    g: Graph, c: EdgeColoring, *, stats: SearchStats | None = None
) -> VerificationReport:
    """Does every vertex pair have a rainbow minimum cut?

    Pairs are scanned in lexicographic order and the first failing pair is
    reported; on success every pair carries its witness certificate.  One
    Gomory-Hu cut tree of n - 1 max flows gives every pair's λ(u, v) and
    n - 1 minimum cuts; a pair whose tree path has a rainbow one among its
    least-weight edges takes it as its witness.  Only the other pairs run
    the DFS capped at λ(u, v), which takes G's flow for a pair only where
    the degrees leave a prune open.
    """
    return _verify_pairs(g, c, True, stats)


def is_rd_coloring(
    g: Graph, c: EdgeColoring, *, stats: SearchStats | None = None
) -> VerificationReport:
    """Does every vertex pair have a rainbow cut of some size?

    As ``is_srd_coloring``, but any rainbow tree cut on a pair's tree path
    settles it, and the DFS for the other pairs is capped at the number of
    colors instead of λ(u, v)."""
    return _verify_pairs(g, c, False, stats)
