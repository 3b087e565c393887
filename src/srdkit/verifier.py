"""Decide whether an edge-colored graph has rainbow (minimum) cuts for
every vertex pair.

``is_srd_coloring`` and ``is_rd_coloring`` build one Gomory-Hu cut tree of
n - 1 max flows.  It gives every pair's λ, and its n - 1 cuts are minimum
cuts for the pairs whose tree paths they lie on, so each is tested for
rainbowness once and settles those pairs it can.  A pair it leaves open
runs one color-class DFS, which answers both questions: it picks at most
one edge per color along live shortest paths and prunes states that
cannot be completed within a size cap.  The cap is λ(u, v) for a rainbow
minimum cut (srd) and the number of colors for a rainbow cut of any size
(rd).  ``find_rainbow_min_cut`` reads λ off the pair's own max flow, merges
the two sides that flow forces on every minimum cut into one vertex each,
and hands the flow to the search on that smaller graph; a cut of any size
may cross those sides, so the verifier's searches run on G itself.  Every
search follows one rule: a state runs no flow while the degrees of u and v
in G - chosen settle its prune, and the first state where they do not
takes G's max flow (at most one per search), which no state changes.  When
that flow's value is the cap, as for every srd search, a state survives
when its chosen edges lie in one minimum cut, which a closure test on the
flow's residual decides (Picard-Queyranne) with at most one walk per
state, and a Hall test prunes the states whose flow walks without a
chosen edge cannot each take a color of their own, by a bipartite
matching (Régin 1994).  A value above the cap prunes the root, and below
it (rd) no flow prunes a state.  Each rainbow edge subset is visited at
most once: with k colors in classes of sizes s_1..s_k, at most
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
    _min_cut_kernel,
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


def _open_walks_matched(walks, walk_of, reach, chosen, used, excluded) -> bool:
    """The Hall test of a DFS state that keeps a flow of value λ fixed: can
    every flow walk (``_flow_walks``) without a chosen edge take its own
    color, unused by ``chosen``, from its edges that are not excluded and
    whose heads lie outside ``reach``, the closure's R?  ``walks`` holds
    (edge, head, color) triples.  A walk without any such color fails at
    once; otherwise Kuhn's method matches the walks to colors one by one,
    and a walk that finds no augmenting path leaves every maximum matching
    short (the all-different check of Régin 1994)."""
    closed = {walk_of[e] for e in chosen}
    wanted = []
    for w, walk in enumerate(walks):
        if w not in closed:
            cands = {
                col
                for e, head, col in walk
                if reach[head] is None and col not in used and e not in excluded
            }
            if not cands:
                return False
            wanted.append(cands)
    owner = {}  # color -> the walk matched to it
    held = [None] * len(wanted)  # walk -> its color
    return all(_augment(i, wanted, owner, held) for i in range(len(wanted)))


def _augment(i, wanted, owner, held) -> bool:
    """Match index i by one augmenting path, breadth first over the colors,
    and flip it into ``owner`` and ``held``; False when there is none."""
    came = {}  # color -> the index that reached it
    queue = [i]
    for x in queue:
        for col in wanted[x]:
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
    """Complete search for a rainbow u-v cut of at most ``cap`` edges.

    Branches over the edges of a live shortest path whose colors are still
    unused; exclusion sets keep the visited rainbow subsets distinct.  Any
    rainbow cut contains an inclusion-minimal one, and every edge of a
    minimal cut lies on a live path, so path branching stays complete.
    Removing an edge lowers the residual connectivity by at most one, so a
    state whose residual exceeds the edges still allowed has no completion
    and may be pruned.  With ``cap`` = λ(u, v) every cut found is a minimum
    cut; with ``cap`` = the number of colors, any rainbow cut fits.
    ``node_budget`` bounds the states, raising BudgetExceededError.  A
    root with λ(u, v) = 0 raises GraphStructureError (u, v disconnected).

    A search runs at most one max flow, and none if the caller hands it
    G's as ``flow`` = (value, residual).  λ(G - chosen) is at most the
    smaller degree of u and v in G - chosen, and while that bound is within
    ``cap`` - |chosen| the prune cannot fire, so the state runs no flow and
    its path walk tells whether λ is 0.  The first state whose bound does
    not settle the prune takes G's flow, handed in or computed then.  No
    state changes that flow.  If its value λ exceeds ``cap``, every state
    has λ(G - chosen) ≥ λ - |chosen| > room, and the root is pruned.

    When λ is ``cap``, as for every srd search, λ(G - chosen) is
    cap - |chosen| when ``chosen`` lies in a minimum cut of G and more
    otherwise, so a ``_CutClosure`` of the flow decides each prune.  The
    first state builds it from u and its chosen edges; below it each state
    adds its own edge, at the cost of at most one walk, and its frame's
    ``undo`` list takes the edge back when the state is left.  A state
    whose edge fails the test has its parent's λ, as that edge lowered
    none, and is pruned.

    In that regime a state that survives the closure test also runs a Hall
    test (``_open_walks_matched``) before its path walk.  The first state
    with the flow splits it into ``cap`` edge-disjoint u-v walks
    (``_flow_walks``), once per search, however often the closure is
    rebuilt.  Let D ⊇ ``chosen`` be a minimum cut, δ(S) with S closed in
    the residual.  Each edge of D carries a unit out of S and no flow
    enters S, so each walk leaves S once and never comes back: it crosses
    D exactly once, on an edge that carries flow and whose head lies
    outside S, so outside the closure's reach R ⊆ S.  The chosen edges
    thus lie on distinct walks, and each of the room = cap - |chosen|
    walks without one crosses D on an edge of its own outside ``chosen``.
    For D to be rainbow and to avoid ``excluded``, as every cut below the
    state must, those edges have distinct colors outside ``used``, so a
    matching of the open walks to such colors covers them all.  A state
    where none does has no cut below it, and pruning it changes neither
    the cut found nor the order of the states that remain.

    When λ is below ``cap`` (rd, or any cap above λ), the flow bounds no
    λ(G - chosen) from below, so that state and all below it stay on their
    degrees, and only a state with no room left whose walk reaches v is
    pruned.  A subtree that a flow per state would prune holds no cut
    within the cap, so the same cut comes first, after more states.

    The states are visited depth first with an explicit stack of one frame
    per branching state on the current path, each with its λ(G - chosen)
    if λ is the cap and None otherwise, so no recursion limit applies.
    ``chosen``, ``used`` and ``excluded`` are shared sets that a frame
    extends while its children run and restores when it is popped;
    ``open_arcs`` is G - ``chosen`` as arc capacities, for the path walks,
    and ``degree`` holds the degrees of G - ``chosen`` while no frame on
    the path has a value.
    """
    colors = c.colors
    edges = g.edges
    chosen, used, excluded = set(), set(), set()
    open_arcs = _open_arcs(g)
    degree = [len(arcs) for arcs in g.adj]
    closure = None  # the _CutClosure of the states below the first with a flow
    walks = walk_of = None  # _flow_walks of the flow, once it has value cap
    stack = []  # [λ(G - chosen) or None, branch, next index, child undo]

    def closes_over_chosen():
        """Does ``chosen`` lie in a minimum cut of G?  Builds the closure of
        G's flow of value ``cap`` over it, and splits that flow into walks
        the first time."""
        nonlocal closure, walks, walk_of
        residual = flow[1]
        closure = _CutClosure(g, u, v, residual)
        if walks is None:
            paths, walk_of = _flow_walks(g, u, v, residual, cap)
            walks = [[(e, head, colors[e]) for e, head in path] for path in paths]
        return all(closure.add(e, []) for e in chosen)

    def enter(value):
        """Count a state; return its cut, or push a frame if it branches.
        ``value`` is the state's λ(G - chosen) below the first state with a
        flow of value ``cap``, and None elsewhere."""
        nonlocal flow
        stats.nodes += 1
        if node_budget is not None and stats.nodes > node_budget:
            raise BudgetExceededError(
                f"rainbow min-cut search exceeded {node_budget} states"
            )
        room = cap - len(chosen)
        if value is None:
            bound = min(degree[u], degree[v])  # λ(G - chosen) is at most this
            if bound > room:
                if flow is None:
                    flow = _max_flow(g, u, v)[:2]
                if flow[0] > cap:  # λ(G - chosen) ≥ λ - |chosen| > room
                    return None
                if flow[0] == cap:
                    if not closes_over_chosen():
                        return None
                    value = room
        if value is not None:
            if value > room or not _open_walks_matched(
                walks, walk_of, closure.reach, chosen, used, excluded
            ):
                return None
            bound = value
        tree = None if bound == 0 else _bfs(g, u, open_arcs, target=v)
        if tree is None or tree[v] is None:  # λ(G - chosen) = 0
            if not chosen:
                raise GraphStructureError(f"vertices {u} and {v} are disconnected")
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
        stack.append([value, branch, 0, []])
        return None

    hit = enter(None)
    while hit is None and stack:
        frame = stack[-1]
        value, branch, i, undo = frame
        if i:
            # the previous child is done: drop it and exclude it
            prev = branch[i - 1]
            chosen.discard(prev)
            open_arcs[2 * prev] = open_arcs[2 * prev + 1] = 1
            used.discard(colors[prev])
            excluded.add(prev)
            if value is None:
                a, b = edges[prev]
                degree[a] += 1
                degree[b] += 1
            else:
                closure.remove(undo)
        if i == len(branch):
            stack.pop()
            excluded.difference_update(branch)
            continue
        e = branch[i]
        frame[2] = i + 1
        chosen.add(e)
        open_arcs[2 * e] = open_arcs[2 * e + 1] = 0
        used.add(colors[e])
        if value is None:
            a, b = edges[e]
            degree[a] -= 1
            degree[b] -= 1
            hit = enter(None)
        else:
            hit = enter(value - 1 if closure.add(e, undo) else value)
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
    search: the color-class DFS capped at λ, which it reads off the max flow
    it starts from.

    The DFS runs on the minimum-cut kernel of that flow
    (``_min_cut_kernel``): the sides S0 and T0 that every minimum u-v cut
    keeps whole are each merged into one vertex, and the edges inside them
    drop out, since no minimum cut can use one.  The search starts from the
    same flow on the kept edges, which is still maximum, and its cut maps
    back to G's EdgeIds.  On the 3-SAT reduction T0 takes in t, the padding
    clique and the clause hubs, so the search never branches on a plain
    clique edge.  ``node_budget`` bounds the DFS states of the contracted
    search, raising BudgetExceededError instead of answering."""
    check_coloring_fits(g, c)
    _check_pair(g, u, v)
    stats = stats if stats is not None else SearchStats()
    value, residual, tree = _max_flow(g, u, v)
    if value == 0:  # refused here, as the kernel's ids name other vertices
        raise GraphStructureError(f"vertices {u} and {v} are disconnected")
    h, hu, hv, edge_map, kept = _min_cut_kernel(g, u, v, residual, tree)
    colors = EdgeColoring(tuple(c.colors[e] for e in edge_map))
    cut = _dfs_rainbow_cut(
        h, colors, hu, hv, value, stats, node_budget=node_budget, flow=(value, kept)
    )
    if cut is None:
        return None
    # a cut within the cap λ has exactly λ edges
    cut = frozenset(edge_map[e] for e in cut)
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
