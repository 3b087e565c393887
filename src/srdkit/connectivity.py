"""Local edge connectivity, minimum-cut certificates, min-cut enumeration and
the Gomory-Hu cut tree.

Everything runs on the unit-capacity flow network obtained by replacing each
undirected edge with a pair of opposing arcs (arc 2e goes edges[e][0] ->
edges[e][1], arc 2e+1 the reverse).  By Menger's theorem the max-flow value
equals the number of pairwise edge-disjoint u-v paths, i.e. lambda(u, v).

A minimum u-v cut is δ(S) for a vertex set S that holds u but not v and
that no residual arc of a maximum flow leaves (Picard-Queyranne).  One
closure test, ``_CutClosure``, decides whether an edge set lies in such a
cut; it serves both the listing of a pair's minimum cuts and the
verifier's rainbow-cut search, each of which picks one edge per flow walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphStructureError
from .graph import Graph, _bfs, _open_arcs, _reached, _walk, is_connected


@dataclass(frozen=True)
class CutCertificate:
    """A u-v edge cut: the separated pair, the EdgeId set, and its size."""

    pair: tuple[int, int]
    cut: frozenset[int]
    value: int


def _max_flow(g: Graph, s: int, t: int):
    """Edmonds-Karp on the paired-arc network of G.

    Returns (value, residual, tree) where residual[a] is the leftover
    capacity of arc a (0, 1 or 2) and tree is the walk of the last
    augmenting BFS, the one that fails to reach t: the vertices it reached
    are the source side of a minimum cut.  No search runs a flow of G less
    some edges: whether removing them lowers λ by their count is a closure
    test on this one (``_CutClosure``).
    """
    edges = g.edges
    residual = _open_arcs(g)
    value = 0
    while True:
        tree = _bfs(g, s, residual, target=t)
        if tree[t] is None:
            return value, residual, tree
        x = t
        while x != s:  # send one unit along the walk's path
            arc = tree[x]
            residual[arc] -= 1
            residual[arc ^ 1] += 1
            x = edges[arc >> 1][arc & 1]
        value += 1


def _check_pair(g: Graph, u: int, v: int):
    if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
        raise GraphStructureError(f"vertex pair ({u}, {v}) out of range")
    if u == v:
        raise GraphStructureError("local edge connectivity needs two distinct vertices")


def local_edge_connectivity(g: Graph, u: int, v: int) -> int:
    """lambda(u, v): maximum number of pairwise edge-disjoint u-v paths."""
    _check_pair(g, u, v)
    value, _, _ = _max_flow(g, u, v)
    return value


def enumerate_min_cuts(g: Graph, u: int, v: int, limit: int = 10**6):
    """All minimum u-v cuts, as CutCertificates, sorted lexicographically by
    sorted EdgeId tuple.

    One max flow, then ``_walk_min_cuts`` over its walks.  The list is
    truncated at ``limit``: the walk stops after limit + 1 cuts, in walk
    order, and a truncated list is the first ``limit`` of those sorted, so
    it is deterministic but need not hold the lexicographically first cuts.
    A pair in different components has one cut, the empty one of value 0.
    """
    value, cuts = _min_cut_tuples(g, u, v, limit)
    return [CutCertificate((u, v), frozenset(cut), value) for cut in cuts]


def _min_cut_tuples(g: Graph, u: int, v: int, limit: int):
    """(λ(u, v), the cuts of ``enumerate_min_cuts`` as sorted EdgeId tuples),
    for the callers that read the cuts as tuples."""
    _check_pair(g, u, v)
    limit = max(limit, 0)  # any limit <= 0 lists nothing
    value, residual, _ = _max_flow(g, u, v)
    return value, sorted(_walk_min_cuts(g, u, v, residual, value, limit))[:limit]


def _sink_side(g: Graph, v: int, residual) -> frozenset[int]:
    """T0, the sink side of the maximum u-v flow ``residual``: the vertices
    that reach v in the residual, found by one walk from v with each
    edge's two arcs swapped.  Every minimum u-v cut keeps T0 on v's side
    (Picard-Queyranne), and no flow leaves T0: a unit from x in T0 to y
    leaves the arc y -> x open, so y reaches v too."""
    swapped = bytearray(len(residual))
    swapped[::2], swapped[1::2] = residual[1::2], residual[::2]
    return _reached(_bfs(g, v, swapped))


class _CutClosure:
    """Does an edge set C lie in some minimum u-v cut?  C grows and shrinks
    one edge at a time, as a search path does.

    ``residual`` is a maximum u-v flow f.  The minimum u-v cuts are the
    edges leaving the sets S that hold u but not v and that no residual arc
    leaves (Picard-Queyranne), and each of those edges carries a unit of f
    out of S.  So C lies in one when every edge of C carries a unit of f,
    from its tail to its head, and R, all that u and the tails reach in the
    residual, holds neither v nor a head: R is then such an S.  ``sink``
    holds v and maybe more of T0 (``_sink_side``), all of which reach v, so
    R touches ``sink`` exactly when it reaches v; a larger ``sink`` only
    stops a failing walk sooner.  ``reach`` is R as a walk tree, and
    ``heads[x]`` counts the edges of C with head x, plus one for x in
    ``sink``.
    """

    __slots__ = ("g", "residual", "reach", "heads")

    def __init__(self, g: Graph, u: int, sink, residual):
        self.g, self.residual = g, residual
        self.reach = [None] * g.vertex_count
        _walk(g, self.reach, u, residual)
        self.heads = [0] * g.vertex_count
        for x in sink:
            self.heads[x] = 1

    def add(self, e: int, undo: list) -> bool:
        """Add edge e to C; False when C then lies in no minimum cut.  Appends
        to the empty list ``undo`` what changed, for ``remove``: e's head,
        then the vertices R gained.  R grows by at most one walk, which
        stops at the first head it reaches, so after a False the closure
        is sound again only once ``remove`` has taken e back."""
        forward = self.residual[2 * e]
        if forward == 1:  # f sends nothing over e
            return False
        x, y = self.g.edges[e] if forward == 0 else self.g.edges[e][::-1]
        reach, heads = self.reach, self.heads
        if reach[y] is not None:
            return False
        heads[y] += 1
        undo.append(y)
        if reach[x] is not None:
            return True
        added = _walk(self.g, reach, x, self.residual, None, heads)
        undo += added
        return not heads[added[-1]]

    def remove(self, undo: list):
        """Take back the ``add`` that filled ``undo``, and empty it."""
        if undo:
            self.heads[undo[0]] -= 1
            for w in undo[1:]:
                self.reach[w] = None
            undo.clear()


def _flow_walks(g: Graph, s: int, ends, residual, value: int):
    """The maximum s-t flow ``residual`` of ``value`` units split into
    ``value`` edge-disjoint walks from s, each up to its first vertex in
    ``ends``, which holds t and maybe more of the sink side T0
    (``_sink_side``).  No flow leaves T0, so a walk that reaches T0 would
    stay there up to t.

    Returns (walks, walk_of): walks[i] lists the (edge, head) pairs of walk
    i, head being the end the flow enters, and walk_of[e] is the index of
    the walk through edge e, or -1 for an edge that no walk uses (one
    without flow, past ``ends``, or on a flow cycle).  Each walk follows
    unused flow out of its current vertex until it reaches ``ends``, which
    it always can: a vertex other than s sends out what it takes in, and s
    sends ``value`` more, so a walk that entered a vertex outside ``ends``
    finds flow left to follow.  Every vertex's arcs are scanned once over
    all the walks."""
    arcs, edges = g._arcs, g.edges
    spent = [0] * g.vertex_count  # arcs[x][:spent[x]] need no second look
    walk_of = [-1] * g.edge_count
    walks = []
    for i in range(value):
        walk, x = [], s
        while x not in ends:
            out = arcs[x]
            j = spent[x]
            while residual[out[j][1] ^ 1] != 2 or walk_of[out[j][1] >> 1] != -1:
                j += 1  # no flow out of x over this arc, or it is taken
            spent[x] = j + 1
            x, a = out[j]
            walk_of[a >> 1] = i
            walk.append((a >> 1, x))
        walks.append(walk)
    return walks, walk_of


def _walk_min_cuts(
    g: Graph, u: int, v: int, residual, value: int, limit: int, sides=None
) -> list:
    """The minimum u-v cuts of the maximum flow ``residual`` of ``value``
    units, as sorted EdgeId tuples, each once, in walk order, stopping after
    limit + 1 cuts.  When ``sides`` is a list, it receives each cut's
    source side, in the same order: the closure's reach when the cut comes
    out, the vertices a cut δ(S) leaves with u.  In a connected graph a
    minimum cut is a bond, so that is all of u's part of G less the cut.

    Every edge of a minimum cut δ(S) carries a unit of the flow out of S,
    and no flow enters S, so each of the flow's ``value`` walks
    (``_flow_walks``) leaves S once and never comes back: δ(S) has one
    edge on each walk and no other.  So the walk picks one edge per walk,
    depth first, walk 0 first and each walk's edges from u on, and a
    ``_CutClosure`` keeps a pick only while the picks lie in one minimum
    cut.  Once every walk has a pick, the ``value`` picks are that whole
    cut.  Each cut thus comes out once, and a pick that passes the test
    always extends to a cut, so no branch is a dead end.  An explicit
    stack keeps a large ``value`` clear of the recursion limit.  With
    ``value`` 0 the one cut is the empty one."""
    walks = [[e for e, _ in walk] for walk in _flow_walks(g, u, {v}, residual, value)[0]]
    closure = _CutClosure(g, u, {v}, residual)
    undo = [[] for _ in walks]  # undo[i]: what walk i's pick added
    cuts: list[tuple[int, ...]] = []
    # stack[i]: the next position to try on walk i, so below the top walk
    # i's pick is walks[i][stack[i] - 1]
    stack = [0]
    while stack and len(cuts) <= limit:
        i = len(stack) - 1
        if i == value:  # every walk has a pick
            cuts.append(tuple(sorted(walks[k][stack[k] - 1] for k in range(i))))
            if sides is not None:
                sides.append(_reached(closure.reach))
            stack.pop()
            continue
        closure.remove(undo[i])  # take back walk i's last pick, kept or not
        j = stack[i]
        if j == len(walks[i]):
            stack.pop()
            continue
        stack[i] = j + 1
        if closure.add(walks[i][j], undo[i]):
            stack.append(0)
    return cuts


def _cut_tree(g: Graph, flows=None) -> tuple[list[int], list[int]]:
    """Gusfield's Gomory-Hu cut tree ("Very simple methods for all pairs
    network flow analysis", 1990; Gomory and Hu 1961), from n - 1 max flows.

    Returns (parent, weight): the root 0 has parent[0] = 0, and every other
    vertex s hangs off parent[s] by a tree edge of weight[s].  Deleting that
    edge splits V in two, and the edges of G between the parts (``_tree_cuts``)
    form a minimum cut of weight[s] edges for s and parent[s].  So for any
    pair u, v the cut of a least-weight edge on their tree path is a
    minimum u-v cut, and λ(u, v) is that least weight.

    Every vertex starts under 0.  For s = 1, ..., n - 1, with t = parent[s],
    ``_max_flow(g, s, t)`` gives weight[s], and X, what its last walk
    reached, is the smallest source side of a minimum s-t cut.  Every other
    vertex under t that lies in X moves under s; then, if t's own parent
    lies in X, s takes t's place under it, and s and t swap weights.  When
    ``flows`` is a dict, it receives each step's residual, keyed (s, t):
    a later step may move s off t, so the key need not be a tree edge.
    """
    n = g.vertex_count
    parent = [0] * n
    weight = [0] * n  # weight[0] is unused
    for s in range(1, n):
        t = parent[s]
        weight[s], residual, side = _max_flow(g, s, t)
        if flows is not None:
            flows[(s, t)] = residual
        for i in range(n):
            if parent[i] == t and side[i] is not None and i != s:
                parent[i] = s
        if side[parent[t]] is not None:
            parent[s], parent[t] = parent[t], s
            weight[s], weight[t] = weight[t], weight[s]
    return parent, weight


def _tree_cuts(g: Graph, parent) -> list[frozenset[int]]:
    """The fundamental cuts of ``_cut_tree``'s tree: cuts[s] holds the edges
    of G between the vertices under s (s included) and the rest, for s > 0;
    cuts[0] is empty.  Each edge walks up the tree from both ends until they
    meet, joining the cut of every tree edge it passes."""
    n = g.vertex_count
    depth = [0] + [None] * (n - 1)  # the root 0; no vertex reads it when n = 0
    for x in range(n):
        path = []
        while depth[x] is None:
            path.append(x)
            x = parent[x]
        for y in reversed(path):
            depth[y] = depth[x] + 1
            x = y
    cuts: list[list[int]] = [[] for _ in range(n)]
    for e, (a, b) in enumerate(g.edges):
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            cuts[a].append(e)
            a = parent[a]
    return [frozenset(cut) for cut in cuts]


def _lambda_rows(parent, weight, marked):
    """One walk of the tree (parent, weight) from each u = 0, 1, ..., n - 1,
    yielding (low, first) per u.  For v != u, low[v] is the least weight on
    the tree path from u to v, λ(u, v) for ``_cut_tree``'s tree, and
    first[v] is the first tree edge on that path, seen from u, that has
    that least weight and is marked, or None.  A tree edge is named by its
    child end s, so it is (s, parent[s]), and marked[s] says whether it is
    marked.  low[u] and first[u] are None."""
    n = len(parent)
    links: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s in range(1, n):
        links[s].append((parent[s], s))
        links[parent[s]].append((s, s))
    for u in range(n):
        low, first = [None] * n, [None] * n
        stack = [(u, -1, None, None)]  # vertex, the one it came from, low, first
        while stack:
            x, prev, least, edge = stack.pop()
            low[x], first[x] = least, edge
            for y, s in links[x]:
                if y == prev:
                    continue
                w = weight[s]
                if least is None or w < least:
                    stack.append((y, x, w, s if marked[s] else None))
                elif w == least and edge is None and marked[s]:
                    stack.append((y, x, least, s))
                else:
                    stack.append((y, x, least, edge))
        yield low, first


def _all_min_cuts(g: Graph, limit: int) -> dict:
    """``_min_cut_tuples(g, u, v, limit)`` for every pair u < v of a
    connected graph, keyed (u, v) in lexicographic order, from the n - 1
    tree edges of ``_cut_tree`` rather than one flow and walk per pair.

    Each tree edge (s, parent[s]) takes one walk of its minimum cuts, which
    hands out each cut's side.  It walks the residual of the tree's own flow
    from s when that flow ran against parent[s], and else, where the tree's
    re-hanging moved s, a fresh max flow: the same deterministic flow.  A
    cut D then goes to every pair it separates whose λ, read off the tree,
    is |D|.  That finds all of a pair's minimum cuts: the tree path from u
    to v crosses D at some tree edge (s, p), so |D| ≥ λ(s, p) ≥ λ(u, v) =
    |D|, and D is a minimum s-p cut, listed by that edge's walk.  A walk
    that stops short, past ``limit`` cuts, sends every pair to
    ``_min_cut_tuples``, and so does a pair given more than ``limit`` cuts:
    their truncated lists keep that walk's order."""
    if not is_connected(g):
        raise GraphStructureError("listing every pair's minimum cuts needs a connected graph")
    limit = max(limit, 0)
    n = g.vertex_count
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flows = {}
    parent, weight = _cut_tree(g, flows)
    side_of = {}  # each distinct cut -> a side of it
    for s in range(1, n):
        t = parent[s]
        residual = flows[(s, t)] if (s, t) in flows else _max_flow(g, s, t)[1]
        sides = []
        cuts = _walk_min_cuts(g, s, t, residual, weight[s], limit, sides)
        if len(cuts) > limit:
            return {(u, v): _min_cut_tuples(g, u, v, limit) for u, v in pairs}
        side_of.update(zip(cuts, sides))
    lam = [low for low, _ in _lambda_rows(parent, weight, [False] * n)]
    found = {pair: [] for pair in pairs}
    for cut, side in side_of.items():
        size = len(cut)
        rest = [y for y in range(n) if y not in side]
        for x in side:
            row = lam[x]
            for y in rest:
                if row[y] == size:
                    found[(x, y) if x < y else (y, x)].append(cut)
    return {
        (u, v): (lam[u][v], sorted(cuts))
        if len(cuts) <= limit
        else _min_cut_tuples(g, u, v, limit)
        for (u, v), cuts in found.items()
    }


def _tree_weights(g: Graph) -> list[int]:
    """The weights of ``_cut_tree``'s n - 1 edges.  λ(G) is the least and
    λ+(G) the greatest: a pair's λ is a least weight on its path, and the
    two ends of each tree edge attain that edge's weight."""
    if g.vertex_count < 2:
        raise GraphStructureError("upper edge connectivity needs two vertices")
    return _cut_tree(g)[1][1:]


def edge_connectivity(g: Graph) -> int:
    """lambda(G) = min over pairs; 0 for disconnected or single-vertex input."""
    return min(_tree_weights(g)) if g.vertex_count >= 2 else 0


def upper_edge_connectivity(g: Graph) -> int:
    """lambda+(G) = max over vertex pairs of lambda(u, v)."""
    return max(_tree_weights(g))
