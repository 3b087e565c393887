"""Local edge connectivity, minimum-cut certificates and min-cut enumeration.

Everything runs on the unit-capacity flow network obtained by replacing each
undirected edge with a pair of opposing arcs (arc 2e goes edges[e][0] ->
edges[e][1], arc 2e+1 the reverse).  By Menger's theorem the max-flow value
equals the number of pairwise edge-disjoint u-v paths, i.e. lambda(u, v).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import GraphStructureError
from .graph import Graph, _bfs, components, is_connected


@dataclass(frozen=True)
class CutCertificate:
    """A u-v edge cut: the separated pair, the EdgeId set, and its size."""

    pair: tuple[int, int]
    cut: frozenset[int]
    value: int


def _max_flow(g: Graph, s: int, t: int, removed=frozenset()):
    """Edmonds-Karp on the paired-arc network.

    Returns (value, residual, parent_arc, path) where residual[a] is the
    leftover capacity of arc a (removed edges get capacity 0 in both
    directions) and parent_arc[x] != -1 exactly for the vertices that the
    last augmenting BFS, the one that fails to reach t, reached from s: the
    source side of a minimum cut.  ``path`` holds the EdgeIds of the first
    augmenting path, s to t, or is None when t is unreachable.  That BFS
    runs on unused capacity, visits ``g.adj`` in order and keeps the first
    parent, so ``path`` is the shortest path ``graph._bfs`` would trace.
    """
    m = g.edge_count
    residual = bytearray(b"\x01" * (2 * m))
    for e in removed:
        residual[2 * e] = 0
        residual[2 * e + 1] = 0
    adj = g.adj
    value = 0
    path = None
    parent_arc = [-1] * g.vertex_count
    while True:
        # BFS for a shortest augmenting path
        for i in range(g.vertex_count):
            parent_arc[i] = -1
        parent_arc[s] = -2
        queue = deque([s])
        found = False
        while queue and not found:
            v = queue.popleft()
            for w, eid in adj[v]:
                if parent_arc[w] != -1:
                    continue
                u0, _ = g.edges[eid]
                arc = 2 * eid if v == u0 else 2 * eid + 1
                if residual[arc]:
                    parent_arc[w] = arc
                    if w == t:
                        found = True
                        break
                    queue.append(w)
        if not found:
            return value, residual, parent_arc, path
        # augment by one unit
        eids = []
        v = t
        while v != s:
            arc = parent_arc[v]
            residual[arc] -= 1
            residual[arc ^ 1] += 1
            eid = arc // 2
            eids.append(eid)
            u0, v0 = g.edges[eid]
            v = u0 if (arc % 2 == 0) else v0
        if path is None:
            path = eids[::-1]
        value += 1


def _crossing_edges(g: Graph, side: frozenset[int]) -> frozenset[int]:
    return frozenset(
        eid for eid, (u, v) in enumerate(g.edges) if (u in side) != (v in side)
    )


def _check_pair(g: Graph, u: int, v: int):
    if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
        raise GraphStructureError(f"vertex pair ({u}, {v}) out of range")
    if u == v:
        raise GraphStructureError("local edge connectivity needs two distinct vertices")


def local_edge_connectivity(g: Graph, u: int, v: int, removed=frozenset()) -> int:
    """lambda(u, v): maximum number of pairwise edge-disjoint u-v paths."""
    _check_pair(g, u, v)
    value, _, _, _ = _max_flow(g, u, v, removed)
    return value


def min_edge_cut(g: Graph, u: int, v: int) -> CutCertificate:
    """One minimum u-v cut, taken from the source side of a maximum flow."""
    _check_pair(g, u, v)
    value, _, parent_arc, _ = _max_flow(g, u, v)
    side = frozenset(x for x, arc in enumerate(parent_arc) if arc != -1)
    cut = _crossing_edges(g, side)
    assert len(cut) == value, "max-flow/min-cut certificate mismatch"
    return CutCertificate((u, v), cut, value)


def _tarjan_scc(n: int, succ) -> list[int]:
    """Iterative Tarjan SCC; succ[v] is an iterable of successors."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                if low[v] < low[pv]:
                    low[pv] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return comp


def enumerate_min_cuts(g: Graph, u: int, v: int, limit: int = 10**6):
    """All minimum u-v cuts, as CutCertificates.

    Minimum cuts of a unit-capacity network are exactly the residual-closed
    vertex sets containing u and avoiding v (Picard-Queyranne), so we
    enumerate closed sets of the residual SCC condensation.  The list is
    sorted lexicographically by sorted EdgeId tuple and truncated at
    ``limit`` (truncation keeps determinism but not completeness).
    """
    _check_pair(g, u, v)
    value, residual, _, _ = _max_flow(g, u, v)
    n = g.vertex_count

    succ: list[set[int]] = [set() for _ in range(n)]
    for eid, (a, b) in enumerate(g.edges):
        if residual[2 * eid]:
            succ[a].add(b)
        if residual[2 * eid + 1]:
            succ[b].add(a)
    comp = _tarjan_scc(n, [tuple(s) for s in succ])
    ncomp = max(comp) + 1 if n else 0
    csucc: list[set[int]] = [set() for _ in range(ncomp)]
    for a in range(n):
        for b in succ[a]:
            if comp[a] != comp[b]:
                csucc[comp[a]].add(comp[b])

    cu, cv = comp[u], comp[v]
    # components forced into the source side: everything residual-reachable
    # from u; forced out: everything that can still reach v
    must_in = set()
    stack = [cu]
    while stack:
        c = stack.pop()
        if c in must_in:
            continue
        must_in.add(c)
        stack.extend(csucc[c])
    cpred: list[set[int]] = [set() for _ in range(ncomp)]
    for a in range(ncomp):
        for b in csucc[a]:
            cpred[b].add(a)
    must_out = set()
    stack = [cv]
    while stack:
        c = stack.pop()
        if c in must_out:
            continue
        must_out.add(c)
        stack.extend(cpred[c])
    assert not (must_in & must_out), "residual u->v path left after max flow"

    # Tarjan gives successors lower ids, so ascending ids decide sinks first
    free = sorted(set(range(ncomp)) - must_in - must_out)
    free_succ = {c: [d for d in csucc[c] if d not in must_in] for c in free}
    # all free successors of a free comp are free (a successor in must_out
    # would put the comp itself in must_out)

    comp_vertices: list[list[int]] = [[] for _ in range(ncomp)]
    for vert in range(n):
        comp_vertices[comp[vert]].append(vert)

    sides: list[frozenset[int]] = []
    chosen: set[int] = set()

    def emit():
        verts = set()
        for c in must_in:
            verts.update(comp_vertices[c])
        for c in chosen:
            verts.update(comp_vertices[c])
        sides.append(frozenset(verts))

    # Depth-first over the include/exclude decisions for free[0], free[1],
    # ...: "visit i" decides free[i], leaving it out before putting it in,
    # and stops after limit + 1 sides.  An explicit stack keeps long chains
    # of free components clear of the recursion limit.
    stack = [("visit", 0)]
    while stack and len(sides) <= limit:
        action, i = stack.pop()
        if action == "drop":
            chosen.discard(free[i])
        elif action == "include":
            if all(d in chosen for d in free_succ[free[i]]):
                chosen.add(free[i])
                stack += [("drop", i), ("visit", i + 1)]
        elif i == len(free):
            emit()
        else:
            stack += [("include", i), ("visit", i + 1)]

    cuts = sorted(
        {tuple(sorted(_crossing_edges(g, side))) for side in sides}
    )[:limit]
    return [
        CutCertificate((u, v), frozenset(cut), value) for cut in cuts
    ]


def count_min_cuts(g: Graph, u: int, v: int, cap: int) -> int:
    """Number of minimum u-v cuts; any value > cap just reports cap + 1."""
    return len(enumerate_min_cuts(g, u, v, limit=cap + 1))


def edge_connectivity(g: Graph) -> int:
    """lambda(G) = min over pairs; 0 for disconnected or single-vertex input."""
    if g.vertex_count < 2:
        return 0
    if not is_connected(g):
        return 0
    return min(local_edge_connectivity(g, 0, v) for v in range(1, g.vertex_count))


def upper_edge_connectivity(g: Graph) -> int:
    """lambda+(G) = max over vertex pairs of lambda(u, v)."""
    if g.vertex_count < 2:
        raise GraphStructureError("upper edge connectivity needs two vertices")
    return max(
        local_edge_connectivity(g, u, v)
        for u in range(g.vertex_count)
        for v in range(u + 1, g.vertex_count)
    )


def separates(g: Graph, cut, u: int, v: int) -> bool:
    """Does removing the EdgeId set ``cut`` disconnect u from v?"""
    _check_pair(g, u, v)
    return v not in _bfs(g, u, frozenset(cut), target=v)


def is_edge_cut(g: Graph, cut) -> bool:
    """Does removing ``cut`` increase the number of components?"""
    cut = frozenset(cut)
    remaining = [e for i, e in enumerate(g.edges) if i not in cut]
    before = len(components(g))
    after = len(components(Graph(g.vertex_count, remaining)))
    return after > before
