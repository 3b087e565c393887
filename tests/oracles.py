"""Independent brute-force oracles used to pin expected values.

Everything here works from raw (vertex_count, edge list, color tuple) data
and uses only subset enumeration plus union-find, so it shares no logic with
the package under test.  The exceptions are the differential references:
``reference_rainbow_cut_dfs`` for the verifier's rainbow-cut DFS, which
runs the package's max flow from zero at every state on G rebuilt without
the chosen edges (``lambda_without``),
``reference_rainbow_min_cut_by_enumeration``, the verifier's former srd
pair check that tested the listed minimum cuts one by one,
``reference_closure_dfs``, the rainbow-cut DFS that branched on shortest
paths with a closure test per state where the verifier's now searches the
flow's walks, ``reference_verify``, the verifier's former pair loop, which
runs that DFS for every pair instead of first trying the cuts of a
Gomory-Hu cut tree, ``reference_find_rainbow_min_cut``, the single-pair
srd search by that DFS, whose closure stops at v alone, instead of by the
walk search that stops at the sink side of its flow,
``reference_edge_connectivity`` and ``reference_upper_edge_connectivity``,
λ and λ+ with one max flow per pair instead of the cut tree,
``reference_chromatic_index``, the chromatic-index backtracking without its
counting prune, ``reference_connected_graphs``, the isomorphism census
without orbit marking, ``reference_canonical_colorings`` and
``reference_search_level``, the solver's canonical enumeration and level
search written as recursions, ``reference_min_nontrivial_pair_cut``, the
construction's cut choice with a λ flow for every pair before its
enumeration, ``reference_bfs``, the graph walk that keeps its tree in a
dict, ``reference_walk_min_cuts``, the min-cut walk over the closed sets
of the residual's strongly connected components (``_tarjan_scc``) instead
of over the flow's walks, ``reference_bond_tables``, the solver's rd bond
sweep on vertex sets with ``_crossing_edges`` and two walks of their own
per side, and the
structure questions as the package once answered them on their own:
``reference_two_color``, a level-by-level 2-coloring,
``reference_is_cactus_with_cycle``, which tests each block for a cycle by
its degrees, and ``reference_multiplicity``, a per-pair count in a dict.
"""

from collections import deque
from itertools import combinations, permutations

from srdkit.colorings import EdgeColoring, check_coloring_fits
from srdkit.connectivity import (
    CutCertificate,
    _CutClosure,
    _check_pair,
    _flow_walks,
    _max_flow,
    enumerate_min_cuts,
    local_edge_connectivity,
)
from srdkit.errors import (
    BudgetExceededError,
    ColoringError,
    GraphStructureError,
    NotBipartiteError,
)
from srdkit.graph import Graph, _bfs, _open_arcs, blocks, is_connected
from srdkit.solver import DEFAULT_THRESHOLD
from srdkit.verifier import (
    SearchStats,
    VerificationReport,
    _walks_matched,
    is_rd_coloring,
    is_srd_coloring,
)


def _component_labels(n, edges, excluded=frozenset()):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for eid, (u, v) in enumerate(edges):
        if eid in excluded:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return tuple(find(v) for v in range(n))


def oracle_separates(n, edges, cut, u, v):
    labels = _component_labels(n, edges, frozenset(cut))
    return labels[u] != labels[v]


def oracle_component_count(n, edges, excluded=frozenset()):
    return len(set(_component_labels(n, edges, excluded)))


def oracle_lambda(n, edges, u, v):
    """Minimum size of an edge subset separating u from v."""
    m = len(edges)
    for size in range(m + 1):
        for cut in combinations(range(m), size):
            if oracle_separates(n, edges, cut, u, v):
                return size
    raise AssertionError("removing all edges must separate distinct vertices")


def oracle_all_min_cuts(n, edges, u, v):
    """(lambda, sorted list of all minimum separating EdgeId sets)."""
    lam = oracle_lambda(n, edges, u, v)
    cuts = [
        frozenset(cut)
        for cut in combinations(range(len(edges)), lam)
        if oracle_separates(n, edges, cut, u, v)
    ]
    return lam, sorted(cuts, key=sorted)


def oracle_cut_vertices(n, edges):
    base = oracle_component_count(n, edges)
    out = set()
    for v in range(n):
        kept = [e for e in edges if v not in e]
        # v removed: count components among the other vertices
        labels = _component_labels(n, kept)
        rest = {labels[w] for w in range(n) if w != v}
        if len(rest) > base:
            out.add(v)
    return out


def _rainbow(colors, cut):
    seen = set()
    for eid in cut:
        c = colors[eid]
        if c in seen:
            return False
        seen.add(c)
    return True


def oracle_is_srd(n, edges, colors):
    """Every pair has a rainbow separating set of size exactly lambda(u,v)."""
    m = len(edges)
    for u in range(n):
        for v in range(u + 1, n):
            lam = oracle_lambda(n, edges, u, v)
            ok = any(
                _rainbow(colors, cut) and oracle_separates(n, edges, cut, u, v)
                for cut in combinations(range(m), lam)
            )
            if not ok:
                return False
    return True


def oracle_is_rd(n, edges, colors):
    """Every pair has a rainbow separating set of some size."""
    m = len(edges)
    all_subsets = []
    for size in range(m + 1):
        all_subsets.extend(combinations(range(m), size))
    for u in range(n):
        for v in range(u + 1, n):
            ok = any(
                _rainbow(colors, cut) and oracle_separates(n, edges, cut, u, v)
                for cut in all_subsets
            )
            if not ok:
                return False
    return True


class FastSrdOracle:
    """Subset-table oracle for one graph, reusable across many colorings.

    Precomputes, per vertex pair, every minimum separating edge mask, so a
    coloring check is just "is any of these masks rainbow".
    """

    def __init__(self, n, edges):
        assert len(edges) <= 16
        self.n = n
        self.edges = list(edges)
        m = len(edges)
        self.m = m
        comp = []
        for mask in range(1 << m):
            comp.append(_component_labels(n, edges, _mask_set(mask)))
        self.pair_min_cut_masks = {}
        self.pair_lambda = {}
        for u in range(n):
            for v in range(u + 1, n):
                best = None
                masks = []
                for mask in range(1 << m):
                    if comp[mask][u] != comp[mask][v]:
                        size = bin(mask).count("1")
                        if best is None or size < best:
                            best = size
                            masks = [mask]
                        elif size == best:
                            masks.append(mask)
                self.pair_lambda[(u, v)] = best
                self.pair_min_cut_masks[(u, v)] = masks

    def is_srd(self, colors):
        for pair, masks in self.pair_min_cut_masks.items():
            if not any(_rainbow(colors, _mask_set(mk)) for mk in masks):
                return False
        return True


def _mask_set(mask):
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return out


def all_labeled_graphs(n, connected_only=True):
    """Every labeled simple graph on n vertices as (n, edge list)."""
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for mask in range(1 << len(possible)):
        edges = [possible[i] for i in range(len(possible)) if mask >> i & 1]
        if connected_only and oracle_component_count(n, edges) != 1:
            continue
        out.append((n, edges))
    return out


def lambda_without(g, u, v, removed):
    """λ(u, v) of G without the EdgeIds in ``removed``, on a graph rebuilt
    from the other edges."""
    kept = [ends for e, ends in enumerate(g.edges) if e not in removed]
    return local_edge_connectivity(Graph(g.vertex_count, kept), u, v)


def reference_rainbow_cut_dfs(g, colors, u, v, cap, stats, node_budget=None):
    """The rainbow cut (or None) of the verifier's rainbow-cut DFS, found
    the slow way: recursive, with a fresh max flow of G - chosen at every
    state.  Each state adds one to ``stats.nodes``.

    States branch over the edges of the BFS-shortest u-v path of G - chosen
    (first parent kept, ``g.adj`` order) that are not excluded and whose
    colors are unused; a state whose flow exceeds ``cap`` - |chosen| is
    pruned.  Errors carry the verifier's messages.
    """

    def shortest_path(chosen):
        parent = {u: None}
        queue = deque([u])
        while queue and v not in parent:
            x = queue.popleft()
            for w, eid in g.adj[x]:
                if w not in parent and eid not in chosen:
                    parent[w] = (x, eid)
                    queue.append(w)
        path = []
        x = v
        while parent[x] is not None:
            x, eid = parent[x]
            path.append(eid)
        return path[::-1]

    def rec(chosen, excluded, used):
        stats.nodes += 1
        if node_budget is not None and stats.nodes > node_budget:
            raise BudgetExceededError(
                f"rainbow min-cut search exceeded {node_budget} states"
            )
        residual = lambda_without(g, u, v, chosen)
        if residual == 0:
            if not chosen:
                raise GraphStructureError(f"vertices {u} and {v} are disconnected")
            return frozenset(chosen)
        if residual > cap - len(chosen):
            return None
        grown = set(excluded)
        for e in shortest_path(chosen):
            if e in excluded or colors[e] in used:
                continue
            hit = rec(chosen | {e}, frozenset(grown), used | {colors[e]})
            if hit is not None:
                return hit
            grown.add(e)
        return None

    return rec(frozenset(), frozenset(), frozenset())


def reference_closure_dfs(g, c, u, v, cap, stats, node_budget=None, flow=None):
    """The verifier's rainbow-cut DFS before its walk search: below the
    first state that holds G's flow of value ``cap`` it keeps branching on
    the edges of a shortest path, with a closure test per state.

    Complete search for a rainbow u-v cut of at most ``cap`` edges.

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
    test before its path walk: it lists, for each walk without a chosen
    edge, the edges that are not excluded, whose heads lie outside the
    closure's reach and whose colors are unused, and hands those lists to
    the library's matcher (``_walks_matched``).  The first state
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
        closure = _CutClosure(g, u, {v}, residual)
        if walks is None:
            paths, walk_of = _flow_walks(g, u, {v}, residual, cap)
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
            if value > room:
                return None
            closed = {walk_of[e] for e in chosen}
            reach = closure.reach
            cands = [  # each open walk's candidates, None for a closed one
                None
                if w in closed
                else [
                    t
                    for t in walk
                    if t[0] not in excluded
                    and reach[t[1]] is None
                    and t[2] not in used
                ]
                for w, walk in enumerate(walks)
            ]
            if not _walks_matched(cands):
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


def reference_rainbow_min_cut_by_enumeration(g, colors, u, v):
    """The first rainbow certificate in ``enumerate_min_cuts`` order, or
    None: how the verifier once checked a pair whose minimum cuts it could
    list.  u and v must be joined."""
    for cert in enumerate_min_cuts(g, u, v):
        if _rainbow(colors, cert.cut):
            return cert
    return None


def reference_find_rainbow_min_cut(g, c, u, v, stats=None):
    """``find_rainbow_min_cut`` before its walk search and its stop at the
    sink side: ``reference_closure_dfs`` on all of G, capped at λ from one
    max flow, which it hands to the search.  Its prunes come from the package's
    closure and Hall tests on that flow; ``reference_rainbow_cut_dfs``,
    with a fresh flow per state, is the independent check of those tests.
    Returns the CutCertificate or None."""
    check_coloring_fits(g, c)
    _check_pair(g, u, v)
    stats = stats if stats is not None else SearchStats()
    flow = _max_flow(g, u, v)[:2]
    cut = reference_closure_dfs(g, c, u, v, flow[0], stats, flow=flow)
    if cut is None:
        return None
    return CutCertificate((u, v), cut, len(cut))


def reference_verify(g, c, mode, stats=None):
    """The verifier's pair loop before its cut tree: the rainbow-cut DFS for
    every pair in lexicographic order, capped at λ(u, v) from one max flow
    per pair for ``mode`` "srd" and at the number of colors for "rd".
    Returns the VerificationReport the verifier would give: the first pair
    without a cut fails, and each pair before it carries the DFS's cut.
    It runs ``reference_closure_dfs``, so its srd prunes are the package's
    closure and Hall tests on the pair's flow."""
    check_coloring_fits(g, c)
    if not is_connected(g):
        raise GraphStructureError("graph must be connected")
    stats = stats if stats is not None else SearchStats()
    cap = len(c.distinct_colors())
    witnesses = {}
    for u, v in combinations(range(g.vertex_count), 2):
        if mode == "srd":
            cap = local_edge_connectivity(g, u, v)
        cut = reference_closure_dfs(g, c, u, v, cap, stats)
        if cut is None:
            return VerificationReport(False, witnesses, (u, v))
        witnesses[(u, v)] = CutCertificate((u, v), cut, len(cut))
    return VerificationReport(True, witnesses)


def reference_edge_connectivity(g):
    """λ(G) from a flow from vertex 0 to every other vertex; 0 for a
    disconnected or single-vertex graph."""
    if g.vertex_count < 2 or not is_connected(g):
        return 0
    return min(local_edge_connectivity(g, 0, v) for v in range(1, g.vertex_count))


def reference_upper_edge_connectivity(g):
    """λ+(G) from one max flow per vertex pair."""
    return max(
        local_edge_connectivity(g, u, v)
        for u, v in combinations(range(g.vertex_count), 2)
    )


def reference_chromatic_index(g, budget=5_000_000):
    """(chromatic index, witness, color assignments tried) of the plain
    recursive backtracking that ``exact_chromatic_index`` prunes: most
    constrained edge first, at most one new color per node, and only the
    endpoint check (free colors >= uncolored edges) as a prune."""
    m = g.edge_count
    if m == 0:
        return 0, EdgeColoring(()), 0
    delta = g.max_degree()
    mult = 1
    if g.has_parallel_edges():
        pairs: dict = {}
        for a, b in g.edges:
            key = (a, b) if a < b else (b, a)
            pairs[key] = pairs.get(key, 0) + 1
        mult = max(pairs.values())

    nodes = 0

    def search(k: int):
        nonlocal nodes
        full = (1 << k) - 1
        vmask = [0] * g.vertex_count
        unc_deg = [g.degree(v) for v in range(g.vertex_count)]
        ecol = [0] * m
        uncolored = m

        def feasible_at(v: int) -> bool:
            return (full & ~vmask[v]).bit_count() >= unc_deg[v]

        def rec(max_used: int):
            nonlocal nodes, uncolored
            if uncolored == 0:
                return True
            best_e, best_avail, best_pop = -1, 0, k + 1
            for e in range(m):
                if ecol[e]:
                    continue
                a, b = g.edges[e]
                avail = full & ~(vmask[a] | vmask[b])
                p = avail.bit_count()
                if p == 0:
                    return False
                if p < best_pop:
                    best_e, best_avail, best_pop = e, avail, p
            e = best_e
            a, b = g.edges[e]
            allowed = best_avail & ((1 << min(k, max_used + 1)) - 1)
            bit = 1
            ci = 1
            while bit <= allowed:
                if allowed & bit:
                    nodes += 1
                    if nodes > budget:
                        raise BudgetExceededError(
                            f"chromatic index search exceeded {budget} nodes"
                        )
                    ecol[e] = ci
                    vmask[a] |= bit
                    vmask[b] |= bit
                    unc_deg[a] -= 1
                    unc_deg[b] -= 1
                    uncolored -= 1
                    if feasible_at(a) and feasible_at(b):
                        if rec(max(max_used, ci)):
                            return True
                    ecol[e] = 0
                    vmask[a] &= ~bit
                    vmask[b] &= ~bit
                    unc_deg[a] += 1
                    unc_deg[b] += 1
                    uncolored += 1
                bit <<= 1
                ci += 1
            return False

        if rec(0):
            return EdgeColoring(tuple(ecol))
        return None

    for k in range(delta, delta + mult + 1):
        witness = search(k)
        if witness is not None:
            return k, witness, nodes
    raise AssertionError("no proper coloring within the classical bound")


def reference_connected_graphs(n):
    """Edge lists of the connected simple graphs on n >= 1 vertices whose
    edge bitmask is minimal over all n! relabellings, in ascending mask
    order: the census ``all_connected_graphs`` reproduces by marking orbits,
    here as the direct test of every connected mask against every
    permutation."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: i for i, p in enumerate(pairs)}
    perm_maps = [
        [index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
        for perm in permutations(range(n))
    ]

    def relabel(mask, pm):
        out = 0
        i = 0
        while mask:
            if mask & 1:
                out |= 1 << pm[i]
            mask >>= 1
            i += 1
        return out

    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if oracle_component_count(n, edges) != 1:
            continue
        if any(relabel(mask, pm) < mask for pm in perm_maps):
            continue
        out.append(edges)
    return out


def reference_canonical_colorings(m, k):
    """Restricted-growth strings of length m over at most k colors, in
    lexicographic order, by recursion (depth m)."""

    def rec(prefix, mx):
        if len(prefix) == m:
            yield EdgeColoring(tuple(prefix))
            return
        for c in range(1, min(mx + 1, k) + 1):
            prefix.append(c)
            yield from rec(prefix, max(mx, c))
            prefix.pop()

    yield from rec([], 0)


def reference_search_level(g, tables, mode, k):
    """``solver._search_level`` as a recursive DFS (depth m): the first
    canonical exactly-k coloring that passes, and the candidates counted."""
    m = g.edge_count
    ways = [[0] * (k + 2) for _ in range(m + 1)]
    ways[0][k] = 1
    for r in range(1, m + 1):
        for mx in range(k + 1):
            ways[r][mx] = mx * ways[r - 1][mx] + ways[r - 1][mx + 1]
    cut_pairs = {}
    for i, cuts in enumerate(tables or ()):
        for cut in cuts:
            cut_pairs.setdefault(cut, []).append(i)
    touching = [[] for _ in range(m)]
    for cid, (cut, pairs) in enumerate(cut_pairs.items()):
        for j, e in enumerate(cut):
            touching[e].append((cid, pairs, cut[:j]))
    alive = [len(cuts) for cuts in tables or ()]
    dead = [False] * len(cut_pairs)
    colors = [0] * m
    tested = 0

    def verified():
        c = EdgeColoring(tuple(colors))
        if mode == "srd":
            return is_srd_coloring(g, c).verdict
        return is_rd_coloring(g, c).verdict

    def rec(p, mx):
        nonlocal tested
        for c in range(1, min(mx + 1, k) + 1):
            top = max(mx, c)
            if k - top > m - p - 1:
                continue
            colors[p] = c
            killed = [
                (cid, pairs)
                for cid, pairs, earlier in touching[p]
                if not dead[cid] and any(colors[q] == c for q in earlier)
            ]
            for cid, pairs in killed:
                dead[cid] = True
                for i in pairs:
                    alive[i] -= 1
            if killed and 0 in alive:
                tested += ways[m - p - 1][top]
            elif p + 1 < m:
                if rec(p + 1, top):
                    return True
            else:
                tested += 1
                if tables is not None or verified():
                    return True
            for cid, pairs in killed:
                dead[cid] = False
                for i in pairs:
                    alive[i] += 1
        return False

    if rec(0, 0):
        return EdgeColoring(tuple(colors)), tested
    return None, tested


def reference_min_nontrivial_pair_cut(g, limit=200_000):
    """``colorings._min_nontrivial_pair_cut`` the long way: a λ flow for
    every pair, then the pairs in (λ, pair) order, each enumerated and each
    of its cuts' sides found, until λ exceeds the best cut found.  Raises at
    the first pair it enumerates that has ``limit`` or more minimum cuts."""
    n = g.vertex_count
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    lam = {p: local_edge_connectivity(g, *p) for p in pairs}
    pairs.sort(key=lambda p: (lam[p], p))

    best = None  # (value, cut_tuple, pair, side)
    for p in pairs:
        if best is not None and lam[p] > best[0]:
            break
        certs = enumerate_min_cuts(g, *p, limit=limit)
        if len(certs) >= limit:
            raise ColoringError(
                f"pair {p} has at least {limit} minimum cuts; "
                "refusing to classify the graph"
            )
        for cert in certs:
            labels = _component_labels(n, g.edges, cert.cut)
            side = frozenset(x for x in range(n) if labels[x] == labels[p[0]])
            if 2 <= len(side) <= n - 2:
                key = (cert.value, tuple(sorted(cert.cut)), p, side)
                if best is None or key[:3] < best[:3]:
                    best = key
    return None if best is None else best[3]


def reference_bfs(g, start, capacity, target=None):
    """``graph._bfs`` with its tree in a dict: {vertex: arc that first
    reached it} for the vertices reached, -1 for ``start``, in the same
    FIFO order over ``g._arcs`` and with the same stop at ``target``."""
    tree = {start: -1}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for w, a in g._arcs[x]:
            if w in tree or not capacity[a]:
                continue
            tree[w] = a
            if w == target:
                return tree
            queue.append(w)
    return tree


def _tarjan_scc(n, succ):
    """Iterative Tarjan SCC; succ[v] is an iterable of successors.  Returns
    comp, with each component's successors in components of lower ids."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack = []
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


def _crossing_edges(g, side):
    return frozenset(
        eid for eid, (u, v) in enumerate(g.edges) if (u in side) != (v in side)
    )


def reference_bond_tables(g):
    """The rd tables of ``solver._pair_cut_tables``: each pair's bonds
    δ(S), S holding vertex 0, found by one set S per side, its crossing
    edges sorted, and two ``_bfs`` walks over G less them; None when the
    2^(n-1) sides pass ``DEFAULT_THRESHOLD``."""
    n = g.vertex_count
    pairs = list(combinations(range(n), 2))
    if 2 ** (n - 1) > DEFAULT_THRESHOLD:
        return None
    tables = [[] for _ in pairs]
    for bits in range(2 ** (n - 1) - 1):
        side = {0} | {v for v in range(1, n) if bits >> (v - 1) & 1}
        cut = tuple(sorted(_crossing_edges(g, side)))
        other = min(set(range(n)) - side)
        capacity = _open_arcs(g, cut)
        # a bond: the walks from 0 and from other reach all n vertices
        if _bfs(g, 0, capacity).count(None) + _bfs(g, other, capacity).count(None) == n:
            for i, (u, v) in enumerate(pairs):
                if (u in side) != (v in side):
                    tables[i].append(cut)
    return tables


def reference_walk_min_cuts(g, u, v, residual, limit):
    """The minimum u-v cuts of the maximum flow ``residual`` by
    Picard-Queyranne over the residual's strongly connected components:
    include/exclude each free component, depth first, keeping the source
    side closed, and read each side's cut from all edges.  Returns the cuts
    as sorted EdgeId tuples in the order the walk reaches their source
    sides, stopping after limit + 1 sides.  Distinct sides can give one
    cut when G is disconnected, so a side list may repeat a cut."""
    n = g.vertex_count
    succ = [{w for w, arc in arcs if residual[arc]} for arcs in g._arcs]
    comp = _tarjan_scc(n, [tuple(s) for s in succ])
    ncomp = max(comp) + 1 if n else 0
    csucc = [set() for _ in range(ncomp)]
    for a in range(n):
        for b in succ[a]:
            if comp[a] != comp[b]:
                csucc[comp[a]].add(comp[b])
    must_in, must_out = {comp[u]}, {comp[v]}
    free = sorted(set(range(ncomp)) - must_in - must_out)
    free_succ = {c: [d for d in csucc[c] if d not in must_in] for c in free}
    comp_vertices = [[] for _ in range(ncomp)]
    for vert in range(n):
        comp_vertices[comp[vert]].append(vert)

    sides = []
    chosen = set()
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
            verts = set()
            for c in must_in | chosen:
                verts.update(comp_vertices[c])
            sides.append(frozenset(verts))
        else:
            stack += [("include", i), ("visit", i + 1)]
    return [tuple(sorted(_crossing_edges(g, side))) for side in sides]


def reference_two_color(g):
    """Proper 2-coloring of the vertices by a level-by-level walk over
    ``g.adj``, or NotBipartiteError carrying an odd cycle as its witness."""
    n = g.vertex_count
    side = [-1] * n
    parent = [-1] * n
    depth = [0] * n
    for root in range(n):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for x in queue:
                for w, _ in g.adj[x]:
                    if side[w] == -1:
                        side[w] = 1 - side[x]
                        parent[w] = x
                        depth[w] = depth[x] + 1
                        nxt.append(w)
                    elif side[w] == side[x]:
                        # climb to the meeting point for an odd cycle
                        a, b = x, w
                        left, right = [a], [b]
                        while depth[a] > depth[b]:
                            a = parent[a]
                            left.append(a)
                        while depth[b] > depth[a]:
                            b = parent[b]
                            right.append(b)
                        while a != b:
                            a, b = parent[a], parent[b]
                            left.append(a)
                            right.append(b)
                        raise NotBipartiteError(tuple(left + right[-2::-1]))
            queue = nxt
    return side


def reference_is_cactus_with_cycle(g):
    """Connected, every block a single edge or a cycle, at least one
    cycle; a cycle block has as many edges as vertices and every vertex of
    degree 2 in it (a pair of parallel edges is a 2-cycle)."""
    if g.vertex_count == 0 or not is_connected(g):
        return False
    has_cycle = False
    for blk in blocks(g).blocks:
        sub = blk.subgraph.graph
        if sub.edge_count == 1:
            continue
        if sub.edge_count == sub.vertex_count and all(
            sub.degree(v) == 2 for v in range(sub.vertex_count)
        ):
            has_cycle = True
            continue
        return False
    return has_cycle


def reference_multiplicity(g):
    """The most edges joining one vertex pair, 0 without edges."""
    pairs = {}
    for a, b in g.edges:
        key = (a, b) if a < b else (b, a)
        pairs[key] = pairs.get(key, 0) + 1
    return max(pairs.values(), default=0)
