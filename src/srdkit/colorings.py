"""Edge colorings: the base type, proper-coloring machinery, and the
constructive schemes for the graph families with known srd values."""

from __future__ import annotations

from dataclasses import dataclass

from .connectivity import _enumerate_min_cuts, edge_connectivity
from .errors import (
    BudgetExceededError,
    ColoringError,
    GraphParseError,
    NotBipartiteError,
)
from .graph import (
    Graph,
    SubgraphView,
    _bfs,
    _cactus_cycles,
    _multiplicity,
    _odd_cycle,
    _open_arcs,
    _reached,
    blocks,
    complete_graph,
    complete_multipartite_graph,
    grid_graph,
    induced_subgraph,
    is_cactus_with_cycle,
    is_connected,
    is_tree,
)


@dataclass(frozen=True)
class EdgeColoring:
    """Total map EdgeId -> positive color, stored positionally.

    ``colors[i]`` is the color of EdgeId i; ``num_colors`` is the maximum
    color used (colors need not be contiguous).
    """

    colors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))
        if any(c < 1 for c in self.colors):
            raise ColoringError("colors must be positive integers")

    @property
    def num_colors(self) -> int:
        return max(self.colors, default=0)

    def distinct_colors(self) -> frozenset[int]:
        return frozenset(self.colors)

    def __len__(self) -> int:
        return len(self.colors)

    def __getitem__(self, eid: int) -> int:
        return self.colors[eid]


def parse_coloring(text: str, edge_count: int | None = None) -> EdgeColoring:
    """Parse a coloring file: one color per line, optional ``colors k`` header."""
    values: list[int] = []
    declared: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("colors"):
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdecimal():
                raise GraphParseError("bad 'colors k' header", lineno)
            try:
                declared = int(parts[1])
            except ValueError:  # more digits than int() converts
                raise GraphParseError("bad 'colors k' header", lineno) from None
            continue
        try:
            c = int(line)
        except ValueError:
            raise GraphParseError(f"expected a color integer, got {raw!r}", lineno)
        if c < 1:
            raise GraphParseError("colors are positive integers", lineno)
        values.append(c)
    coloring = EdgeColoring(tuple(values))
    if edge_count is not None and len(values) != edge_count:
        raise GraphParseError(
            f"coloring has {len(values)} entries for a graph with {edge_count} edges"
        )
    if declared is not None and coloring.num_colors > declared:
        raise GraphParseError(
            f"header declares {declared} colors but {coloring.num_colors} are used"
        )
    return coloring


def serialize_coloring(c: EdgeColoring) -> str:
    lines = [f"colors {c.num_colors}"]
    lines.extend(str(x) for x in c.colors)
    return "\n".join(lines) + "\n"


def check_coloring_fits(g: Graph, c: EdgeColoring):
    if len(c) != g.edge_count:
        raise ColoringError(
            f"coloring covers {len(c)} edges, graph has {g.edge_count}"
        )


def normalize_colors(c: EdgeColoring) -> EdgeColoring:
    """Renumber colors to 1..k in order of first appearance.

    Color classes are preserved, so rainbow sets are unchanged.
    """
    remap: dict[int, int] = {}
    out = []
    for x in c.colors:
        if x not in remap:
            remap[x] = len(remap) + 1
        out.append(remap[x])
    return EdgeColoring(tuple(out))


# ---------------------------------------------------------------------------
# proper edge colorings


def is_proper(g: Graph, c: EdgeColoring) -> bool:
    """True when no two edges sharing a vertex share a color."""
    check_coloring_fits(g, c)
    for v in range(g.vertex_count):
        seen = set()
        for _, eid in g.adj[v]:
            if c[eid] in seen:
                return False
            seen.add(c[eid])
    return True


def _rebuild_used(g: Graph, ecol: list, used: list, vertices) -> None:
    for v in vertices:
        used[v] = {ecol[eid] for _, eid in g.adj[v] if ecol[eid] is not None}


def _smallest_free(used_at: set, limit: int) -> int:
    for c in range(1, limit + 1):
        if c not in used_at:
            return c
    raise AssertionError("no free color within the palette")


def _invert_kempe_chain(g: Graph, ecol: list, used: list, start: int, a: int, b: int):
    """Swap colors a and b along the maximal path from ``start`` whose edges
    alternate a, b, a, ..., then refresh ``used`` at every vertex it touched."""
    path = []
    x, want, prev = start, a, -1
    while True:
        step = None
        for w, eid in g.adj[x]:
            if eid != prev and ecol[eid] == want:
                step = (w, eid)
                break
        if step is None:
            break
        path.append(step[1])
        x, prev = step
        want = b if want == a else a
    touched = {start}
    for eid in path:
        ecol[eid] = b if ecol[eid] == a else a
        touched.update(g.edges[eid])
    _rebuild_used(g, ecol, used, touched)


def greedy_fan_coloring(g: Graph) -> EdgeColoring:
    """Proper coloring of a simple graph with at most ``max_degree + 1``
    colors, built by fan rotation and alternating-path inversion.

    Each uncolored edge (u, v) is handled by growing a maximal fan of u
    from v, freeing a common color through a two-colored path inversion,
    then rotating a fan prefix.  O(m * n) overall.
    """
    if g.has_parallel_edges():
        raise ColoringError("fan coloring requires a simple graph")
    m = g.edge_count
    if m == 0:
        return EdgeColoring(())
    palette = g.max_degree() + 1
    ecol: list = [None] * m
    used: list = [set() for _ in range(g.vertex_count)]

    for e0 in range(m):
        if ecol[e0] is not None:
            continue
        u, v0 = g.edges[e0]

        # maximal fan of u starting at v0: each later fan edge's color is
        # free at the previous fan vertex
        fan = [(v0, e0)]
        in_fan = {v0}
        while True:
            last = fan[-1][0]
            ext = None
            for w, eid in g.adj[u]:
                if w in in_fan or ecol[eid] is None:
                    continue
                if ecol[eid] not in used[last]:
                    ext = (w, eid)
                    break
            if ext is None:
                break
            fan.append(ext)
            in_fan.add(ext[0])

        c = _smallest_free(used[u], palette)
        d = _smallest_free(used[fan[-1][0]], palette)

        if d in used[u]:
            # free d at u: invert the maximal path from u whose edges
            # alternate d, c, d, ...  It cannot loop back to u (u has no
            # c-edge), so afterwards d is free at u and c is not.
            _invert_kempe_chain(g, ecol, used, u, d, c)

        # first fan vertex with d free whose prefix is still a fan
        w_idx = None
        for i, (fv, feid) in enumerate(fan):
            if i > 0 and (ecol[feid] is None or ecol[feid] in used[fan[i - 1][0]]):
                break
            if d not in used[fv]:
                w_idx = i
                break
        if w_idx is None:
            raise AssertionError("fan rotation found no valid target")

        shift = {fan[j][1]: ecol[fan[j + 1][1]] for j in range(w_idx)}
        shift[fan[w_idx][1]] = d
        for eid, col in shift.items():
            ecol[eid] = col
        _rebuild_used(g, ecol, used, [u] + [fan[j][0] for j in range(w_idx + 1)])

    return EdgeColoring(tuple(ecol))


def bipartite_proper_coloring(g: Graph) -> EdgeColoring:
    """Proper coloring of a bipartite graph with exactly ``max_degree``
    colors, via alternating-path (Kempe chain) insertion."""
    cycle = _odd_cycle(g)
    if cycle is not None:
        raise NotBipartiteError(cycle)
    m = g.edge_count
    if m == 0:
        return EdgeColoring(())
    delta = g.max_degree()
    ecol: list = [None] * m
    used: list = [set() for _ in range(g.vertex_count)]

    for e in range(m):
        u, v = g.edges[e]
        a = _smallest_free(used[u], delta)
        b = _smallest_free(used[v], delta)
        if a != b:
            # free the smaller color at the endpoint missing it by
            # flipping the a/b alternating path from that endpoint; the
            # path cannot reach the other endpoint (parity across sides)
            if a < b:
                start, lo, hi = v, a, b
            else:
                start, lo, hi = u, b, a
            _invert_kempe_chain(g, ecol, used, start, lo, hi)
            a = lo
        ecol[e] = a
        used[u].add(a)
        used[v].add(a)

    return EdgeColoring(tuple(ecol))


def exact_chromatic_index(
    g: Graph, budget: int = 5_000_000
) -> tuple[int, EdgeColoring]:
    """Minimum number of colors in any proper edge coloring, with a witness.

    Backtracking over edges, most-constrained edge first, trying at most one
    previously-unused color per node.  ``budget`` caps the total number of
    color assignments tried across all palette sizes; exceeding it raises
    BudgetExceededError (the answer is then unknown, never wrong).

    Two prunes reject a state: an endpoint of the edge just colored with
    fewer free colors than uncolored edges, and a counting bound.  A color
    class is a matching, so color c can go on at most floor(f_c / 2) more
    edges, where f_c counts the vertices that still have an uncolored edge
    and do not see c yet; a state (the root included) whose uncolored edges
    outnumber the sum of those floors has no completion.  The f_c and their
    sum are updated as an edge is colored and uncolored, not recounted.
    Both prunes cut only subtrees with no proper completion, so the search
    meets the same first witness as one without them, after at most as
    many assignments.  On a tight graph, m = Δ·floor(n/2), every color
    class must be a near-perfect matching, and the bound cuts a choice as
    soon as it leaves too many vertices unmatched in some color.

    The states are visited depth first with an explicit stack of one frame
    per colored edge on the current path (its edge, the colors it has left
    to try and the highest color used before it), so no recursion limit
    applies.
    """
    m = g.edge_count
    if m == 0:
        return 0, EdgeColoring(())
    delta = g.max_degree()
    mult = _multiplicity(g)

    n = g.vertex_count
    edges = g.edges
    nodes = 0

    def search(k: int):
        nonlocal nodes
        full = (1 << k) - 1
        vmask = [0] * n
        unc_deg = [g.degree(v) for v in range(n)]
        ecol = [0] * m
        uncolored = m
        # free[c]: vertices with an uncolored edge that miss color c + 1;
        # room: the sum of free[c] // 2 over the k colors
        free = [sum(1 for d in unc_deg if d)] * k
        room = k * (free[0] // 2)

        def shift_free(colors: int, step: int):
            """Add ``step`` (+1 or -1) to free[] of each color in ``colors``
            and keep ``room`` in step."""
            nonlocal room
            while colors:
                low = colors & -colors
                colors ^= low
                c = low.bit_length() - 1
                x = free[c]
                room += (x + step) // 2 - x // 2
                free[c] = x + step

        def feasible_at(v: int) -> bool:
            return (full & ~vmask[v]).bit_count() >= unc_deg[v]

        def branch(max_used: int):
            """Push a frame for the most constrained uncolored edge; push
            nothing at a dead end, an edge with no color left."""
            best_e, best_avail, best_pop = -1, 0, k + 1
            for e in range(m):
                if ecol[e]:
                    continue
                a, b = edges[e]
                avail = full & ~(vmask[a] | vmask[b])
                p = avail.bit_count()
                if p == 0:
                    return
                if p < best_pop:
                    best_e, best_avail, best_pop = e, avail, p
            allowed = best_avail & ((1 << min(k, max_used + 1)) - 1)
            stack.append([best_e, allowed, max_used])

        stack: list[list[int]] = []  # [edge, colors left to try, max used]
        if uncolored <= room:
            branch(0)
        while stack:
            frame = stack[-1]
            e, allowed, max_used = frame
            a, b = edges[e]
            if ecol[e]:
                # the previous color's subtree is done: take it back
                bit = 1 << (ecol[e] - 1)
                ecol[e] = 0
                uncolored += 1
                for v in (a, b):
                    vmask[v] &= ~bit
                    shift_free(bit if unc_deg[v] else full & ~vmask[v], 1)
                    unc_deg[v] += 1
            if not allowed:
                stack.pop()
                continue
            bit = allowed & -allowed
            frame[1] = allowed ^ bit
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"chromatic index search exceeded {budget} nodes"
                )
            ci = bit.bit_length()
            ecol[e] = ci
            uncolored -= 1
            for v in (a, b):
                unc_deg[v] -= 1
                # v leaves free[] of this color, or of every color it
                # misses once it has no uncolored edge left
                shift_free(bit if unc_deg[v] else full & ~vmask[v], -1)
                vmask[v] |= bit
            if feasible_at(a) and feasible_at(b) and uncolored <= room:
                if uncolored == 0:
                    return EdgeColoring(tuple(ecol))
                branch(max(max_used, ci))
        return None

    for k in range(delta, delta + mult + 1):
        witness = search(k)
        if witness is not None:
            return k, witness
    raise AssertionError("no proper coloring within the classical bound")


# ---------------------------------------------------------------------------
# constructive schemes for families with known values
#
# Every function below returns a coloring for which each vertex pair has a
# rainbow minimum cut (checked exhaustively in the tests via the verifier).


def color_tree(g: Graph) -> EdgeColoring:
    """One color suffices: every pair is separated by a single bridge."""
    if not is_tree(g):
        raise ColoringError("graph is not a tree")
    return EdgeColoring((1,) * g.edge_count)


def color_cactus(g: Graph) -> EdgeColoring:
    """Two colors for a connected graph whose blocks are edges and cycles
    (at least one cycle): color one edge of each cycle 2, the rest 1.

    A minimum cut between any pair is a bridge or two edges of one cycle,
    and every cycle carries both colors.
    """
    cycles = _cactus_cycles(g)
    if not cycles:
        raise ColoringError("graph is not a cactus containing a cycle")
    colors = [1] * g.edge_count
    for blk in cycles:
        colors[min(blk.edge_ids)] = 2
    return EdgeColoring(tuple(colors))


def _round_robin_rounds(even_n: int) -> dict:
    """Partition the edges of K_n (n even) into n - 1 perfect matchings.

    Vertex n-1 is fixed; the rest rotate.  Returns (i, j) -> round index.
    """
    rounds: dict = {}
    mod = even_n - 1
    for r in range(mod):
        a, b = r, even_n - 1
        rounds[(min(a, b), max(a, b))] = r
        for k in range(1, even_n // 2):
            a, b = (r + k) % mod, (r - k) % mod
            rounds[(min(a, b), max(a, b))] = r
    return rounds


def color_complete(n: int) -> tuple[Graph, EdgeColoring]:
    """K_n with n - 1 colors.

    Even n: a 1-factorization, one color per perfect matching, so every
    E_v is rainbow.  Odd n: factorize K_{n-1} with n - 2 colors and give
    every edge at the last vertex the color n - 1.  Every E_v but the last
    vertex's is then rainbow, and no pair's minimum cut needs that star:
    λ = n - 1 for every pair, so the other vertex's star is a minimum cut.
    """
    if n < 2:
        raise ColoringError("complete graphs need at least 2 vertices")
    g = complete_graph(n)
    if n % 2 == 0:
        rounds = _round_robin_rounds(n)
        colors = tuple(rounds[e] + 1 for e in g.edges)
    else:
        rounds = _round_robin_rounds(n - 1)
        colors = tuple(
            n - 1 if j == n - 1 else rounds[(i, j)] + 1 for i, j in g.edges
        )
    return g, EdgeColoring(colors)


def _proper_with_exactly_delta(g: Graph, budget: int) -> EdgeColoring:
    delta = g.max_degree()
    c = greedy_fan_coloring(g)
    if c.num_colors <= delta:
        return c
    k, c = exact_chromatic_index(g, budget=budget)
    if k != delta:
        raise AssertionError("expected a class 1 graph")
    return c


def _reattach_vertex(
    g: Graph, x0: int, rest: SubgraphView, sub: EdgeColoring, palette: int
) -> EdgeColoring:
    """Extend ``sub``, a coloring of ``rest`` = g minus vertex x0, to g:
    each edge at x0 takes the smallest color of 1..palette not yet used at
    its other endpoint."""
    colors = [0] * g.edge_count
    for local_eid, parent_eid in enumerate(rest.edge_map):
        colors[parent_eid] = sub[local_eid]
    used_at = [set() for _ in range(rest.graph.vertex_count)]
    for local_eid, (a, b) in enumerate(rest.graph.edges):
        used_at[a].add(sub[local_eid])
        used_at[b].add(sub[local_eid])
    for eid, (a, b) in enumerate(g.edges):
        if colors[eid]:
            continue
        used = used_at[rest.vertex_map[a if b == x0 else b]]
        colors[eid] = _smallest_free(used, palette)
        used.add(colors[eid])
    return EdgeColoring(tuple(colors))


def color_complete_multipartite(
    sizes, budget: int = 5_000_000
) -> tuple[Graph, EdgeColoring]:
    """Complete multipartite graph on ascending part sizes, colored with
    n - n_2 colors when the smallest part is a single vertex and n - n_1
    colors otherwise.

    Both cases delete vertex 0, which lies in the smallest part and so has
    maximum degree, color the rest properly, and give each reattached edge
    a color missing at its other endpoint.  Every E_v but vertex 0's is
    then rainbow, and no pair's minimum cut needs that star: λ(0, v) is
    deg v, so E_v is a minimum cut.
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ColoringError("need at least two parts of positive size")
    if list(sizes) != sorted(sizes):
        raise ColoringError("part sizes must be ascending")
    g = complete_multipartite_graph(sizes)
    n = g.vertex_count
    rest = induced_subgraph(g, range(1, n))
    h = rest.graph

    if sizes[0] == 1:
        sub = greedy_fan_coloring(h)
        palette = h.max_degree() + 1  # = n - n_2
    else:
        sub = _proper_with_exactly_delta(h, budget)
        palette = h.max_degree()  # = n - n_1

    return g, _reattach_vertex(g, 0, rest, sub, palette)


def color_grid(m: int, n: int) -> tuple[Graph, EdgeColoring]:
    """Grid P_m x P_n (sides normalized so m <= n) with the minimum number
    of colors for each shape: 1 for paths, 2 for G_{2,2}, 3 for two rows
    with n >= 3 and for three rows, 4 otherwise.

    G_{2,2} is the 4-cycle and takes a proper 2-coloring.  The 3-color
    schemes work modulo 3 along the columns: horizontals in row i get
    (i + j + 1) mod 3, verticals get j mod 3 (rows 1-2) shifted by 2 for
    rows 2-3, with all indices 1-based.  Wide grids take a proper
    4-coloring, which is rainbow on every vertex star.
    """
    m, n = int(m), int(n)
    if m < 1 or n < 1 or m * n < 2:
        raise ColoringError("grid needs at least two vertices")
    if m > n:
        m, n = n, m
    g = grid_graph(m, n)

    if m == 1:
        return g, EdgeColoring((1,) * g.edge_count)
    if m >= 4 or n == 2:
        return g, bipartite_proper_coloring(g)

    colors = []
    # horizontals first (grid_graph edge order), then verticals; 1-based
    for i in range(1, m + 1):
        for j in range(1, n):
            colors.append((i + j + 1) % 3 + 1)
    for i in range(1, m):
        for j in range(1, n + 1):
            colors.append((j % 3) + 1 if i == 1 else ((j + 2) % 3) + 1)
    return g, EdgeColoring(tuple(colors))


def color_regular(g: Graph, budget: int = 5_000_000) -> EdgeColoring:
    """Proper coloring of a connected k-regular graph whose edge
    connectivity is exactly k.  Every pairwise minimum cut is then some
    vertex star, which a proper coloring makes rainbow.

    Uses the fewest colors the budget allows: the exact chromatic index
    when the search completes, otherwise max_degree + 1.
    """
    if g.vertex_count < 2 or not is_connected(g):
        raise ColoringError("graph must be connected")
    degrees = {g.degree(v) for v in range(g.vertex_count)}
    if len(degrees) != 1:
        raise ColoringError("graph is not regular")
    k = degrees.pop()
    if k < 1:
        raise ColoringError("graph has no edges")
    if edge_connectivity(g) != k:
        raise ColoringError(f"{k}-regular graph is not {k}-edge-connected")
    try:
        _, c = exact_chromatic_index(g, budget=budget)
        return c
    except BudgetExceededError:
        return normalize_colors(greedy_fan_coloring(g))


def _min_nontrivial_pair_cut(g: Graph, limit: int = 200_000):
    """Smallest nontrivial minimum cut over all vertex pairs of a connected
    graph, as the vertex side containing the pair's first vertex, or None
    when every minimum cut of every pair is some vertex star.

    Deterministic: smallest (cut size, edge tuple, pair) wins.  Raises when
    a pair with ``limit`` or more minimum cuts, too many to enumerate
    exhaustively, has λ no larger than the best cut, because a cut missed
    there could misclassify the graph.
    """
    n = g.vertex_count
    stars = [frozenset(eid for _, eid in nb) for nb in g.adj]
    best = None  # (value, cut tuple, pair)
    overflow = None  # least (value, pair) with limit or more cuts
    for u in range(n):
        for v in range(u + 1, n):
            certs, (value, _) = _enumerate_min_cuts(g, u, v, limit)
            if len(certs) >= limit:
                if overflow is None or value < overflow[0]:
                    overflow = (value, (u, v))
                continue
            # a minimum cut of a connected graph is a bond, so it has a
            # one-vertex side only when it is that vertex's star; the
            # certificates come sorted, so the first other one is the pair's
            for cert in certs:
                if cert.cut != stars[u] and cert.cut != stars[v]:
                    key = (value, tuple(sorted(cert.cut)), (u, v))
                    if best is None or key < best:
                        best = key
                    break
    if overflow is not None and (best is None or overflow[0] <= best[0]):
        raise ColoringError(
            f"pair {overflow[1]} has at least {limit} minimum cuts; "
            "refusing to classify the graph"
        )
    if best is None:
        return None
    _, cut, (u, _) = best
    return _reached(_bfs(g, u, _open_arcs(g, cut)))


def _spare_one_star(g: Graph, budget: int) -> EdgeColoring:
    """Rainbow star at every vertex except one of maximum degree.

    Pairs whose minimum cuts are all vertex stars never need the spared
    vertex's star: the other endpoint's degree is no larger.
    """
    x0 = max(range(g.vertex_count), key=lambda v: (g.degree(v), -v))
    rest = induced_subgraph(
        g, [v for v in range(g.vertex_count) if v != x0]
    )
    _, sub = exact_chromatic_index(rest.graph, budget=budget)
    palette = max(g.max_degree(), sub.num_colors)
    return normalize_colors(_reattach_vertex(g, x0, rest, sub, palette))


def color_general_upper(g: Graph, budget: int = 5_000_000) -> EdgeColoring:
    """Rainbow-min-cut coloring of any connected graph on >= 3 vertices
    with at most e(G) - 1 colors.

    Trees take one color and cactus graphs two.  If some pair of vertices
    has a minimum cut with two or more vertices on both sides, take the
    smallest such cut d(X): color G[X] and the complement side rainbow over
    one shared palette and give the crossing edges fresh colors.  Cuts
    cheaper than d(X) are all vertex stars E_v, which are rainbow; cuts
    inside one side stay rainbow by the contraction argument.  When no such
    pair exists every minimum cut is a vertex star and a proper coloring
    suffices.
    """
    if g.vertex_count < 3:
        raise ColoringError("needs at least 3 vertices")
    if not is_connected(g):
        raise ColoringError("graph must be connected")
    if is_tree(g):
        return color_tree(g)
    if is_cactus_with_cycle(g):
        return color_cactus(g)
    m = g.edge_count

    side = _min_nontrivial_pair_cut(g)
    if side is None:
        # every minimum cut is E_u or E_v; rainbow vertex stars suffice
        if g.has_parallel_edges():
            # a proper coloring may need more than e - 1 colors here, but
            # one max-degree vertex never supplies the cut: color the rest
            # properly and reattach its edges on colors missing at the far
            # endpoints, as in the odd complete graph scheme
            c = _spare_one_star(g, budget)
        else:
            c = normalize_colors(greedy_fan_coloring(g))
        if c.num_colors > m - 1:
            raise AssertionError("proper coloring exceeded the e - 1 bound")
        return c

    colors = [0] * m
    boundary = []
    nxt_x = nxt_y = 1
    for eid, (a, b) in enumerate(g.edges):
        ina, inb = a in side, b in side
        if ina and inb:
            colors[eid] = nxt_x
            nxt_x += 1
        elif not ina and not inb:
            colors[eid] = nxt_y
            nxt_y += 1
        else:
            boundary.append(eid)
    if nxt_x == 1 or nxt_y == 1:
        raise AssertionError("a smallest nontrivial cut side spans no edge")
    fresh = max(nxt_x, nxt_y)
    for eid in boundary:
        colors[eid] = fresh
        fresh += 1
    c = EdgeColoring(tuple(colors))
    assert c.num_colors <= m - 1
    return c


def color_by_blocks(g: Graph, block_colorings) -> EdgeColoring:
    """Assemble a whole-graph coloring from one coloring per block, sharing
    a single palette.  Any two vertices have all their minimum cuts inside
    one block, so rainbow cuts survive the gluing.
    """
    decomposition = blocks(g)
    if len(block_colorings) != len(decomposition.blocks):
        raise ColoringError(
            f"got {len(block_colorings)} colorings for "
            f"{len(decomposition.blocks)} blocks"
        )
    colors = [0] * g.edge_count
    for blk, sub in zip(decomposition.blocks, block_colorings):
        if len(sub) != len(blk.edge_ids):
            raise ColoringError("block coloring does not fit its block")
        for local_eid, parent_eid in enumerate(blk.subgraph.edge_map):
            colors[parent_eid] = sub[local_eid]
    return EdgeColoring(tuple(colors))
