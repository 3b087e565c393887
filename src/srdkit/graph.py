"""Loopless multigraph core with stable edge identities.

Every edge is identified by its position in the edge list (its EdgeId), and
every derived view (induced subgraph, block subgraph, contraction) carries an
explicit mapping back to the parent's EdgeIds.  Cut certificates, colorings
and reports all speak in terms of these ids, so the mappings are load-bearing,
not a convenience.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ColoringError, ContractionError, GraphParseError, GraphStructureError


class Graph:
    """Immutable undirected multigraph on vertices 0..vertex_count-1.

    Parallel edges are permitted, self-loops are not.  EdgeId i refers to
    ``edges[i]``.  ``_arcs[x]`` lists x's (neighbour, arc) pairs in ``adj``
    order for ``_bfs``.
    """

    __slots__ = ("vertex_count", "edges", "adj", "_arcs")

    def __init__(self, vertex_count: int, edges):
        edges, index = tuple(edges), operator.index
        try:
            vertex_count = index(vertex_count)
            edges = tuple((index(u), index(v)) for u, v in edges)
        except TypeError:  # name the value that int() would truncate or parse
            ends = [vertex_count, *(x for e in edges for x in e)]
            _integers(ends, GraphStructureError, "vertex_count and endpoints")
            raise
        if vertex_count < 0:
            raise GraphStructureError("vertex_count must be non-negative")
        adj: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
        arcs: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphStructureError(
                    f"edge {eid} endpoint out of range: ({u}, {v})"
                )
            if u == v:
                raise GraphStructureError(f"edge {eid} is a self-loop at {u}")
            adj[u].append((v, eid))
            adj[v].append((u, eid))
            arcs[u].append((v, 2 * eid))
            arcs[v].append((u, 2 * eid + 1))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "adj", tuple(tuple(nb) for nb in adj))
        object.__setattr__(self, "_arcs", tuple(tuple(nb) for nb in arcs))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # __slots__ plus the immutability guard defeat default pickling
        return (Graph, (self.vertex_count, self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        if self.vertex_count == 0:
            return 0
        return max(len(nb) for nb in self.adj)

    def has_parallel_edges(self) -> bool:
        return _multiplicity(self) > 1

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"Graph(vertex_count={self.vertex_count}, edges={list(self.edges)})"


def _integers(values, error, what) -> tuple:
    """``values`` as ints by ``operator.index``: ints and bools pass, and the
    first value that int() would truncate or parse raises ``error``."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next(x for x in values if not hasattr(x, "__index__"))
        raise error(f"{what} must be integers, got {bad!r}") from None


def _multiplicity(g: Graph) -> int:
    """μ(G): the most edges joining one vertex pair, 0 without edges."""
    pairs = Counter((u, v) if u < v else (v, u) for u, v in g.edges)
    return max(pairs.values(), default=0)


# ---------------------------------------------------------------------------
# text format


def _int(token: str) -> int:
    """The integer that ``token`` spells in ASCII: an optional sign, then
    decimal digits.  int() also reads digit-group underscores and non-ASCII
    digits such as "٢"; here they raise ValueError, as other text does."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(token)


def parse_graph(text: str) -> Graph:
    """Parse the plain edge-list format.

    First significant line is ``n m``, followed by exactly m lines ``u v``
    (0-based endpoints).  Lines that are blank or start with ``#`` are
    skipped.  EdgeIds are assigned in file order.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected two integers, got {raw!r}", lineno)
        try:
            a, b = _int(parts[0]), _int(parts[1])
        except ValueError:
            raise GraphParseError(f"expected two integers, got {raw!r}", lineno)
        if header is None:
            if a < 0 or b < 0:
                raise GraphParseError("header counts must be non-negative", lineno)
            header = (a, b)
            continue
        n, m = header
        if len(edges) >= m:
            raise GraphParseError(
                f"more than the declared {m} edge lines", lineno
            )
        if not (0 <= a < n and 0 <= b < n):
            raise GraphParseError(
                f"endpoint out of range for {n} vertices: {a} {b}", lineno
            )
        if a == b:
            raise GraphParseError(f"self-loop at vertex {a} not allowed", lineno)
        edges.append((a, b))
    if header is None:
        raise GraphParseError("missing 'n m' header line")
    n, m = header
    if len(edges) != m:
        raise GraphParseError(f"declared {m} edges but found {len(edges)}")
    return Graph(n, edges)


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# connectivity structure


def _open_arcs(g: Graph, removed=()) -> bytearray:
    """Arc capacities of G minus the EdgeIds in ``removed``: 1 on every arc
    but both arcs of a removed edge.  Ids outside 0..m-1 name no edge and
    are ignored."""
    m = g.edge_count
    capacity = bytearray(b"\x01" * (2 * m))
    for e in removed:
        if 0 <= e < m:
            capacity[2 * e] = capacity[2 * e + 1] = 0
    return capacity


def _bfs(g: Graph, start: int, capacity, target=None) -> list:
    """Breadth-first walk from ``start`` over the arcs a with capacity[a] > 0.

    Returns the walk's tree as a per-vertex list: tree[x] is the arc that
    first reached x, -1 for ``start`` and None where the walk did not
    reach; arc a runs from edges[a >> 1][a & 1].  The walk stops as soon as
    ``target`` is reached, so following arcs back from the target gives a
    shortest path; otherwise it reaches every vertex that ``start``
    reaches.
    """
    tree = [None] * g.vertex_count
    _walk(g, tree, start, capacity, target)
    return tree


def _walk(g: Graph, tree: list, start: int, capacity, target=None, stop=None) -> list:
    """The walk behind ``_bfs``: marks tree[start] = -1, extends ``tree`` from
    there, skipping what earlier walks reached, and returns the vertices it
    reached in order.  It ends on reaching ``target``, and, with ``stop`` a
    per-vertex sequence, on reaching a w with stop[w] set, returned last,
    or at once if stop[start] is set."""
    tree[start] = -1
    queue = [start]
    if stop is not None and stop[start]:
        return queue
    arcs = g._arcs
    for x in queue:  # the queue grows while it is read
        for w, a in arcs[x]:
            if tree[w] is None and capacity[a]:
                tree[w] = a
                if w == target:
                    return queue
                queue.append(w)
                if stop is not None and stop[w]:
                    return queue
    return queue


def _reached(tree) -> frozenset[int]:
    """The vertices a ``_bfs`` tree reached."""
    return frozenset(x for x, arc in enumerate(tree) if arc is not None)


def components(g: Graph) -> tuple[frozenset[int], ...]:
    """Connected components as vertex sets, ordered by smallest member:
    one tree shared by all the walks, so each vertex is reached once."""
    capacity = _open_arcs(g)
    tree = [None] * g.vertex_count
    out = []
    for start in range(g.vertex_count):
        if tree[start] is None:
            out.append(frozenset(_walk(g, tree, start, capacity)))
    return tuple(out)


def is_connected(g: Graph) -> bool:
    return g.vertex_count == 0 or None not in _bfs(g, 0, _open_arcs(g))


def _odd_cycle(g: Graph) -> tuple[int, ...] | None:
    """An odd cycle of G as its vertices in order, or None when G is
    bipartite.

    One tree is shared by the walks from each unreached vertex, as in
    ``components``.  Depth parity in a breadth-first tree 2-colors each
    component, so G is bipartite unless some edge joins two vertices of
    equal parity.  The ends of an edge differ in depth by at most one, so
    those two have equal depth, and the first such EdgeId with the tree
    paths from its ends to their lowest common ancestor is a simple odd
    cycle.
    """
    capacity = _open_arcs(g)
    tree = [None] * g.vertex_count
    depth = [0] * g.vertex_count

    def up(x):
        return g.edges[tree[x] >> 1][tree[x] & 1]

    for start in range(g.vertex_count):
        if tree[start] is None:
            for w in _walk(g, tree, start, capacity)[1:]:
                depth[w] = depth[up(w)] + 1
    for a, b in g.edges:
        if depth[a] == depth[b]:
            left, right = [a], [b]
            while a != b:
                a, b = up(a), up(b)
                left.append(a)
                right.append(b)
            return tuple(left + right[-2::-1])
    return None


@dataclass(frozen=True)
class SubgraphView:
    """An induced subgraph plus the maps tying it back to its parent."""

    graph: Graph
    vertices: tuple[int, ...]  # local id -> parent vertex
    vertex_map: dict  # parent vertex -> local id
    edge_map: tuple[int, ...]  # local EdgeId -> parent EdgeId


def _view(g: Graph, vertices: tuple, edge_ids: tuple) -> SubgraphView:
    """The view of G on the ascending ``vertices`` and the ascending
    ``edge_ids``, whose endpoints all lie among those vertices."""
    local = {v: i for i, v in enumerate(vertices)}
    edges = [(local[g.edges[e][0]], local[g.edges[e][1]]) for e in edge_ids]
    return SubgraphView(Graph(len(vertices), edges), vertices, local, edge_ids)


def induced_subgraph(g: Graph, vertices) -> SubgraphView:
    inside = set(vertices)
    if any(not (0 <= v < g.vertex_count) for v in inside):
        raise GraphStructureError("induced_subgraph: vertex out of range")
    eids = tuple(
        e for e, (u, v) in enumerate(g.edges) if u in inside and v in inside
    )
    return _view(g, tuple(sorted(inside)), eids)


@dataclass(frozen=True)
class Block:
    """One block (maximal 2-connected piece or bridge) of a graph."""

    edge_ids: tuple[int, ...]  # parent EdgeIds, sorted
    vertices: frozenset[int]
    parent: Graph = field(repr=False)

    @cached_property
    def subgraph(self) -> SubgraphView:
        """The block as a graph of its own, built when first read.  Two
        vertices of one block joined by an edge put that edge in the block,
        so the block's own EdgeIds are the induced edge set, and the view
        needs no scan of the whole edge list."""
        return _view(self.parent, tuple(sorted(self.vertices)), self.edge_ids)


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]
    # bipartite block tree as (block index, cut vertex) incidences
    tree_edges: tuple[tuple[int, int], ...]


def blocks(g: Graph) -> BlockDecomposition:
    """Block decomposition of a connected graph (iterative Tarjan).

    Raises GraphStructureError on a disconnected input.
    """
    if g.vertex_count == 0:
        raise GraphStructureError("block decomposition needs at least one vertex")
    if not is_connected(g):
        raise GraphStructureError("block decomposition requires a connected graph")

    n = g.vertex_count
    disc = [-1] * n
    low = [0] * n
    edge_stack: list[int] = []
    block_edges: list[list[int]] = []
    cut: set[int] = set()

    root = 0
    timer = 0
    disc[root] = low[root] = timer
    timer += 1
    root_children = 0
    # frame: [vertex, incoming EdgeId, adjacency iterator]
    stack = [(root, -1, iter(g.adj[root]))]
    while stack:
        v, pe, it = stack[-1]
        moved = False
        for w, eid in it:
            if eid == pe:
                continue  # skip only the one incoming edge; parallels are back edges
            if disc[w] == -1:
                edge_stack.append(eid)
                disc[w] = low[w] = timer
                timer += 1
                if v == root:
                    root_children += 1
                stack.append((w, eid, iter(g.adj[w])))
                moved = True
                break
            if disc[w] < disc[v]:
                edge_stack.append(eid)
                if disc[w] < low[v]:
                    low[v] = disc[w]
            # disc[w] > disc[v]: other end of a back edge already on the stack
        if moved:
            continue
        stack.pop()
        if not stack:
            break
        parent = stack[-1][0]
        if low[v] < low[parent]:
            low[parent] = low[v]
        if low[v] >= disc[parent]:
            # pop the block whose boundary is the tree edge into v
            blk = []
            while True:
                top = edge_stack.pop()
                blk.append(top)
                if top == pe:
                    break
            block_edges.append(blk)
            if parent != root:
                cut.add(parent)
    if root_children >= 2:
        cut.add(root)

    block_objs = []
    tree = []
    for idx, eids in enumerate(block_edges):
        eids = tuple(sorted(eids))
        verts = frozenset(x for e in eids for x in g.edges[e])
        block_objs.append(Block(eids, verts, g))
        for cv in verts & cut:
            tree.append((idx, cv))
    return BlockDecomposition(tuple(block_objs), frozenset(cut), tuple(tree))


# ---------------------------------------------------------------------------
# contraction


@dataclass(frozen=True)
class ContractionResult:
    """Result of contracting a vertex set X into a single vertex.

    Edges inside X disappear, edges crossing the boundary become (possibly
    parallel) edges at ``merged_vertex``.  ``edge_map[new_eid]`` is the
    parent EdgeId, ``vertex_map[old]`` the new vertex id.
    """

    graph: Graph
    edge_map: tuple[int, ...]
    vertex_map: dict
    merged_vertex: int


def contract(g: Graph, x) -> ContractionResult:
    xs = frozenset(x)
    if not xs:
        raise ContractionError("cannot contract the empty set")
    if any(not (0 <= v < g.vertex_count) for v in xs):
        raise ContractionError("contract: vertex out of range")
    if len(xs) >= g.vertex_count:
        raise ContractionError("cannot contract every vertex")
    kept = [v for v in range(g.vertex_count) if v not in xs]
    new_id = {v: i for i, v in enumerate(kept)}
    merged = len(kept)
    for v in xs:
        new_id[v] = merged
    edges = []
    emap = []
    for eid, (u, v) in enumerate(g.edges):
        if u in xs and v in xs:
            continue  # would be a loop, dropped
        edges.append((new_id[u], new_id[v]))
        emap.append(eid)
    return ContractionResult(
        Graph(merged + 1, edges), tuple(emap), new_id, merged
    )


# ---------------------------------------------------------------------------
# structural predicates


def is_tree(g: Graph) -> bool:
    return (
        g.vertex_count >= 1
        and g.edge_count == g.vertex_count - 1
        and is_connected(g)
    )


def _cactus_cycles(g: Graph) -> tuple[Block, ...] | None:
    """The blocks of G with two or more edges, when G is connected and
    each of them is a cycle; None otherwise.

    Such a block is 2-connected, and by Whitney's ear decomposition it is
    a cycle exactly when it has as many edges as vertices: one ear, no
    more.  Two parallel edges are a 2-cycle.
    """
    if g.vertex_count == 0 or not is_connected(g):
        return None
    cycles = tuple(b for b in blocks(g).blocks if len(b.edge_ids) >= 2)
    if any(len(b.edge_ids) != len(b.vertices) for b in cycles):
        return None
    return cycles


def is_cactus_with_cycle(g: Graph) -> bool:
    """Connected, every block a single edge or a cycle, at least one cycle."""
    return bool(_cactus_cycles(g))


# ---------------------------------------------------------------------------
# DOT export

_DOT_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
    "#f781bf", "#999999", "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3",
)


def _dot_escape(label) -> str:
    return str(label).replace("\\", "\\\\").replace('"', '\\"')


def export_dot(g: Graph, coloring=None, vertex_labels=None, color_labels=None) -> str:
    """Render the graph as Graphviz DOT, optionally labelling edge colors.

    ``coloring`` is an EdgeColoring (or anything indexable by EdgeId);
    ``vertex_labels``/``color_labels`` map raw ids to the labels that
    replace them, escaped for DOT; an id they leave out keeps its raw id.
    """
    if coloring is not None and len(coloring) != g.edge_count:
        raise ColoringError(
            f"coloring covers {len(coloring)} edges, graph has {g.edge_count}"
        )
    out = ["graph srdkit {"]
    for v in range(g.vertex_count):
        label = _dot_escape(vertex_labels.get(v, v) if vertex_labels else v)
        out.append(f'  {v} [label="{label}"];')
    for eid, (u, v) in enumerate(g.edges):
        if coloring is None:
            out.append(f"  {u} -- {v};")
        else:
            c = coloring[eid]
            label = _dot_escape(color_labels.get(c, c) if color_labels else c)
            paint = _DOT_PALETTE[(c - 1) % len(_DOT_PALETTE)]
            out.append(f'  {u} -- {v} [label="{label}", color="{paint}"];')
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# standard constructions used throughout the tests and the CLI


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphStructureError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_multipartite_graph(parts) -> Graph:
    """Complete multipartite graph; vertices of part i precede part i+1."""
    sizes = list(parts)
    if not sizes or any(p <= 0 for p in sizes):
        raise GraphStructureError("part sizes must be positive")
    total = sum(sizes)
    part_of = []
    for i, p in enumerate(sizes):
        part_of.extend([i] * p)
    edges = [
        (u, v)
        for u in range(total)
        for v in range(u + 1, total)
        if part_of[u] != part_of[v]
    ]
    return Graph(total, edges)


def grid_vertex(m: int, n: int, i: int, j: int) -> int:
    """Vertex id of row i, column j (0-based) in grid_graph(m, n)."""
    return i * n + j


def grid_graph(m: int, n: int) -> Graph:
    """m-by-n grid: horizontal edges first (row-major), then verticals."""
    if m < 1 or n < 1:
        raise GraphStructureError("grid dimensions must be positive")
    edges = []
    for i in range(m):
        for j in range(n - 1):
            edges.append((grid_vertex(m, n, i, j), grid_vertex(m, n, i, j + 1)))
    for i in range(m - 1):
        for j in range(n):
            edges.append((grid_vertex(m, n, i, j), grid_vertex(m, n, i + 1, j)))
    return Graph(m * n, edges)


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)
