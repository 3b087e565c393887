import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from srdkit.graph import Graph


@st.composite
def small_graphs(draw, min_vertices=2, max_vertices=5, connected=True,
                 max_extra_edges=4):
    """Random small connected graphs built as a random tree plus extras."""
    n = draw(st.integers(min_vertices, max_vertices))
    edges = []
    if connected:
        for v in range(1, n):
            parent = draw(st.integers(0, v - 1))
            edges.append((parent, v))
    possible = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in edges
    ]
    if possible:
        extra = draw(
            st.lists(
                st.sampled_from(possible),
                max_size=min(max_extra_edges, len(possible)),
                unique=True,
            )
        )
        edges.extend(extra)
    return Graph(n, edges)


@st.composite
def walk_cases(draw):
    """A multigraph on 1-8 vertices, maybe disconnected; a set of EdgeIds
    to remove, some of which may name no edge (negative, or past the last);
    and two vertices."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(edge, max_size=16 if n > 1 else 0))
    m = len(edges)
    removed = draw(st.sets(st.integers(-m - 2, m + 2)))
    return Graph(n, edges), removed, draw(vertex), draw(vertex)


@st.composite
def connected_multigraphs(draw):
    """A connected multigraph on 3-7 vertices: a random tree plus up to 8
    more edges, parallel ones allowed."""
    n = draw(st.integers(3, 7))
    vertex = st.integers(0, n - 1)
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    return Graph(n, edges + draw(st.lists(edge, max_size=8)))


@pytest.fixture
def graphs_strategy():
    return small_graphs
