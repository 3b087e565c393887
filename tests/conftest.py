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


@pytest.fixture
def graphs_strategy():
    return small_graphs
