"""Hypothesis strategies shared across test modules."""

from itertools import combinations

from hypothesis import strategies as st

from movdom import Graph, from_edge_list


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 6) -> Graph:
    """Arbitrary labeled simple graphs up to max_n vertices."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    edge_mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edge_list(n, [p for i, p in enumerate(pairs) if edge_mask >> i & 1])


@st.composite
def graphs_with_subset(draw, min_n: int = 1, max_n: int = 6):
    """A graph plus a vertex-set mask over it."""
    g = draw(graphs(min_n, max_n))
    return g, draw(st.integers(0, g.full_mask))


@st.composite
def sparse_graphs_with_subset(draw, min_n: int, max_n: int):
    """A connected graph, a spanning tree (each vertex but 0 gets a lower neighbour) plus
    up to 3n more edges, and a nonempty vertex-set mask over it."""
    n = draw(st.integers(min_n, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=3 * n))
    g = from_edge_list(n, tree + extra)
    return g, draw(st.integers(1, g.full_mask))


@st.composite
def graphs_with_leaves(draw, max_n: int = 9) -> Graph:
    """An arbitrary graph with at least one pendant vertex attached, max_n vertices in all."""
    base = draw(graphs(1, max_n - 1))
    supports = draw(st.lists(st.integers(0, base.n - 1), min_size=1, max_size=max_n - base.n))
    leaves = [(s, base.n + i) for i, s in enumerate(supports)]
    return from_edge_list(base.n + len(supports), [*base.edges(), *leaves])


@st.composite
def graphs_with_strong_support(draw, max_n: int = 9, connected: bool = False) -> Graph:
    """An arbitrary graph with two or more pendant vertices on one drawn support, max_n
    vertices in all.  With ``connected``, each base vertex but 0 also gets a lower neighbour."""
    base = draw(graphs(1, max_n - 2))
    edges = base.edges()
    if connected:
        edges += [(draw(st.integers(0, v - 1)), v) for v in range(1, base.n)]
    support = draw(st.integers(0, base.n - 1))
    count = draw(st.integers(2, max_n - base.n))
    leaves = [(support, base.n + i) for i in range(count)]
    return from_edge_list(base.n + count, [*edges, *leaves])
