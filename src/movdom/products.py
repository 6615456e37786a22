"""Join and corona graph products with explicit vertex-provenance layouts.

Both constructors fix a concrete index layout so that sets and
certificates computed on a product can be traced back to the factors:
the left factor always occupies the leading indices, and corona copies
occupy contiguous intervals, one per center.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, VertexSet


@dataclass(frozen=True)
class JoinLayout:
    """Index intervals (half-open) of the two factors inside a join."""

    g_range: tuple[int, int]
    h_range: tuple[int, int]


@dataclass(frozen=True)
class CoronaLayout:
    """Who is who inside a corona product.

    ``centers[a]`` is the product index of the a-th left-factor vertex;
    ``copies[a]`` is the half-open index interval of its attached copy.
    Centers and copy intervals partition the product's vertices.
    """

    centers: tuple[int, ...]
    copies: tuple[tuple[int, int], ...]

    def copy_mask(self, a: int) -> VertexSet:
        return _interval_mask(*self.copies[a])

    def unit_mask(self, a: int) -> VertexSet:
        """The center a together with its copy (the a + H^a slice)."""
        return self.copy_mask(a) | 1 << self.centers[a]


def _interval_mask(start: int, stop: int) -> VertexSet:
    return ((1 << (stop - start)) - 1) << start


def join(g: Graph, h: Graph) -> tuple[Graph, JoinLayout]:
    """G + H: both factors plus every edge between them.

    The left factor keeps indices 0..|V(G)|-1, the right factor follows.
    """
    pg, ph = g.n, h.n
    h_mask = _interval_mask(pg, pg + ph)
    g_mask = _interval_mask(0, pg)
    adj = [g.adj[v] | h_mask for v in range(pg)]
    adj += [(h.adj[w] << pg) | g_mask for w in range(ph)]
    return Graph(pg + ph, tuple(adj)), JoinLayout((0, pg), (pg, pg + ph))


def corona(g: Graph, h: Graph) -> tuple[Graph, CoronaLayout]:
    """G o H: one copy of H per vertex of G, each joined to its owner.

    Centers keep G's indices 0..|V(G)|-1; the copy for center a occupies
    the interval [pg + a*ph, pg + (a+1)*ph).  A center is adjacent to its
    whole copy and to nothing in any other copy.
    """
    pg, ph = g.n, h.n
    n = pg * (1 + ph)
    adj = [0] * n
    copies = []
    for a in range(pg):
        start = pg + a * ph
        copies.append((start, start + ph))
        adj[a] = g.adj[a] | _interval_mask(start, start + ph)
        for j in range(ph):
            adj[start + j] = (h.adj[j] << start) | 1 << a
    layout = CoronaLayout(tuple(range(pg)), tuple(copies))
    return Graph(n, tuple(adj)), layout


# No caller in the package: kept because the tests and bench/tracer.py read it.
def slice_copy(layout: CoronaLayout, a: int, product: Graph) -> Graph:
    """The copy attached to center a as a standalone graph.

    Returns the induced subgraph on the copy interval, re-indexed so that
    product vertex ``layout.copies[a][0] + i`` becomes vertex i.
    """
    if not 0 <= a < len(layout.centers):
        raise ValueError(f"center index {a} out of range")
    start, stop = layout.copies[a]
    window = _interval_mask(start, stop)
    adj = tuple((product.adj[v] & window) >> start for v in range(start, stop))
    return Graph(stop - start, adj)
