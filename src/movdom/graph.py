"""Immutable simple graphs over dense integer vertices, with bitmask vertex sets.

Vertices are indices 0..n-1.  A set of vertices is an ``int`` bitmask
(bit v set means vertex v is a member); masks are the currency every
predicate and solver in this package trades in.  Adjacency is stored as
one neighbor bitmask per vertex.  The connected graphs of order up to 6
are enumerated one member per isomorphism class, together with the number
of labeled graphs in the class.  Labeled enumeration, one graph at a time,
is kept for the tests and the benchmark's tracer.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

VertexSet = int  # bitmask over vertices 0..n-1

ENUMERATION_MAX_ORDER = 6

_INT_TOKEN = re.compile(r"-?\d+\Z")


def mask_of(*vertices: int) -> VertexSet:
    """Build a vertex-set bitmask from individual indices."""
    mask = 0
    for v in vertices:
        if v < 0:
            raise ValueError(f"vertex index must be nonnegative, got {v}")
        mask |= 1 << v
    return mask


def bits(mask: VertexSet) -> Iterator[int]:
    """Iterate the set bits of a mask in ascending index order; ValueError if it is negative."""
    if mask < 0:
        raise ValueError(f"vertex set {mask} is negative")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_list(mask: VertexSet) -> list[int]:
    """The members of a mask as an ascending list of indices."""
    return list(bits(mask))


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph: one neighbor mask per vertex.

    Instances are immutable values; they hash and compare by content and
    can be shared freely.  Construction validates the representation
    invariants (no self-loops, symmetric adjacency, indices in range).
    The order ``n`` is the adjacency's length, and ``closed`` holds the
    closed neighbourhood N[v] = adj[v] | {v} of each vertex, which the
    solvers and movability predicates read (``closed_neighborhood`` does
    not).  ``nbrs[v]`` is the ascending tuple of v's neighbours, built by
    the validation loop; the movability predicates walk it for swap
    candidates, and ``edges`` reads it.  ``unions`` holds the tables
    ``closed_neighborhood`` reads: ``unions[c][x]`` is the union of adj[v]
    over the set bits v of x << 4c, built from ``adj``, not ``closed``, so
    the certificate checker shares no table with the predicates.  All four
    come from ``adj``, so none takes part in equality, hashing or repr.
    """

    adj: tuple[VertexSet, ...]
    n: int = field(init=False, repr=False, compare=False)
    closed: tuple[VertexSet, ...] = field(init=False, repr=False, compare=False)
    nbrs: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    unions: tuple[list[VertexSet], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", len(self.adj))
        if self.n < 1:
            raise ValueError("vertex count must be at least 1")
        nbrs = []
        for v, mask in enumerate(self.adj):
            if mask >> self.n or mask < 0:
                raise ValueError(f"vertex {v} has a neighbor index out of range")
            if mask >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            row = tuple(bits(mask))
            for u in row:
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")
            nbrs.append(row)
        object.__setattr__(self, "nbrs", tuple(nbrs))
        object.__setattr__(self, "closed", tuple(m | 1 << v for v, m in enumerate(self.adj)))
        unions = tuple(_union_table(self.adj[i:i + 4]) for i in range(0, self.n, 4))
        object.__setattr__(self, "unions", unions)

    @property
    def full_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        return [(u, v) for u, row in enumerate(self.nbrs) for v in row if u < v]

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def check_vertex_set(g: Graph, s: VertexSet) -> None:
    """Reject masks with members outside 0..n-1."""
    if s < 0 or s >> g.n:
        raise ValueError(f"vertex set {s:#x} has members out of range for order {g.n}")


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from a vertex count and edge pairs.

    Duplicate edges (in either orientation) collapse; out-of-range
    endpoints are rejected here and self-loops by ``Graph``.
    """
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    adj = [0] * n
    for u, v in edges:
        for w in (u, v):
            if not 0 <= w < n:
                raise ValueError(f"endpoint {w} out of range for order {n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj))


def path(n: int) -> Graph:
    """P_n, vertices numbered along the walk."""
    if n < 1:
        raise ValueError("path requires at least 1 vertex")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """C_n, vertices numbered along the walk."""
    if n < 3:
        raise ValueError("cycle requires at least 3 vertices")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    """K_n."""
    if n < 1:
        raise ValueError("complete graph requires at least 1 vertex")
    return from_edge_list(n, combinations(range(n), 2))


def star(n: int) -> Graph:
    """Star on n total vertices, center at index 0."""
    if n < 2:
        raise ValueError("star requires at least 2 vertices")
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: parts 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph requires both parts nonempty")
    return from_edge_list(a + b, [(u, a + v) for u in range(a) for v in range(b)])


# Every family's order is the sum of its parameters (family_order), so
# a caller can check the order before a graph is built.
_FAMILIES = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "star": (star, 1),
    "complete_bipartite": (complete_bipartite, 2),
}


def family_order(name: str, *params: int) -> int:
    """The order of make_family(name, *params), found without building the graph."""
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown graph family {name!r} (known: {known})")
    _, arity = _FAMILIES[name]
    if len(params) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    return sum(params)


def make_family(name: str, *params: int) -> Graph:
    """Construct a named-family graph, e.g. make_family("path", 4)."""
    family_order(name, *params)
    return _FAMILIES[name][0](*params)


def closed_neighborhood(g: Graph, s: VertexSet) -> VertexSet:
    """N[S]: s together with every neighbour of a member, one table lookup per 4 vertices."""
    check_vertex_set(g, s)
    out = s
    for table in g.unions:
        out |= table[s & 15]
        s >>= 4
    return out


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0."""
    reached = 1
    while (grown := closed_neighborhood(g, reached)) != reached:
        reached = grown
    return reached == g.full_mask


# No caller in the package: kept because the tests and bench/tracer.py read it.
def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Every labeled connected simple graph on n vertices, exactly once.

    Order is deterministic: ascending edge-mask, where bit i of the mask
    selects the i-th pair of combinations(range(n), 2).  No isomorphism
    reduction is attempted.  Supported for 1 <= n <= 6.
    """
    pairs = _enumerated_pairs(n)
    for edge_mask in range(1 << len(pairs)):
        g = from_edge_list(n, [pairs[i] for i in bits(edge_mask)])
        if is_connected(g):
            yield g


def enumerate_connected_classes(n: int) -> Iterator[tuple[Graph, int]]:
    """Each isomorphism class of connected graphs on n vertices once, as (member, size).

    The member is the class's least edge mask, so it is the class's first
    graph in ``enumerate_connected_graphs(n)``, and classes come in that
    order.  The size is the number of labeled graphs in the class: its
    orbit, found by closing the least mask under the transposition (0 1)
    and the cycle (0 1 ... n-1), which generate all vertex permutations.
    Disconnected orbits are marked seen too, so ``is_connected`` runs once
    per class of graphs on n vertices.  Supported for 1 <= n <= 6.
    """
    pairs = _enumerated_pairs(n)
    edge_bit = {p: 1 << i for i, p in enumerate(pairs)}
    half = (len(pairs) + 1) // 2
    low_bits = (1 << half) - 1
    # one (low, high) pair per generator: mask x maps to low[x & low_bits] | high[x >> half]
    tables = []
    for p in ([1, 0, *range(2, n)], [*range(1, n), 0]) if n > 1 else ():
        images = [edge_bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in pairs]
        tables.append((_union_table(images[:half]), _union_table(images[half:])))
    seen = bytearray(1 << len(pairs))
    for edge_mask in range(len(seen)):
        if not seen[edge_mask]:
            seen[edge_mask] = 1
            orbit = [edge_mask]
            for x in orbit:  # grows as new images are met
                for low, high in tables:
                    image_mask = low[x & low_bits] | high[x >> half]
                    if not seen[image_mask]:
                        seen[image_mask] = 1
                        orbit.append(image_mask)
            g = from_edge_list(n, [pairs[i] for i in bits(edge_mask)])
            if is_connected(g):
                yield g, len(orbit)


def _union_table(images: Iterable[int]) -> list[int]:
    """table[x]: the union of images[i] over the set bits i of x."""
    table = [0]
    for image in images:
        table += [t | image for t in table]
    return table


def _enumerated_pairs(n: int) -> list[tuple[int, int]]:
    if not 1 <= n <= ENUMERATION_MAX_ORDER:
        raise ValueError(
            f"enumeration supports 1 <= n <= {ENUMERATION_MAX_ORDER}, got {n}"
        )
    return list(combinations(range(n), 2))


_REJECTION_LIMIT = 100


def random_connected_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Sample a connected graph by repeated G(n, p) draws.

    Deterministic for a fixed (n, p, seed).  If no draw is connected
    within a bounded number of rejections (certain for p = 0, n >= 2;
    a single vertex is connected on the first draw), the final draw is
    made connected by adding a uniform spanning tree, taken from a random
    walk on the complete graph, which for n = 2 is the one edge.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    edges: list[tuple[int, int]] = []
    for _ in range(_REJECTION_LIMIT):
        edges = [p for p in pairs if rng.random() < edge_probability]
        g = from_edge_list(n, edges)
        if is_connected(g):
            return g
    return from_edge_list(n, edges + _uniform_spanning_tree(n, rng))


def _uniform_spanning_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    # Aldous-Broder on K_n: the first-entry edges of a random walk form a uniform tree.
    edges = []
    v, seen = 0, 1
    while len(edges) < n - 1:
        u = rng.randrange(n - 1)
        u += u >= v
        if not seen >> u & 1:
            seen |= 1 << u
            edges.append((v, u))
        v = u
    return edges


def read_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Read the edge-list text format into its vertex count and edge pairs.

    Grammar: ASCII text; lines whose first character is '#' are comments;
    blank (empty or whitespace-only) lines are ignored; the first
    significant line is a single integer vertex count; every following
    significant line is exactly two integers "u v".  Anything else is
    rejected.  Nothing is sized by the vertex count yet, so a caller can
    refuse a huge header before ``from_edge_list`` allocates for it.
    """
    if not text.isascii():
        raise ValueError("edge list must be ASCII")
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if raw.startswith("#") or raw.strip() == "":
            continue
        tokens = raw.split()
        if any(not _INT_TOKEN.match(t) for t in tokens):
            raise ValueError(f"line {lineno}: non-integer token")
        if n is None:
            if len(tokens) != 1:
                raise ValueError(f"line {lineno}: header must be a single vertex count")
            n = int(tokens[0])
            continue
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: edge lines must be exactly 'u v'")
        edges.append((int(tokens[0]), int(tokens[1])))
    if n is None:
        raise ValueError("missing vertex-count header line")
    return n, edges


def format_edge_list(g: Graph) -> str:
    """Render a graph in the edge-list text format (canonical edge order)."""
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"
