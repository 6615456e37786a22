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

import heapq
import random
import re
from dataclasses import dataclass, field
from itertools import combinations, permutations
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
    """Iterate the set bits of a mask in ascending index order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_list(mask: VertexSet) -> list[int]:
    """The members of a mask as an ascending list of indices."""
    return list(bits(mask))


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph: vertex count plus per-vertex neighbor masks.

    Instances are immutable values; they hash and compare by content and
    can be shared freely.  Construction validates the representation
    invariants (no self-loops, symmetric adjacency, indices in range) and
    then builds ``closed``, the closed neighbourhood N[v] = adj[v] | {v}
    of each vertex, which the solvers and movability predicates read.  It
    is derived from ``adj``, so it takes no part in equality, hashing or
    repr, and ``closed_neighborhood`` does not read it.
    """

    n: int
    adj: tuple[VertexSet, ...]
    closed: tuple[VertexSet, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("vertex count must be at least 1")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length must equal the vertex count")
        for v, nbrs in enumerate(self.adj):
            if nbrs >> self.n or nbrs < 0:
                raise ValueError(f"vertex {v} has a neighbor index out of range")
            if nbrs >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in bits(nbrs):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")
        object.__setattr__(self, "closed", tuple(m | 1 << v for v, m in enumerate(self.adj)))

    @property
    def full_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

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

    Duplicate edges (in either orientation) collapse; self-loops and
    out-of-range endpoints are rejected.
    """
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        for w in (u, v):
            if not 0 <= w < n:
                raise ValueError(f"endpoint {w} out of range for order {n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


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
    """N[S]: the members of s together with every vertex adjacent to one."""
    check_vertex_set(g, s)
    out = s
    for v in bits(s):
        out |= g.adj[v]
    return out


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0."""
    visited = 1
    while True:
        grown = visited
        for v in bits(visited):
            grown |= g.adj[v]
        if grown == visited:
            return visited == g.full_mask
        visited = grown


# No caller in the package: kept because the tests and bench/tracer.py read it.
def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Every labeled connected simple graph on n vertices, exactly once.

    Order is deterministic: ascending edge-mask, where bit i of the mask
    selects the i-th pair of combinations(range(n), 2).  No isomorphism
    reduction is attempted.  Supported for 1 <= n <= 6.
    """
    pairs = _enumerated_pairs(n)
    for edge_mask in range(1 << len(pairs)):
        g = _graph_of(n, pairs, edge_mask)
        if is_connected(g):
            yield g


def enumerate_connected_classes(n: int) -> Iterator[tuple[Graph, int]]:
    """Each isomorphism class of connected graphs on n vertices once, as (member, size).

    The member is the class's least edge mask, so it is the class's first
    graph in ``enumerate_connected_graphs(n)``, and classes come in that
    order.  The size is the number of labeled graphs in the class, its
    orbit under all n! vertex permutations (as maps on edge indices).
    Each orbit is marked seen once its least mask is met, disconnected
    orbits too, so ``is_connected`` runs once per class of graphs on n
    vertices.  Supported for 1 <= n <= 6.
    """
    pairs = _enumerated_pairs(n)
    edge_bit = {p: 1 << i for i, p in enumerate(pairs)}
    # images[p][i]: the edge bit that pair i goes to under permutation p
    images = [
        [edge_bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in pairs]
        for p in permutations(range(n))
    ]
    seen = bytearray(1 << len(pairs))
    for edge_mask in range(len(seen)):
        if not seen[edge_mask]:
            members = list(bits(edge_mask))
            orbit = {sum(map(image.__getitem__, members)) for image in images}
            for image_mask in orbit:
                seen[image_mask] = 1
            g = _graph_of(n, pairs, edge_mask)
            if is_connected(g):
                yield g, len(orbit)


def _enumerated_pairs(n: int) -> list[tuple[int, int]]:
    if not 1 <= n <= ENUMERATION_MAX_ORDER:
        raise ValueError(
            f"enumeration supports 1 <= n <= {ENUMERATION_MAX_ORDER}, got {n}"
        )
    return list(combinations(range(n), 2))


def _graph_of(n: int, pairs: list[tuple[int, int]], edge_mask: int) -> Graph:
    adj = [0] * n
    for i, (u, v) in enumerate(pairs):
        if edge_mask >> i & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, tuple(adj))


_REJECTION_LIMIT = 100


def random_connected_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Sample a connected graph by repeated G(n, p) draws.

    Deterministic for a fixed (n, p, seed).  If no draw is connected
    within a bounded number of rejections (certain for p = 0, n >= 2),
    the final draw is made connected by adding a uniform spanning tree
    decoded from a random Pruefer sequence.
    """
    if n < 1:
        raise ValueError("vertex count must be at least 1")
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
    # Pruefer decode: uniform over labeled trees.
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    last = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append(last)
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
