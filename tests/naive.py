"""Brute-force reference predicates and solvers used as independent test oracles.

Everything here is a direct transcription of the definitions with nested
loops over plain Python sets.  No bitmask tricks, no pruning, no shared
code with the optimized implementations: these functions are what the
fast paths are tested against.
"""

from __future__ import annotations

from itertools import combinations, permutations


class AdjacencyView:
    """Minimal stand-in graph: a vertex count and neighbor lists."""

    def __init__(self, n: int, edges):
        self.n = n
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        self._nbrs = [sorted(s) for s in nbrs]

    def neighbors(self, v: int):
        return self._nbrs[v]


def closed_neighborhood(g, s) -> set:
    """The members of ``s`` together with every vertex adjacent to one."""
    s = set(s)
    return {v for v in range(g.n) if v in s or any(u in s for u in g.neighbors(v))}


def dominates(g, s) -> bool:
    """Every vertex is in ``s`` or adjacent to a member of ``s``."""
    s = set(s)
    return all(v in s or any(u in s for u in g.neighbors(v)) for v in range(g.n))


def one_movable(g, s) -> bool:
    """Dominating, and each single member can be dropped or swapped out.

    A member v may be removed outright if the rest still dominates, or
    replaced by some non-member neighbor u of v so that the swapped set
    dominates.
    """
    s = set(s)
    if not s or not dominates(g, s):
        return False
    for v in sorted(s):
        rest = s - {v}
        if dominates(g, rest):
            continue
        if any(u not in s and dominates(g, rest | {u}) for u in g.neighbors(v)):
            continue
        return False
    return True


def two_movable(g, s, distinct: bool) -> bool:
    """Dominating, at least two members, and every distinct pair is movable.

    A pair (x, y) is movable if dropping both still dominates, or there are
    non-members u adjacent to x and v adjacent to y whose substitution
    dominates.  With ``distinct=True`` the replacements must differ.
    """
    s = set(s)
    if len(s) < 2 or not dominates(g, s):
        return False
    for x, y in combinations(sorted(s), 2):
        rest = s - {x, y}
        if dominates(g, rest):
            continue
        found = False
        for u in g.neighbors(x):
            if u in s:
                continue
            for v in g.neighbors(y):
                if v in s or (distinct and u == v):
                    continue
                if dominates(g, rest | {u, v}):
                    found = True
                    break
            if found:
                break
        if not found:
            return False
    return True


def minimum_by(g, predicate):
    """Smallest satisfying subset by exhaustive ascending-size search.

    Returns (size, witness-as-sorted-tuple) or (None, None).  Among
    same-size sets the one whose bitmask (bit v = vertex v) is numerically
    least wins, matching the solver determinism contract.
    """
    for size in range(g.n + 1):
        best = None
        for combo in combinations(range(g.n), size):
            if predicate(set(combo)):
                mask = sum(1 << v for v in combo)
                if best is None or mask < best[0]:
                    best = (mask, combo)
        if best is not None:
            return size, best[1]
    return None, None


def naive_gamma(g):
    return minimum_by(g, lambda s: dominates(g, s))


def naive_gamma_m1(g):
    return minimum_by(g, lambda s: one_movable(g, s))


def naive_gamma_m2(g, distinct: bool):
    return minimum_by(g, lambda s: two_movable(g, s, distinct))


def connected(g) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for u in g.neighbors(stack.pop()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def all_labeled_graphs(n: int):
    """Every labeled simple graph on n vertices, as AdjacencyView objects."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield AdjacencyView(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def count_connected(n: int) -> int:
    return sum(1 for g in all_labeled_graphs(n) if connected(g))


def connected_classes(n: int):
    """Each isomorphism class of connected graphs on n vertices, as (edges, size).

    Classes come in the order of their first graph in ``all_labeled_graphs(n)``,
    and ``edges`` is that graph's sorted edge list.  The size is the number of
    distinct edge sets that the n! vertex permutations map it to.
    """
    pairs = list(combinations(range(n), 2))
    seen = set()
    classes = []
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        if edges in seen:
            continue
        orbit = {
            frozenset(tuple(sorted((p[u], p[v]))) for u, v in edges)
            for p in permutations(range(n))
        }
        seen |= orbit
        if connected(AdjacencyView(n, edges)):
            classes.append((sorted(edges), len(orbit)))
    return classes
