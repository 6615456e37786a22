"""The dominating-set predicate, the exact minimum solver, and samplers.

The exact solvers iterate ``dominating_sets``: every dominating set by
ascending cardinality and, within a cardinality, by ascending bitmask, so
the reported witness is always the numerically least optimal set.
gamma_m1 and gamma_m2 iterate ``dominating_sets_with_coverage``, the same
generator with a ban table and each set's coverage masks.  The generator prunes
branches that cannot reach domination, so no set that fails to dominate
reaches a caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from random import Random
from typing import TYPE_CHECKING, Iterator, Sequence

from .graph import Graph, VertexSet, closed_neighborhood, mask_of

if TYPE_CHECKING:  # pragma: no cover
    from .movable import MovabilityCertificate

SOLVER_MAX_ORDER = 24


@dataclass(frozen=True)
class SolverResult:
    """An optimal witness, whose size is the invariant's value, or an explicit absence.

    ``witness is None`` means no qualifying set exists at any cardinality.
    For the movable invariants the (keyword-only) certificate proves the
    witness qualifies.
    """

    witness: VertexSet | None
    certificate: "MovabilityCertificate | None" = field(default=None, kw_only=True)

    @property
    def value(self) -> int | None:
        return None if self.witness is None else self.witness.bit_count()

    @property
    def exists(self) -> bool:
        return self.witness is not None


def check_solver_order(n: int) -> None:
    """Reject an order above the exact solvers' cap (before any graph is built)."""
    if n > SOLVER_MAX_ORDER:
        raise ValueError(
            f"graph has {n} vertices; the exact solvers are capped at "
            f"{SOLVER_MAX_ORDER} to keep runtimes bounded"
        )


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff N[s] covers every vertex (the empty set never does for n >= 1)."""
    return closed_neighborhood(g, s) == g.full_mask


# No caller in the package: kept because the tests and bench/tracer.py read it.
def ascending_k_subsets(n: int, k: int) -> Iterator[VertexSet]:
    """All k-element masks over n bits in ascending numeric order."""
    if k == 0:
        yield 0
        return
    if k > n:
        return
    mask = (1 << k) - 1
    limit = 1 << n
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple


def dominating_sets(g: Graph) -> Iterator[VertexSet]:
    """Every dominating set of g, so the first one is a minimum one.

    Sets come by ascending cardinality and, within one, by ascending
    bitmask: the same order as filtering ``ascending_k_subsets``.  This is
    ``dominating_sets_with_coverage`` with no bans, less the masks it
    carries, which gamma_m1 reads; so it too raises ValueError above the
    order cap.  gamma_m2's scan bans the pairs and vertices that no
    2-movable set holds (proved in the ``movable`` module docstring).
    """
    return map(itemgetter(0), dominating_sets_with_coverage(g, (0,) * g.n, 1))


def dominating_sets_with_coverage(
    g: Graph, ban: Sequence[VertexSet], smallest: int
) -> Iterator[tuple[VertexSet, VertexSet, VertexSet]]:
    """Each dominating set of g with ``smallest`` or more members that ``ban`` allows,
    with the vertices it covers exactly once and exactly twice.

    ``ban[v]`` masks the vertices that may not join v; it must be symmetric,
    and a vertex that bans itself is never picked.  Sets holding a banned
    pair are never built; the rest come in ``dominating_sets`` order.  The
    scan starts at size ceil(n / (1 + max degree)) over the pickable
    vertices, as no smaller set dominates (Haynes, Hedetniemi and Slater,
    *Fundamentals of Domination in Graphs*, 1998).  Members are picked from
    the highest index down, carrying the covered, once and twice masks by
    ``movable._coverage``'s recurrence.  A branch is cut when some uncovered
    vertex has all its pickable closed neighbours at or above the last
    pick, or when the picks left, each covering at most the largest closed
    degree below the last pick, cannot cover what is left.  The ``stuck``
    and ``most`` tables live only for this call: kept on every ``Graph``
    they would outlive the search.  Every exact solver scans this, so it
    owns their cap: above ``SOLVER_MAX_ORDER`` the first draw raises ValueError.
    """
    check_solver_order(g.n)
    n, full, closed = g.n, g.full_mask, g.closed
    excluded = 0  # the vertices that ban themselves
    for v, b in enumerate(ban):
        excluded |= b & 1 << v
    # stuck[t]: vertices whose pickable closed neighbours all lie at or above t.
    # most[t]: the largest closed-neighbourhood size among pickable vertices
    # below t, so most[n] is at most 1 + the maximum degree.
    stuck = [0] * (n + 1)
    most = [0] * (n + 1)
    for u in range(n):
        pickable = closed[u] & ~excluded
        stuck[(pickable & -pickable).bit_length() - 1] |= 1 << u
        most[u + 1] = max(most[u], 0 if excluded >> u & 1 else closed[u].bit_count())
    for t in range(n - 1, -1, -1):
        stuck[t] |= stuck[t + 1]

    for k in range(max(smallest, -(-n // most[n])), n + 1):
        yield from _dominating_below(closed, ban, stuck, most, full, 0, excluded, 0, 0, 0, n, k)


def _dominating_below(
    closed: tuple[VertexSet, ...],
    ban: Sequence[VertexSet],
    stuck: list[VertexSet],
    most: list[int],
    full: VertexSet,
    chosen: VertexSet,
    banned: VertexSet,
    covered: VertexSet,
    once: VertexSet,
    twice: VertexSet,
    top: int,
    left: int,
) -> Iterator[tuple[VertexSet, VertexSet, VertexSet]]:
    # Add ``left`` more members, all below index ``top`` and outside ``banned``.
    # Module-level, not a closure: a recursive closure is a reference cycle,
    # so its tables would wait for the cyclic collector after every solver call.
    if left == 1:
        for v in range(top):
            nv = closed[v]
            if covered | nv == full and not banned >> v & 1:
                yield chosen | 1 << v, once & ~nv | nv & ~covered, twice & ~nv | once & nv
        return
    for v in range(left - 1, top):
        nv = closed[v]
        now = covered | nv
        missing = full & ~now
        if missing & stuck[v] or (left - 1) * most[v] < missing.bit_count() or banned >> v & 1:
            continue
        yield from _dominating_below(
            closed, ban, stuck, most, full, chosen | 1 << v, banned | ban[v], now,
            once & ~nv | nv & ~covered, twice & ~nv | once & nv, v, left - 1,
        )


def gamma(g: Graph) -> SolverResult:
    """Exact domination number with the lex-least optimal witness."""
    return SolverResult(next(dominating_sets(g)))


def greedy_repair(g: Graph, seed_set: VertexSet) -> VertexSet:
    """Grow a set until it dominates, adding best-coverage vertices first."""
    chosen = seed_set
    covered = closed_neighborhood(g, seed_set)
    full, closed = g.full_mask, g.closed
    while covered != full:
        best_v = -1
        best_gain = 0
        for v in range(g.n):
            gain = (closed[v] & ~covered).bit_count()
            if gain > best_gain:
                best_gain, best_v = gain, v
        chosen |= 1 << best_v
        covered |= closed[best_v]
    return chosen


def dominating_samples(g: Graph, seed: int) -> Iterator[VertexSet]:
    """An endless, deterministic stream of sampled dominating sets.

    Each draw seeds a uniformly sized random subset and repairs it
    greedily, so densities vary from near-minimal to near-total.  The
    same (graph, seed) always yields the same stream, drawn only as far
    as it is read.
    """
    rng = Random(seed)
    while True:
        size = rng.randrange(g.n + 1)
        yield greedy_repair(g, mask_of(*rng.sample(range(g.n), size)))


# No caller in the package: kept because the tests and bench/ read it.
def sample_dominating_sets(g: Graph, count: int, seed: int) -> list[VertexSet]:
    """The first ``count`` sets of ``dominating_samples(g, seed)``.

    The same (graph, count, seed) always yields the same list, and a
    longer list extends a shorter one drawn with the same seed.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    return list(islice(dominating_samples(g, seed), count))
