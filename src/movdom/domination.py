"""The dominating-set predicate, the exact minimum solver, and samplers.

The exact solvers iterate ``dominating_sets``: every dominating set by
ascending cardinality and, within a cardinality, by ascending bitmask, so
the reported witness is always the numerically least optimal set.  The
generator prunes branches that cannot reach domination, so no set that
fails to dominate reaches a caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from random import Random
from typing import TYPE_CHECKING, Iterator

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
    bitmask: the same order as filtering ``ascending_k_subsets``.  The scan
    starts at size ceil(n / (1 + max degree)), as no smaller set dominates
    (Haynes, Hedetniemi and Slater, *Fundamentals of Domination in Graphs*,
    1998).  Members are picked from the highest index down, with the
    covered mask carried along.  A branch is cut when some uncovered vertex
    has its whole closed neighbourhood at or above the last pick, or when
    the picks left, each covering at most the largest closed degree below
    the last pick, cannot cover what is left.  The ``stuck`` and ``most``
    tables live only for this call: kept on every ``Graph`` they would
    outlive the search.
    """
    n, full, closed = g.n, g.full_mask, g.closed
    # stuck[t]: vertices whose closed neighbourhood lies wholly at or above t.
    # most[t]: the largest closed-neighbourhood size among vertices below t,
    # so most[n] is 1 + the maximum degree.
    stuck = [0] * (n + 1)
    most = [0] * (n + 1)
    for u in range(n):
        stuck[(closed[u] & -closed[u]).bit_length() - 1] |= 1 << u
        most[u + 1] = max(most[u], closed[u].bit_count())
    for t in range(n - 1, -1, -1):
        stuck[t] |= stuck[t + 1]

    for k in range(-(-n // most[n]), n + 1):
        yield from _dominating_below(closed, stuck, most, full, 0, 0, n, k)


def _dominating_below(
    closed: tuple[VertexSet, ...],
    stuck: list[VertexSet],
    most: list[int],
    full: VertexSet,
    chosen: VertexSet,
    covered: VertexSet,
    top: int,
    left: int,
) -> Iterator[VertexSet]:
    # Add ``left`` more members, all below index ``top``.  Module-level, not
    # a closure: a recursive closure is a reference cycle, so its tables would
    # wait for the cyclic collector after every solver call.
    if left == 1:
        for v in range(top):
            if covered | closed[v] == full:
                yield chosen | 1 << v
        return
    for v in range(left - 1, top):
        now = covered | closed[v]
        missing = full & ~now
        if missing & stuck[v] or (left - 1) * most[v] < missing.bit_count():
            continue
        yield from _dominating_below(closed, stuck, most, full, chosen | 1 << v, now, v, left - 1)


def gamma(g: Graph) -> SolverResult:
    """Exact domination number with the lex-least optimal witness."""
    check_solver_order(g.n)
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
