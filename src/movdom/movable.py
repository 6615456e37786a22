"""Predicates, certificates, and exact solvers for movable domination.

A dominating set is 1-movable when each single member can be dropped, or
swapped for an outside neighbor, without losing domination.  It is
2-movable when every unordered pair of distinct members can be dropped
together, or simultaneously swapped for outside neighbors of the two
(one neighbor each), again preserving domination.

Two readings of the pair-swap clause are supported: LITERAL lets the two
replacement vertices coincide, DISTINCT requires them to differ.  A set
with fewer than two members is never 2-movable, so the 2-movable
invariant is always at least 2 when it exists.

Checks return a certificate listing one verified ``Move`` per member (or
per pair), or a falsy failure object naming the first stuck member or
pair.  Both levels share the one move shape: the members leave, and are
either dropped or each swapped for an outside neighbour of its own.
Certificates are canonical: members and pairs in ascending order, drops
preferred over swaps, swap replacements scanned in ascending (u, v)
order, first success recorded.

Both predicates decide each move from coverage counts rather than a fresh
domination test, reading every N[v] from the graph's ``closed`` table,
which is built once with the graph.  One pass over S builds three masks:
``covered`` (vertices with at least one member in their closed
neighbourhood), ``once`` (exactly one) and ``twice`` (exactly two).  S
dominates iff ``covered`` is every vertex.  A vertex in ``once & N[v]``
is a private neighbour of v with respect to S (Haynes, Hedetniemi and
Slater, *Fundamentals of Domination in Graphs*, 1998), so dropping v
uncovers exactly ``lost = once & N[v]``, and dropping the pair {x, y}
uncovers ``lost = once & (N[x] | N[y]) | twice & N[x] & N[y]``.  The
drop works iff ``lost`` is empty; the swap to u (or to u and v) works
iff the replacements' closed neighbourhoods cover ``lost``.
``verify_certificate`` uses neither these masks nor ``closed``: it
re-checks every move with plain ``is_dominating``, which reads only the
adjacency, so it stays independent of the predicates.

All exact movable solvers share one scan, ``solve_jointly``: it walks the
dominating sets once, in the order of ``dominating_sets``, and tests each
set for every requested invariant that has no witness yet.  The two modes
share it too.  Every DISTINCT certificate is also a LITERAL one, so no set
before the LITERAL witness is DISTINCT-movable: DISTINCT is tested only
from that set onwards, and its witness is still the first DISTINCT-movable
set in scan order.

The scan skips the 2-movable tests of every set that holds a leaf l and
its one neighbour s (the leaf rule).  No such set is 2-movable in either
mode: dropping the pair {l, s} leaves l uncovered, and l has no neighbour
outside the set to swap to.

A support with two leaves l1 and l2 is a strong support s (Haynes,
Hedetniemi and Slater).  (a) No set holding s is 2-movable, in either
mode: with a leaf it falls to the leaf rule, and without one, dropping s
with any other member x uncovers l1 and l2.  x's replacement covers
neither, and no single neighbour of s covers both.  So the scan skips
every set that holds s too.  (b) No set at all is 2-movable
in DISTINCT: by (a) s is outside the set, so l1 and l2 are inside, and
the pair {l1, l2} can only be swapped to (s, s).  So DISTINCT is reported
absent without a scan.  A skipped set would fail its test anyway, so
every value, least witness and certificate stays the same; gamma and
gamma_m1 still see every set.  On all 27,470 labeled connected graphs of
order 4-6 a LITERAL witness exists, and the 1,875 with no DISTINCT
witness are exactly the 1,875 with a strong support.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .domination import SolverResult, check_solver_order, dominating_sets, is_dominating
from .graph import Graph, VertexSet, bits, check_vertex_set, vertex_list


class ReplacementMode(Enum):
    """Whether a pair swap may reuse one vertex for both replacements."""

    LITERAL = "literal"
    DISTINCT = "distinct"


# Both modes in definition order.  The joint scan relies on LITERAL coming
# first: DISTINCT is tested only from the LITERAL witness onwards.
_MODES = tuple(ReplacementMode)


def _check_mode(mode: ReplacementMode) -> None:
    """Reject anything but a ReplacementMode member; a str such as "distinct" is not one."""
    if mode not in _MODES:
        raise ValueError(f"unknown replacement mode {mode!r}: pass a ReplacementMode member")


class MalformedCertificateError(ValueError):
    """A certificate whose moves are not even well shaped for its level, hold
    values of the wrong type, or do not cover exactly the required members
    or pairs."""


class Move(NamedTuple):
    """How one member (level 1) or one pair (level 2) leaves the set.

    ``members`` is (v,), or (x, y) with x < y.  ``replacement`` holds one
    outside neighbor per member, in the same order (u for x, v for y), or
    is None when the members are simply dropped.  A named tuple, like
    ``JointResult``: a frozen dataclass is slower to build, and the
    predicates build one per member or pair.
    """

    members: tuple[int, ...]
    replacement: tuple[int, ...] | None = None

    @property
    def is_drop(self) -> bool:
        return self.replacement is None


@dataclass(frozen=True)
class MovabilityCertificate:
    """One verified move per member (level 1) or per distinct pair (level 2).

    In JSON a level-1 move names its ``vertex`` and replacement as ints, a
    level-2 move its ``pair`` and replacement as lists.
    """

    level: int
    moves: tuple[Move, ...]

    def __bool__(self) -> bool:
        return True

    def to_json_dict(self) -> dict:
        key, shape = ("vertex", itemgetter(0)) if self.level == 1 else ("pair", list)
        moves = []
        for m in self.moves:
            entry: dict = {key: shape(m.members), "action": "drop" if m.is_drop else "swap"}
            if not m.is_drop:
                entry["replacement"] = shape(m.replacement)
            moves.append(entry)
        return {"level": self.level, "moves": moves}


@dataclass(frozen=True)
class MovabilityFailure:
    """Falsy outcome of a movability check, naming what blocked it."""

    reason: str
    detail: int | tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return False


def _coverage(closed: tuple[VertexSet, ...], s: VertexSet) -> tuple[VertexSet, VertexSet, VertexSet]:
    """The vertices s covers >= 1, == 1 and == 2 times, from the graph's ``closed`` table."""
    covered = once = twice = 0
    for v in bits(s):
        nv = closed[v]
        twice = twice & ~nv | once & nv
        once = once & ~nv | nv & ~covered
        covered |= nv
    return covered, once, twice


def is_1movable_dominating(g: Graph, s: VertexSet) -> MovabilityCertificate | MovabilityFailure:
    """Certificate iff s dominates and every single member is movable.

    A member v is movable if s minus v still dominates, or some outside
    neighbor u of v restores domination when substituted.
    """
    check_vertex_set(g, s)
    if s == 0:
        raise ValueError("the empty set cannot be checked for movability")
    closed = g.closed
    covered, once, _ = _coverage(closed, s)
    if covered != g.full_mask:
        return MovabilityFailure("not-dominating")
    moves = []
    for v in bits(s):
        lost = once & closed[v]
        if not lost:
            moves.append(Move((v,)))
            continue
        for u in bits(g.adj[v] & ~s):
            if not lost & ~closed[u]:
                moves.append(Move((v,), (u,)))
                break
        else:
            return MovabilityFailure("immovable-vertex", v)
    return MovabilityCertificate(1, tuple(moves))


def is_2movable_dominating(
    g: Graph, s: VertexSet, mode: ReplacementMode = ReplacementMode.LITERAL
) -> MovabilityCertificate | MovabilityFailure:
    """Certificate iff s dominates, has >= 2 members, and every pair is movable.

    Both ways of orienting a swap onto an unordered pair are covered by
    the scan: a replacement serving the higher member appears as the
    transposed candidate.  Singletons are rejected outright, which pins
    the 2-movable invariant's floor at 2.  A mode that is not a
    ReplacementMode member raises ValueError.
    """
    _check_mode(mode)
    check_vertex_set(g, s)
    if s == 0:
        raise ValueError("the empty set cannot be checked for movability")
    closed = g.closed
    covered, once, twice = _coverage(closed, s)
    if covered != g.full_mask:
        return MovabilityFailure("not-dominating")
    if s.bit_count() < 2:
        return MovabilityFailure("singleton")
    distinct = mode is ReplacementMode.DISTINCT
    moves = []
    for x, y in combinations(vertex_list(s), 2):
        nx, ny = closed[x], closed[y]
        lost = once & (nx | ny) | twice & nx & ny
        if not lost:
            moves.append(Move((x, y)))
            continue
        # the first (u, v) whose closed neighbourhoods cover what the pair loses
        outside_y = g.adj[y] & ~s
        for u in bits(g.adj[x] & ~s):
            left = lost & ~closed[u]
            for v in bits(outside_y):
                if not left & ~closed[v] and not (distinct and u == v):
                    break
            else:
                continue
            moves.append(Move((x, y), (u, v)))
            break
        else:
            return MovabilityFailure("immovable-pair", (x, y))
    return MovabilityCertificate(2, tuple(moves))


class JointResult(NamedTuple):
    """What one scan found: each requested invariant, None where not requested.

    ``m2`` maps each requested replacement mode to its result.  A named
    tuple rather than a frozen dataclass, which is slower both to define at
    import and to build once per solver call.
    """

    gamma: SolverResult | None
    m1: SolverResult | None
    m2: dict[ReplacementMode, SolverResult]


def solve_jointly(
    g: Graph, gamma: bool = False, m1: bool = False, modes: tuple[ReplacementMode, ...] = ()
) -> JointResult:
    """gamma, gamma_m1 and gamma_m2 in the given modes, from one scan of dominating sets.

    The scan starts where ``dominating_sets`` starts when gamma or
    gamma_m1 is asked for (gamma is then the first set scanned), and at
    least at 2 otherwise.  Each movable invariant's witness is the first
    set in scan order that passes its predicate.  When both modes are asked for,
    DISTINCT is tested only from the LITERAL witness onwards (see the
    module docstring).  A set holding a leaf and its one neighbour, or a
    strong support (a vertex with two leaves), is not tested for
    2-movability in any mode: it would fail.  When g has a strong support,
    DISTINCT is reported absent without testing any set.  The scan stops
    once every requested invariant has a witness, and reports absence for
    any that has none after the whole vertex set.  A mode that is not a
    ReplacementMode member raises ValueError.
    """
    check_solver_order(g.n)
    for mode in modes:
        _check_mode(mode)
    first = m1_found = None
    # the modes still without a witness, LITERAL first; only the head is tested
    pending = [m for m in _MODES if m in modes]
    found = {}
    # N[l] = {l, s} of each leaf l; s is a strong support if it has two leaves
    closed = g.closed
    leaves = [l for l, nv in enumerate(closed) if nv.bit_count() == 2]
    supports = [closed[l] & ~(1 << l) for l in leaves]
    strong = {s for s in supports if supports.count(s) > 1}
    # with a strong support no set is DISTINCT-movable (module docstring)
    if strong and ReplacementMode.DISTINCT in pending:
        pending.remove(ReplacementMode.DISTINCT)
    # no set holding a leaf and its support, or a strong support, is 2-movable
    skip = strong.union(closed[l] for l in leaves)
    for mask in dominating_sets(g, 1 if gamma or m1 else 2):
        if first is None:
            first = mask
        if m1 and m1_found is None:
            cert = is_1movable_dominating(g, mask)
            if cert:
                m1_found = SolverResult(mask.bit_count(), mask, cert)
        if pending and mask.bit_count() >= 2 and not any(mask & p == p for p in skip):
            while pending:
                cert = is_2movable_dominating(g, mask, pending[0])
                if not cert:
                    break
                found[pending.pop(0)] = SolverResult(mask.bit_count(), mask, cert)
        if not pending and (m1_found or not m1):
            break
    return JointResult(
        SolverResult(first.bit_count(), first) if gamma else None,
        (m1_found or SolverResult(None, None)) if m1 else None,
        {mode: found.get(mode) or SolverResult(None, None) for mode in modes},
    )


def gamma_m1(g: Graph) -> SolverResult:
    """Exact 1-movable domination number, or absence when no set qualifies."""
    return solve_jointly(g, m1=True).m1


def gamma_m2(g: Graph, mode: ReplacementMode = ReplacementMode.LITERAL) -> SolverResult:
    """Exact 2-movable domination number under the given replacement mode.

    Checks every dominating set with at least two members, smallest
    first, up to the whole vertex set, except those that hold a leaf and
    its support, or a strong support (module docstring): 2-movability is
    not closed under supersets, so no cardinality can be skipped once one
    fails.  Returns absence when none qualifies.  In DISTINCT mode a graph
    with a strong support is reported absent without checking any set.
    ``solve_jointly`` gives both modes from one scan, with the same
    witnesses: the DISTINCT witness never comes before the LITERAL one,
    since a DISTINCT certificate is a LITERAL one.
    """
    return solve_jointly(g, modes=(mode,)).m2[mode]


def verify_certificate(
    g: Graph,
    s: VertexSet,
    cert: MovabilityCertificate,
    mode: ReplacementMode = ReplacementMode.LITERAL,
) -> bool:
    """Independently re-check a certificate against the definition.

    Raises MalformedCertificateError when the level is not 1 or 2, when a
    move's members, or its replacement, do not number exactly ``level``,
    when the moves do not cover exactly the required members (level 1) or
    distinct pairs (level 2), or when a move holds a value of the wrong
    type (a str or float vertex, a bare int replacement) that the checks
    cannot compare or shift.  Returns False when the shape is right but s
    does not dominate, s has fewer members than the level (so a level-2
    certificate needs a pair), or some move does not hold: a drop that
    breaks domination, a replacement inside s or outside 0..n-1, a
    replacement not adjacent to its own member, coinciding replacements in
    DISTINCT mode, or a swap that breaks domination.  Only the adjacency
    and plain is_dominating are used, never the solver's predicates.  A
    mode that is not a ReplacementMode member raises ValueError.
    """
    _check_mode(mode)
    check_vertex_set(g, s)
    # a value of the wrong type (a str or float vertex, a bare int replacement)
    # fails in len, a comparison or a shift: malformed, at no cost per value
    try:
        level = cert.level
        if level not in (1, 2):
            raise MalformedCertificateError(f"unknown certificate level {level}")
        for m in cert.moves:
            if len(m.members) != level or not (m.is_drop or len(m.replacement) == level):
                raise MalformedCertificateError("move shape does not match the certificate level")
        members = vertex_list(s)
        if sorted(m.members for m in cert.moves) != list(combinations(members, level)):
            raise MalformedCertificateError(
                "moves must cover every required member or pair exactly once"
            )
        if len(members) < level or not is_dominating(g, s):
            return False

        distinct = mode is ReplacementMode.DISTINCT
        for move in cert.moves:
            rest = s
            for x in move.members:
                rest &= ~(1 << x)
            if not move.is_drop:
                if distinct and len(set(move.replacement)) < level:
                    return False
                for x, u in zip(move.members, move.replacement):
                    if not 0 <= u < g.n or s >> u & 1 or not g.adj[x] >> u & 1:
                        return False
                    rest |= 1 << u
            if not is_dominating(g, rest):
                return False
        return True
    except TypeError as err:
        raise MalformedCertificateError(f"move holds a value of the wrong type: {err}") from err
