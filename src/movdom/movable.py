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
iff the replacements' closed neighbourhoods cover ``lost``.  The swap
candidates come from the graph's ``nbrs`` tuples, members skipped, so
they are tried in ascending order without a generator per member.
``verify_certificate`` uses neither these masks nor ``closed`` nor
``nbrs``: it re-checks every move with plain ``is_dominating``, which
reads only the adjacency, so it stays independent of the predicates.

``gamma`` is the first set of ``dominating_sets``.  ``gamma_m1`` and
``solve_jointly`` walk ``dominating_sets_with_coverage``, which yields
each set with its ``once`` and ``twice`` masks, carried along the
generator's branch, so neither scan rebuilds them.  ``gamma_m1`` is a
first-hit loop over every dominating set.  ``solve_jointly`` walks, once
for gamma_m2's requested modes, the same sets in the same order from two
members up, less those the two rules below rule out.  Every DISTINCT
certificate is also a LITERAL one, so no set before the LITERAL witness
is DISTINCT-movable: DISTINCT is tested only from that set onwards, and
its witness is still the first DISTINCT-movable set in scan order.

No set that holds a leaf l and its one neighbour s is 2-movable, in
either mode (the leaf rule): dropping the pair {l, s} leaves l uncovered,
and l has no neighbour outside the set to swap to.  So l and s ban each
other in the generator's ban table, and no set holding both is built.

A support with two leaves l1 and l2 is a strong support s (Haynes,
Hedetniemi and Slater).  (a) No set holding s is 2-movable, in either
mode: with a leaf it falls to the leaf rule, and without one, dropping s
with any other member x uncovers l1 and l2.  x's replacement covers
neither, and no single neighbour of s covers both.  So s bans itself:
it is never picked, and the generator prunes as if s were absent.  (b) No
set at all is 2-movable in DISTINCT: by (a) s is outside the set, so l1
and l2 are inside, and the pair {l1, l2} can only be swapped to (s, s).
So DISTINCT is reported absent without testing any set.  A set left
unbuilt would fail its test anyway, so every value, least witness and
certificate stays the same.  On all 27,470 labeled connected graphs of
order 4-6 a LITERAL witness exists, and the 1,875 with no DISTINCT
witness are exactly the 1,875 with a strong support.

Whether a pair {x, y} moves depends only on S within N[N[x] | N[y]], so
the pair that blocked one set often blocks the next (the "last conflict"
heuristic of Lecoutre, Sais, Tabary and Vidal, *Artificial Intelligence*
173, 2009).  The scan first tests a set on the blocking pairs of its last
four failed tests, and rejects it if one of them is immovable: it would
fail the full test anyway.  Every other set gets the full canonical test,
so every witness and certificate stays the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .domination import SolverResult, dominating_sets_with_coverage, is_dominating
from .graph import Graph, VertexSet, bits, check_vertex_set, vertex_list


class ReplacementMode(Enum):
    """Whether a pair swap may reuse one vertex for both replacements."""

    LITERAL = "literal"
    DISTINCT = "distinct"


# Both modes in definition order.  The joint scan relies on LITERAL coming
# first: DISTINCT is tested only from the LITERAL witness onwards.
_MODES = tuple(ReplacementMode)

_RECENT_PAIRS = 4  # how many blocking pairs the joint scan remembers (module docstring)


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
    is None when the members are simply dropped.  A named tuple: a frozen
    dataclass is slower to build, and the predicates build one per member
    or pair.
    """

    members: tuple[int, ...]
    replacement: tuple[int, ...] | None = None

    @property
    def is_drop(self) -> bool:
        return self.replacement is None


@dataclass(frozen=True)
class MovabilityCertificate:
    """One verified move per member (level 1) or per distinct pair (level 2).

    Truthy (it has no ``__len__``), where a ``MovabilityFailure`` is falsy.
    In JSON a level-1 move names its ``vertex`` and replacement as ints, a
    level-2 move its ``pair`` and replacement as lists.
    """

    level: int
    moves: tuple[Move, ...]

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


def _coverage(g: Graph, s: VertexSet) -> tuple[VertexSet, VertexSet, VertexSet]:
    """The vertices s covers >= 1, == 1 and == 2 times; ValueError if s is out of range or empty."""
    check_vertex_set(g, s)
    if s == 0:
        raise ValueError("the empty set cannot be checked for movability")
    closed = g.closed
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
    covered, once, _ = _coverage(g, s)
    if covered != g.full_mask:
        return MovabilityFailure("not-dominating")
    return _vertex_moves(g, s, once)


def _vertex_moves(
    g: Graph, s: VertexSet, once: VertexSet
) -> MovabilityCertificate | MovabilityFailure:
    """Canonical moves for every member of the dominating set s, whose coverage is once."""
    closed, nbrs = g.closed, g.nbrs
    moves = []
    for v in bits(s):
        lost = once & closed[v]
        if not lost:
            moves.append(Move((v,)))
            continue
        # a member u covers none of v's private neighbours, so only outside ones pass
        for u in nbrs[v]:
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
    covered, once, twice = _coverage(g, s)
    if covered != g.full_mask:
        return MovabilityFailure("not-dominating")
    if s.bit_count() < 2:
        return MovabilityFailure("singleton")
    pairs = combinations(vertex_list(s), 2)
    return _pair_moves(g, s, once, twice, mode is ReplacementMode.DISTINCT, pairs)


def _pair_moves(
    g: Graph, s: VertexSet, once: VertexSet, twice: VertexSet, distinct: bool, pairs
) -> MovabilityCertificate | MovabilityFailure:
    """Canonical moves for ``pairs`` of the dominating set s, whose coverage is once and twice."""
    closed, nbrs = g.closed, g.nbrs
    moves = []
    for x, y in pairs:
        nx, ny = closed[x], closed[y]
        lost = once & (nx | ny) | twice & nx & ny
        if not lost:
            moves.append(Move((x, y)))
            continue
        # the first (u, v) outside s whose closed neighbourhoods cover what the pair loses
        for u in nbrs[x]:
            if s >> u & 1:
                continue
            left = lost & ~closed[u]
            for v in nbrs[y]:
                if not left & ~closed[v] and not s >> v & 1 and not (distinct and u == v):
                    break
            else:
                continue
            moves.append(Move((x, y), (u, v)))
            break
        else:
            return MovabilityFailure("immovable-pair", (x, y))
    return MovabilityCertificate(2, tuple(moves))


def _scan_test(
    g: Graph, s: VertexSet, once: VertexSet, twice: VertexSet, mode: ReplacementMode, recent: list
) -> MovabilityCertificate | MovabilityFailure | None:
    """The full test of s, or None if a ``recent`` pair in s is immovable; new ones go in front."""
    distinct = mode is ReplacementMode.DISTINCT
    held = [(x, y) for x, y in recent if s >> x & 1 and s >> y & 1]
    if held and not _pair_moves(g, s, once, twice, distinct, held):
        return None
    cert = _pair_moves(g, s, once, twice, distinct, combinations(vertex_list(s), 2))
    if not cert:
        recent.insert(0, cert.detail)
        del recent[_RECENT_PAIRS:]
    return cert


def solve_jointly(
    g: Graph, modes: tuple[ReplacementMode, ...] = ()
) -> dict[ReplacementMode, SolverResult]:
    """gamma_m2 in each of the given modes, from one scan of dominating sets.

    Each mode's witness is the first set of ``dominating_sets`` with at
    least two members that is 2-movable in that mode.  The scan never
    builds the sets the module docstring rules out, tests the rest first
    on recent blocking pairs, stops once every mode has a witness, and
    reports absence for any mode without one.  One pass over ``g.nbrs``
    builds the ban table: a leaf bans its one neighbour both ways, and a
    support that gains a second leaf bans itself, so DISTINCT is never
    tested.  A mode that is not a ReplacementMode member raises ValueError.
    """
    for mode in modes:
        _check_mode(mode)
    # ban[v]: the picks that may not join v.  No set holding a leaf and its
    # support, or a strong support, is 2-movable, so none is built.
    ban = [0] * g.n
    strong = False
    for leaf, nl in enumerate(g.nbrs):
        if len(nl) == 1:
            s = nl[0]
            if ban[s] & ~(1 << leaf):  # s gains a second leaf (in K2, ban[s] is only this leaf)
                ban[s] |= 1 << s
                strong = True
            ban[s] |= 1 << leaf
            ban[leaf] |= 1 << s
    # the modes still without a witness, LITERAL first; only the head is tested.
    # With a strong support no set is DISTINCT-movable (module docstring).
    pending = [m for m in _MODES if m in modes and not (strong and m is ReplacementMode.DISTINCT)]
    found = {}
    recent = []  # the blocking pairs of the last failed full tests, newest first
    for mask, once, twice in dominating_sets_with_coverage(g, ban, 2):
        while pending:
            cert = _scan_test(g, mask, once, twice, pending[0], recent)
            if not cert:
                break
            found[pending.pop(0)] = SolverResult(mask, certificate=cert)
        if not pending:
            break
    return {mode: found.get(mode) or SolverResult(None) for mode in modes}


def gamma_m1(g: Graph) -> SolverResult:
    """Exact 1-movable domination number, or absence when no set qualifies.

    The witness is the first 1-movable set of ``dominating_sets``, as
    ``gamma``'s is the first set.  Each set is tested on the coverage
    masks the generator carries, with no ban.
    """
    for mask, once, _ in dominating_sets_with_coverage(g, (0,) * g.n, 1):
        cert = _vertex_moves(g, mask, once)
        if cert:
            return SolverResult(mask, certificate=cert)
    return SolverResult(None)


def gamma_m2(g: Graph, mode: ReplacementMode = ReplacementMode.LITERAL) -> SolverResult:
    """Exact 2-movable domination number under the given replacement mode.

    The first set of ``solve_jointly``'s scan that is 2-movable in this
    mode, or absence when none is: 2-movability is not closed under
    supersets, so the scan runs up to the whole vertex set.
    """
    return solve_jointly(g, modes=(mode,))[mode]


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
