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
they are tried in ascending order without a generator per member.  On a
graph within ``SOLVER_MAX_ORDER`` every drop move comes from one shared
table, one ``Move`` per vertex and one per pair, built at import; a
larger graph gets fresh drops.  Other moves are built with
``tuple.__new__``, as ``Move``'s own constructor is a Python function.

``verify_certificate`` stays independent of the predicates: it reads
neither these masks nor ``closed`` nor ``nbrs``.  It tests S once with
plain ``is_dominating`` and then each move, in canonical order, from
unions built from the adjacency alone, never from ``unions`` or
coverage counts.  With N[m] = adj[m] | 1 << m for each member m,
``before[m]`` is the union of N over the members below m and ``after[m]``
over those above it.  Dropping x, or the pair x < y, leaves
``before[x] | between | after[y]`` covered, where ``between`` is the union
over the members strictly between x and y; it grows by one N as y rises
for one x.  A move holds iff that union, with N[u] for each replacement u,
is every vertex: a few big-int operations per move, not a domination test.

``gamma`` is the first set of ``dominating_sets``.  ``gamma_m1`` and
``gamma_m2`` walk ``dominating_sets_with_coverage``, which yields each
set with its ``once`` and ``twice`` masks, carried along the generator's
branch, so neither scan rebuilds them.  ``gamma_m1`` is a first-hit loop
over every dominating set.  ``gamma_m2`` is a first-hit loop, in one
mode, over the same sets in the same order from two members up, less
those the two rules below rule out.

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

Whether a member v moves depends only on S within N[N[v]], and a pair
{x, y} only on S within N[N[x] | N[y]], so the member or pair that
blocked one set often blocks the next (the "last conflict" heuristic of
Lecoutre, Sais, Tabary and Vidal, *Artificial Intelligence* 173, 2009).
Both scans first test a set on the blocking members (``gamma_m1``) or
pairs (``gamma_m2``) of their last four failed tests, and reject it if
one of them is immovable: it would fail the full test anyway.  The
pre-test reads the coverage masks and runs the same swap search as the
full test, ``_vertex_swap`` or ``_pair_swap``, so a rejected set builds
no list, move or failure.  Every other set gets the full canonical test,
so every witness and certificate stays the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .domination import (
    SOLVER_MAX_ORDER,
    SolverResult,
    dominating_sets_with_coverage,
    is_dominating,
)
from .graph import Graph, VertexSet, bits, check_vertex_set


class ReplacementMode(Enum):
    """Whether a pair swap may reuse one vertex for both replacements."""

    LITERAL = "literal"
    DISTINCT = "distinct"


_MODES = tuple(ReplacementMode)

_members_of = attrgetter("members")

_RECENT_PAIRS = 4  # how many blocking members or pairs a scan remembers (module docstring)


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
    dataclass is slower to build, and the predicates build one per swap.
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


# Move's own __new__ is a Python function; the predicates build moves with tuple's
_new_move = tuple.__new__

# The drop moves of graphs within the solvers' cap, shared by every certificate:
# _DROPS[v] is Move((v,)) and _PAIR_DROPS[y][x] is Move((x, y)) for x < y.
_DROPS = tuple(_new_move(Move, ((v,), None)) for v in range(SOLVER_MAX_ORDER))
_PAIR_DROPS = tuple(
    tuple(_new_move(Move, ((x, y), None)) for x in range(y)) for y in range(SOLVER_MAX_ORDER)
)


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


def _vertex_swap(closed, nbrs, lost: VertexSet, v: int) -> int | None:
    """The first neighbour of v whose closed neighbourhood covers ``lost``, or None.

    ``lost`` is v's private neighbours: a member covers none of them, so
    only an outside neighbour can pass.
    """
    for u in nbrs[v]:
        if not lost & ~closed[u]:
            return u
    return None


def _vertex_moves(
    g: Graph, s: VertexSet, once: VertexSet
) -> MovabilityCertificate | MovabilityFailure:
    """Canonical moves for every member of the dominating set s, whose coverage is once."""
    closed, nbrs = g.closed, g.nbrs
    shared = g.n <= SOLVER_MAX_ORDER  # else the table has no row for some member
    moves = []
    for v in bits(s):
        lost = once & closed[v]
        if not lost:
            moves.append(_DROPS[v] if shared else _new_move(Move, ((v,), None)))
            continue
        u = _vertex_swap(closed, nbrs, lost, v)
        if u is None:
            return MovabilityFailure("immovable-vertex", v)
        moves.append(_new_move(Move, ((v,), (u,))))
    return MovabilityCertificate(1, tuple(moves))


def _vertex_scan_test(
    g: Graph, s: VertexSet, once: VertexSet, recent: list
) -> MovabilityCertificate | MovabilityFailure | None:
    """The full test of s, or None if a ``recent`` member of s is immovable; new ones go in front.

    A rejected set builds no list, move or failure.
    """
    closed, nbrs = g.closed, g.nbrs
    for v in recent:
        if s >> v & 1:
            lost = once & closed[v]
            if lost and _vertex_swap(closed, nbrs, lost, v) is None:
                return None
    cert = _vertex_moves(g, s, once)
    if not cert:
        recent.insert(0, cert.detail)
        del recent[_RECENT_PAIRS:]
    return cert


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
    return _pair_moves(g, s, once, twice, mode is ReplacementMode.DISTINCT)


def _pair_swap(
    closed, nbrs, s: VertexSet, lost: VertexSet, distinct: bool, x: int, y: int
) -> tuple[int, int] | None:
    """The first (u, v) outside s, u a neighbour of x and v of y, whose closed
    neighbourhoods cover ``lost``, in ascending order; None if there is none."""
    for u in nbrs[x]:
        if s >> u & 1:
            continue
        left = lost & ~closed[u]
        for v in nbrs[y]:
            if not left & ~closed[v] and not s >> v & 1 and not (distinct and u == v):
                return u, v
    return None


def _pair_moves(
    g: Graph, s: VertexSet, once: VertexSet, twice: VertexSet, distinct: bool
) -> MovabilityCertificate | MovabilityFailure:
    """Canonical moves for every pair of the dominating set s, whose coverage is once and twice."""
    closed, nbrs = g.closed, g.nbrs
    shared = g.n <= SOLVER_MAX_ORDER  # else the table has no row for some member
    moves = []
    for x, y in combinations(bits(s), 2):
        nx, ny = closed[x], closed[y]
        lost = once & (nx | ny) | twice & nx & ny
        if not lost:
            moves.append(_PAIR_DROPS[y][x] if shared else _new_move(Move, ((x, y), None)))
            continue
        swap = _pair_swap(closed, nbrs, s, lost, distinct, x, y)
        if swap is None:
            return MovabilityFailure("immovable-pair", (x, y))
        moves.append(_new_move(Move, ((x, y), swap)))
    return MovabilityCertificate(2, tuple(moves))


def _scan_test(
    g: Graph, s: VertexSet, once: VertexSet, twice: VertexSet, mode: ReplacementMode, recent: list
) -> MovabilityCertificate | MovabilityFailure | None:
    """The full test of s, or None if a ``recent`` pair in s is immovable; new ones go in front.

    A rejected set builds no list, move or failure.
    """
    distinct = mode is ReplacementMode.DISTINCT
    closed, nbrs = g.closed, g.nbrs
    for x, y in recent:
        if s >> x & 1 and s >> y & 1:
            nx, ny = closed[x], closed[y]
            lost = once & (nx | ny) | twice & nx & ny
            if lost and _pair_swap(closed, nbrs, s, lost, distinct, x, y) is None:
                return None
    cert = _pair_moves(g, s, once, twice, distinct)
    if not cert:
        recent.insert(0, cert.detail)
        del recent[_RECENT_PAIRS:]
    return cert


def gamma_m1(g: Graph) -> SolverResult:
    """Exact 1-movable domination number, or absence when no set qualifies.

    The witness is the first 1-movable set of ``dominating_sets``, as
    ``gamma``'s is the first set.  Each set is tested on the coverage
    masks the generator carries, with no ban, and first on the members
    that blocked recent sets (module docstring).
    """
    recent = []  # the blocking members of the last failed full tests, newest first
    for mask, once, _ in dominating_sets_with_coverage(g, (0,) * g.n, 1):
        cert = _vertex_scan_test(g, mask, once, recent)
        if cert:
            return SolverResult(mask, certificate=cert)
    return SolverResult(None)


def gamma_m2(g: Graph, mode: ReplacementMode = ReplacementMode.LITERAL) -> SolverResult:
    """Exact 2-movable domination number under the given replacement mode.

    The witness is the first set of ``dominating_sets`` with at least two
    members that is 2-movable in this mode, or absence when none is:
    2-movability is not closed under supersets, so the scan runs up to the
    whole vertex set.  The scan never builds the sets the module docstring
    rules out and tests the rest first on recent blocking pairs.  One pass
    over ``g.nbrs`` builds the ban table: a leaf bans its one neighbour
    both ways, and a support that gains a second leaf bans itself, so
    DISTINCT is reported absent without testing a set.  A mode that is not
    a ReplacementMode member, or an order above the solvers' cap, raises
    ValueError.
    """
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
    sets = dominating_sets_with_coverage(g, ban, 2)  # refuses an over-cap graph here
    # with a strong support no set is DISTINCT-movable (module docstring)
    if strong and mode is ReplacementMode.DISTINCT:
        return SolverResult(None)
    recent = []  # the blocking pairs of the last failed full tests, newest first
    for mask, once, twice in sets:
        cert = _scan_test(g, mask, once, twice, mode, recent)
        if cert:
            return SolverResult(mask, certificate=cert)
    return SolverResult(None)


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
    type that the checks cannot compare, index or shift: a str vertex, a float
    member, a bare int replacement, or a float replacement inside 0..n-1.
    Returns False when the shape is right but s does not dominate, s has
    fewer members than the level (so a level-2 certificate needs a pair),
    or some move does not hold: a drop that breaks domination, a
    replacement inside s or outside 0..n-1 (a float one too, as the range
    check comes before any shift), a replacement not adjacent to its own
    member, coinciding replacements in DISTINCT mode, or a swap that breaks
    domination.  The moves are checked in canonical order, and the first
    move that fails a check decides: a float member raises only if no move
    before it, in that order, has already returned False.  s is tested
    once with plain is_dominating, and each move from unions of N[m] =
    adj[m] | 1 << m over the members before, between and after its own (the
    module docstring): O(1) per move, never the solver's predicates nor the
    graph's closed, nbrs or unions tables.  A mode that is not a
    ReplacementMode member raises ValueError.
    """
    _check_mode(mode)
    check_vertex_set(g, s)
    # a value of the wrong type (a str or float vertex, a bare int replacement)
    # fails in len, a comparison, an index or a shift: malformed, at no cost per value
    try:
        level = cert.level
        if level not in (1, 2):
            raise MalformedCertificateError(f"unknown certificate level {level}")
        for m in cert.moves:
            replacement = m.replacement
            if len(m.members) != level or not (replacement is None or len(replacement) == level):
                raise MalformedCertificateError("move shape does not match the certificate level")
        members = bits(s)
        moves = sorted(cert.moves, key=_members_of)  # canonical order, as the predicates emit
        if list(map(_members_of, moves)) != list(combinations(members, level)):
            raise MalformedCertificateError(
                "moves must cover every required member or pair exactly once"
            )
        if len(members) < level or not is_dominating(g, s):
            return False

        # N[v], before[v] and after[v] of the module docstring, indexed by the
        # member v, so a member of the wrong type fails as an index: malformed
        adj, n, full = g.adj, g.n, g.full_mask
        nbhd, before, after = [0] * n, [0] * n, [0] * n
        union = 0
        for v in members:
            before[v] = union
            nbhd[v] = nv = adj[v] | 1 << v
            union |= nv
        union = 0
        for v in reversed(members):
            after[v] = union
            union |= nbhd[v]
        distinct = mode is ReplacementMode.DISTINCT
        head = None
        for move in moves:
            group = move.members
            x, y = group[0], group[-1]  # x == y at level 1
            if x != head:
                head, between = x, 0
            rest = before[x] | between | after[y]
            between |= nbhd[y]
            replacement = move.replacement
            if replacement is not None:
                if distinct and len(set(replacement)) < level:
                    return False
                for m, u in zip(group, replacement):
                    if not 0 <= u < n or s >> u & 1 or not adj[m] >> u & 1:
                        return False
                    rest |= adj[u] | 1 << u
            if rest != full:
                return False
        return True
    except TypeError as err:
        raise MalformedCertificateError(f"move holds a value of the wrong type: {err}") from err
