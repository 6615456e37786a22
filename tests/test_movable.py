from itertools import combinations, product
from math import ceil
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import movdom.movable
import naive
from movdom import (
    Graph,
    MalformedCertificateError,
    MovabilityCertificate,
    MovabilityFailure,
    Move,
    ReplacementMode,
    SolverResult,
    complete,
    cycle,
    dominating_sets,
    enumerate_connected_classes,
    from_edge_list,
    gamma,
    gamma_m1,
    gamma_m2,
    is_1movable_dominating,
    is_2movable_dominating,
    is_dominating,
    join,
    mask_of,
    path,
    random_connected_graph,
    star,
    vertex_list,
    verify_certificate,
)
from movdom.domination import greedy_repair
from movdom.graph import enumerate_connected_graphs
from strategies import (
    graphs,
    graphs_with_leaves,
    graphs_with_strong_support,
    graphs_with_subset,
    sparse_graphs_with_subset,
)

LITERAL = ReplacementMode.LITERAL
DISTINCT = ReplacementMode.DISTINCT


def _view(g):
    return naive.AdjacencyView(g.n, g.edges())


def _first_moves(g, s, level, distinct):
    """Each member (level 1) or pair (level 2) of s with its first working move.

    The move is () for a drop, the first swap in ascending order, or None
    when nothing works.  Whether s itself dominates, or has enough
    members, is never looked at.
    """
    view = _view(g)
    members = vertex_list(s)
    for group in combinations(members, level):
        rest = set(members) - set(group)
        outside = [sorted(set(view.neighbors(x)) - set(members)) for x in group]
        swaps = [r for r in product(*outside) if not (distinct and len(set(r)) < level)]
        yield group, next((r for r in [(), *swaps] if naive.dominates(view, rest | set(r))), None)


def _brute_certificate(g, s, level, distinct):
    """A well-shaped certificate for s built move by move, or None."""
    moves = []
    for group, found in _first_moves(g, s, level, distinct):
        if found is None:
            return None
        moves.append(Move(group, found or None))
    return MovabilityCertificate(level, tuple(moves))


def _check(g, s, level, mode):
    if level == 1:
        return is_1movable_dominating(g, s)
    return is_2movable_dominating(g, s, mode)


FORGED = [
    (star(4), mask_of(1, 2), MovabilityCertificate(2, (Move((1, 2), (0, 0)),))),
    (star(4), mask_of(1), MovabilityCertificate(1, (Move((1,), (0,)),))),
    (complete(2), mask_of(0), MovabilityCertificate(2, ())),
    (path(2), 0, MovabilityCertificate(1, ())),
]
FORGED_IDS = ["non-dominating-pair", "non-dominating-vertex", "singleton", "empty"]


class TestOneMovable:
    def test_p4_middle_pair_swaps_outward(self):
        cert = is_1movable_dominating(path(4), mask_of(1, 2))
        assert cert
        assert cert.moves == (Move((1,), (0,)), Move((2,), (3,)))

    def test_k4_singleton_swaps_anywhere(self):
        cert = is_1movable_dominating(complete(4), mask_of(0))
        assert cert.moves == (Move((0,), (1,)),)

    def test_p4_endpoints(self):
        cert = is_1movable_dominating(path(4), mask_of(0, 3))
        assert cert
        assert cert.moves == (Move((0,), (1,)), Move((3,), (2,)))

    def test_leaf_does_not_dominate(self):
        outcome = is_1movable_dominating(star(4), mask_of(1))
        assert not outcome
        assert outcome.reason == "not-dominating"

    def test_stuck_vertex_named(self):
        # the star center dominates alone, but no leaf can replace it
        outcome = is_1movable_dominating(star(4), mask_of(0))
        assert not outcome
        assert outcome.reason == "immovable-vertex"
        assert outcome.detail == 0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty set"):
            is_1movable_dominating(path(3), 0)

    def test_out_of_range_rejected(self):
        g = path(3)
        with pytest.raises(ValueError, match="out of range"):
            is_1movable_dominating(g, 1 << g.n)


class TestTwoMovable:
    def test_p4_distinct_swap(self):
        cert = is_2movable_dominating(path(4), mask_of(1, 2), DISTINCT)
        assert cert.moves == (Move((1, 2), (0, 3)),)

    def test_star_literal_reuses_center(self):
        cert = is_2movable_dominating(star(4), mask_of(1, 2, 3), LITERAL)
        assert cert
        assert cert.moves == (
            Move((1, 2), (0, 0)),
            Move((1, 3), (0, 0)),
            Move((2, 3), (0, 0)),
        )

    def test_star_distinct_has_no_move(self):
        outcome = is_2movable_dominating(star(4), mask_of(1, 2, 3), DISTINCT)
        assert not outcome
        assert outcome.reason == "immovable-pair"
        assert outcome.detail == (1, 2)

    def test_singleton_is_never_2movable(self):
        outcome = is_2movable_dominating(complete(4), mask_of(0), LITERAL)
        assert not outcome
        assert outcome.reason == "singleton"

    def test_non_dominating_reported(self):
        outcome = is_2movable_dominating(star(4), mask_of(1, 2), LITERAL)
        assert outcome.reason == "not-dominating"

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty set"):
            is_2movable_dominating(path(3), 0, LITERAL)

    def test_out_of_range_rejected(self):
        g = path(3)
        with pytest.raises(ValueError, match="out of range"):
            is_2movable_dominating(g, 1 << g.n, LITERAL)

    def test_drop_preferred_over_swap(self):
        g = complete(4)
        cert = is_2movable_dominating(g, mask_of(0, 1, 2), LITERAL)
        assert all(move.is_drop for move in cert.moves)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mode", [LITERAL, DISTINCT])
    def test_agrees_with_naive_reference(self, n, mode):
        for g in enumerate_connected_graphs(n):
            view = _view(g)
            for s in range(1, 1 << n):
                fast = bool(is_2movable_dominating(g, s, mode))
                slow = naive.two_movable(view, set(vertex_list(s)), mode is DISTINCT)
                assert fast == slow, (g, s, mode)


class TestSolvers:
    def test_gamma_m1_fixed_points(self):
        assert gamma_m1(complete(4)).value == 1
        assert gamma_m1(path(4)).value == 2

    def test_gamma_m1_k1_has_none(self):
        result = gamma_m1(complete(1))
        assert not result.exists
        assert result.witness is None

    def test_gamma_m2_p4(self):
        for mode in (LITERAL, DISTINCT):
            result = gamma_m2(path(4), mode)
            assert result.value == 2
            assert vertex_list(result.witness) == [0, 2]

    def test_gamma_m2_star4(self):
        literal = gamma_m2(star(4), LITERAL)
        assert literal.value == 3
        assert vertex_list(literal.witness) == [1, 2, 3]
        assert not gamma_m2(star(4), DISTINCT).exists

    def test_gamma_m2_join_value(self):
        product, _ = join(path(3), path(2))
        assert gamma_m2(product, LITERAL).value == 2
        assert gamma_m2(product, DISTINCT).value == 2

    def test_gamma_m2_never_below_two(self):
        for g in [complete(1), complete(2), path(3)]:
            result = gamma_m2(g, LITERAL)
            assert result.value is None or result.value >= 2

    def test_isolated_vertex_blocks_movability(self):
        # vertex 2 can only dominate itself and can never move away
        g = from_edge_list(3, [(0, 1)])
        assert not gamma_m1(g).exists
        assert not gamma_m2(g, LITERAL).exists

    def test_witness_cardinality_matches_value(self):
        for g in [path(5), star(5), complete(4)]:
            for solver, mode in [(gamma_m1, None), (gamma_m2, LITERAL), (gamma_m2, DISTINCT)]:
                result = solver(g) if mode is None else solver(g, mode)
                if result.exists:
                    assert result.witness.bit_count() == result.value

    def test_hierarchy_on_all_connected_quartics(self):
        for g in enumerate_connected_graphs(4):
            base = gamma(g).value
            assert base <= gamma_m1(g).value
            for mode in (LITERAL, DISTINCT):
                m2 = gamma_m2(g, mode)
                if m2.exists:
                    assert base <= m2.value
                    assert m2.value >= 2

    def test_literal_never_exceeds_distinct(self):
        for g in enumerate_connected_graphs(4):
            distinct = gamma_m2(g, DISTINCT)
            if distinct.exists:
                assert gamma_m2(g, LITERAL).value <= distinct.value

    @settings(max_examples=100)
    @given(graphs(max_n=9))
    def test_solvers_match_naive(self, g):
        # the witness pins the numerically-least-witness contract too
        view = _view(g)

        def summary(result):
            return (result.value, vertex_list(result.witness) if result.exists else None)

        def oracle(value, witness):
            return (value, None if witness is None else list(witness))

        assert summary(gamma(g)) == oracle(*naive.naive_gamma(view))
        assert summary(gamma_m1(g)) == oracle(*naive.naive_gamma_m1(view))
        for mode in (LITERAL, DISTINCT):
            expected = oracle(*naive.naive_gamma_m2(view, mode is DISTINCT))
            assert summary(gamma_m2(g, mode)) == expected, mode

    def test_solver_results_reverify(self):
        for g in enumerate_connected_graphs(4):
            m1 = gamma_m1(g)
            assert verify_certificate(g, m1.witness, m1.certificate)
            for mode in (LITERAL, DISTINCT):
                m2 = gamma_m2(g, mode)
                if m2.exists:
                    assert verify_certificate(g, m2.witness, m2.certificate, mode)


# Conjectured closed forms, checked here against the solvers (never against stored output):
# gamma_m1 = ceil(2n/5) from n = 4; gamma_m2 = ceil(3n/7) in both modes from P6 and C7,
# and 2 on P5, C5 and C6.
@pytest.mark.parametrize("make, first_m2", [(path, 6), (cycle, 7)], ids=["path", "cycle"])
def test_paths_and_cycles_follow_the_closed_forms(make, first_m2):
    for n in range(4, 25):
        g = make(n)
        assert gamma_m1(g).value == ceil(2 * n / 5), n
        if n >= 5:
            expected = ceil(3 * n / 7) if n >= first_m2 else 2
            assert [gamma_m2(g, mode).value for mode in (LITERAL, DISTINCT)] == [expected] * 2, n


def _loop_gamma_m1(g):
    """gamma_m1 as a first-hit loop written out here, apart from the solver."""
    for mask in dominating_sets(g):
        cert = is_1movable_dominating(g, mask)
        if cert:
            return SolverResult(mask, certificate=cert)
    return SolverResult(None)


def _loop_gamma_m2(g, mode):
    """gamma_m2 as a plain loop over ``dominating_sets``: no ban table, no recent pairs."""
    for mask in (s for s in dominating_sets(g) if s.bit_count() >= 2):
        cert = is_2movable_dominating(g, mask, mode)
        if cert:
            return SolverResult(mask, certificate=cert)
    return SolverResult(None)


def _scan_tests(solver, g, *args, **kwargs):
    """What ``solver(g, ...)`` returns, and each (set, mode, outcome) of the scan's per-set test.

    The outcome is None when a recent blocking pair rejected the set
    without the full pair test.
    """
    tests = []
    per_set = movdom.movable._scan_test

    def recording(g, s, once, twice, mode, recent):
        outcome = per_set(g, s, once, twice, mode, recent)
        tests.append((s, mode, outcome))
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(movdom.movable, "_scan_test", recording)
        return solver(g, *args, **kwargs), tests


@st.composite
def _sparse_graphs(draw):
    """Cycles, paths and sparse random connected graphs of order 8-14, where most sets fail."""
    n = draw(st.integers(8, 14))
    family = draw(st.sampled_from(["cycle", "path", "random"]))
    if family == "cycle":
        return cycle(n)
    if family == "path":
        return path(n)
    p = draw(st.sampled_from([0.1, 0.15, 0.2]))
    return random_connected_graph(n, p, draw(st.integers(0, 999)))


class TestJointScan:
    """Each solver against its plain loop and the naive oracle, on the same graphs."""

    def _matches_loops_and_naive(self, g):
        found = {mode: gamma_m2(g, mode) for mode in (LITERAL, DISTINCT)}
        # value, witness and certificate, from each scan and its plain loop
        assert gamma(g).witness == next(dominating_sets(g))
        assert gamma_m1(g) == _loop_gamma_m1(g)
        for mode in (LITERAL, DISTINCT):
            assert found[mode] == _loop_gamma_m2(g, mode)
        view = _view(g)
        naive_results = [
            (gamma(g), naive.naive_gamma(view)),
            (gamma_m1(g), naive.naive_gamma_m1(view)),
            *((found[m], naive.naive_gamma_m2(view, m is DISTINCT)) for m in found),
        ]
        for result, (value, witness) in naive_results:
            assert result.value == value
            assert (vertex_list(result.witness) if result.exists else None) == (
                None if witness is None else list(witness)
            )
        # every DISTINCT certificate is a LITERAL one, so no DISTINCT witness
        # comes before the LITERAL witness in scan order (size, then mask)
        literal, distinct = found[LITERAL], found[DISTINCT]
        if distinct.exists:
            assert literal.exists
            assert (literal.value, literal.witness) <= (distinct.value, distinct.witness)
            assert verify_certificate(g, distinct.witness, distinct.certificate, LITERAL)

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=9))
    def test_matches_loops_and_naive(self, g):
        self._matches_loops_and_naive(g)

    @settings(max_examples=80, deadline=None)
    @given(graphs_with_leaves(9))
    def test_matches_loops_and_naive_with_leaves(self, g):
        self._matches_loops_and_naive(g)

    @settings(max_examples=40, deadline=None)
    @given(_sparse_graphs())
    def test_matches_loops_and_naive_where_most_sets_fail(self, g):
        # most sets here are rejected by a recent blocking pair, without the full test
        self._matches_loops_and_naive(g)

    @pytest.mark.parametrize(
        "g",
        [star(5), complete(4), join(complete(1), path(4))[0]],
        ids=["star5", "K4", "K1+P4"],
    )
    def test_universal_vertex_singleton_never_tested(self, g):
        # a universal vertex dominates alone; the m2 scan starts there, but
        # hands no one-member set to the 2-movability predicate
        assert gamma(g).value == 1
        view, checked = _view(g), []
        for mode in (LITERAL, DISTINCT):
            found, tested = TestLeafRule._checked_sets(gamma_m2, g, mode)
            checked += tested
            assert found == _loop_gamma_m2(g, mode)
            value, witness = naive.naive_gamma_m2(view, mode is DISTINCT)
            assert found.value == value
            assert found.witness == (None if witness is None else mask_of(*witness))
        assert checked and all(s.bit_count() >= 2 for s in checked)


class TestRecentBlockingPairs:
    """The scan rejects a set by its recent blocking pairs before the full pair test."""

    def test_recent_pairs_tested_in_the_mode_asked_for(self):
        # on star(5), {1, 2} moves only to (0, 0): LITERAL gets the full test, DISTINCT does not
        g, s = star(5), mask_of(1, 2, 3, 4)
        _, once, twice = movdom.movable._coverage(g, s)
        recent = [(1, 2)]
        cert = movdom.movable._scan_test(g, s, once, twice, LITERAL, recent)
        assert cert == is_2movable_dominating(g, s, LITERAL)
        assert movdom.movable._scan_test(g, s, once, twice, DISTINCT, recent) is None
        assert recent == [(1, 2)]

    def test_new_blocking_pair_goes_in_front(self):
        # no remembered pair lies in s, so the full test runs and the oldest pair is forgotten
        g, s = star(5), mask_of(1, 2, 3, 4)
        _, once, twice = movdom.movable._coverage(g, s)
        recent = [(0, 1), (0, 2), (0, 3), (0, 4)]
        failure = movdom.movable._scan_test(g, s, once, twice, DISTINCT, recent)
        assert failure == is_2movable_dominating(g, s, DISTINCT)
        assert recent == [(1, 2), (0, 1), (0, 2), (0, 3)]

    @pytest.mark.parametrize("g, full", [(cycle(19), 374), (path(18), 56)], ids=["C19", "P18"])
    def test_full_test_count(self, g, full):
        # the scan tests 1,771 sets of C19 and 436 of P18 before the LITERAL witness
        found, tests = _scan_tests(gamma_m2, g, LITERAL)
        assert found == _loop_gamma_m2(g, LITERAL)
        assert sum(outcome is not None for _, _, outcome in tests) == full


def _leaf_pairs(g):
    """The mask of {l, s} for each leaf l and its one neighbour s."""
    return [
        mask_of(v, *vertex_list(g.adj[v])) for v in range(g.n) if len(vertex_list(g.adj[v])) == 1
    ]


def _holds_leaf_pair(s, pairs):
    return any(s & pair == pair for pair in pairs)


class TestLeafRule:
    """No set holding a leaf and its support is 2-movable, so the scan never tests one."""

    def _no_set_with_leaf_pair_is_2movable(self, g):
        pairs, view = _leaf_pairs(g), _view(g)
        for s in (d for d in dominating_sets(g) if d.bit_count() >= 2):
            if not _holds_leaf_pair(s, pairs):
                continue
            for mode in (LITERAL, DISTINCT):
                failure = is_2movable_dominating(g, s, mode)
                assert isinstance(failure, MovabilityFailure)
                assert failure.reason == "immovable-pair"
                assert not naive.two_movable(view, vertex_list(s), mode is DISTINCT)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lemma_on_connected_graphs(self, n):
        # the lemma does not depend on labels, so order 6 checks one graph per class
        if n < 6:
            checked = enumerate_connected_graphs(n)
        else:
            checked = (g for g, _ in enumerate_connected_classes(n))
        for g in checked:
            self._no_set_with_leaf_pair_is_2movable(g)

    @settings(max_examples=80, deadline=None)
    @given(graphs_with_leaves(9))
    def test_lemma_with_leaves(self, g):
        self._no_set_with_leaf_pair_is_2movable(g)

    def test_lemma_on_k2(self):
        # both vertices are leaves, each the other's support
        assert _leaf_pairs(complete(2)) == [mask_of(0, 1)] * 2
        self._no_set_with_leaf_pair_is_2movable(complete(2))

    @staticmethod
    def _checked_sets(solver, g, *args, **kwargs):
        """What ``solver(g, ...)`` returns, and the sets its scan tests for 2-movability."""
        found, tests = _scan_tests(solver, g, *args, **kwargs)
        return found, [s for s, _, _ in tests]

    @settings(max_examples=80, deadline=None)
    @given(graphs_with_leaves(9))
    def test_scan_skips_sets_with_leaf_pair(self, g):
        pairs = _leaf_pairs(g)
        for mode in (LITERAL, DISTINCT):
            _, checked = self._checked_sets(gamma_m2, g, mode)
            assert not any(_holds_leaf_pair(s, pairs) for s in checked)

    def test_scan_check_count_without_witness(self):
        # vertex 8 has two leaves, so DISTINCT has no witness and is decided
        # without a check (a scan to n tested 630 of 3,673 dominating sets),
        # and LITERAL skips every set holding 8 (214 checks without that skip)
        g = random_connected_graph(14, 0.15, 3)
        found, checked = self._checked_sets(gamma_m2, g, DISTINCT)
        assert not found.exists
        assert len(checked) == 0
        found, checked = self._checked_sets(gamma_m2, g, LITERAL)
        assert found.exists
        assert len(checked) == 12


def _strong_supports(g):
    """The mask of the vertices with two or more neighbours of degree 1."""
    leafy = (sum(g.adj[u].bit_count() == 1 for u in vertex_list(g.adj[v])) for v in range(g.n))
    return mask_of(*(v for v, leaves in enumerate(leafy) if leaves > 1))


class TestStrongSupportRule:
    """No set holding a strong support is 2-movable, and no set at all is in DISTINCT."""

    @settings(max_examples=80, deadline=None)
    @given(graphs_with_strong_support(9, connected=True))
    def test_matches_naive(self, g):
        view = _view(g)
        assert not gamma_m2(g, DISTINCT).exists
        assert naive.naive_gamma_m2(view, True) == (None, None)
        value, witness = naive.naive_gamma_m2(view, False)
        found = gamma_m2(g, LITERAL)
        assert found.value == value
        assert found.witness == (None if witness is None else mask_of(*witness))

    @settings(max_examples=80, deadline=None)
    @given(graphs_with_strong_support(9))
    def test_scan_never_tests_a_strong_support(self, g):
        strong = _strong_supports(g)
        _, tests = _scan_tests(gamma_m2, g, LITERAL)
        assert strong and not any(s & strong for s, _, _ in tests)
        found, tests = _scan_tests(gamma_m2, g, DISTINCT)
        assert not found.exists and tests == []

    def test_distinct_absent_exactly_with_strong_support(self):
        # labeled graphs of order 4-6, counted through their classes
        absent = with_strong = 0
        for n in range(4, 7):
            for g, size in enumerate_connected_classes(n):
                distinct = gamma_m2(g, DISTINCT).exists
                strong = bool(_strong_supports(g))
                assert gamma_m2(g, LITERAL).exists
                assert distinct is not strong
                absent += size * (not distinct)
                with_strong += size * strong
        assert absent == with_strong == 1875


def _tree(n, seed):
    """A uniform random recursive tree: vertex i hangs from a random earlier vertex."""
    rng = Random(seed)
    return from_edge_list(n, [(i, rng.randrange(i)) for i in range(1, n)])


class TestBannedStream:
    """The 2-movable scan reads a stream that never builds a set the two rules rule out."""

    @staticmethod
    def _read_stream(g):
        """LITERAL ``gamma_m2(g)``, the ban table and start size its scan passed the
        stream, and the masks the stream built for it."""
        calls, built = [], []
        stream = movdom.movable.dominating_sets_with_coverage

        def recording(g, ban, smallest):
            calls.append((ban, smallest))
            for item in stream(g, ban, smallest):
                built.append(item[0])
                yield item

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(movdom.movable, "dominating_sets_with_coverage", recording)
            found = gamma_m2(g, LITERAL)
        [asked] = calls
        return found, asked, built

    def _assert_streams_the_kept_sets(self, g):
        """The scan's ban table is the two rules' and its stream is the kept sets."""
        pairs, strong = _leaf_pairs(g), _strong_supports(g)
        expected = [0] * g.n
        for pair in pairs:
            for v in vertex_list(pair):
                expected[v] |= pair & ~(1 << v)
        for v in vertex_list(strong):
            expected[v] |= 1 << v
        kept = [
            s
            for s in dominating_sets(g)
            if s.bit_count() >= 2 and not _holds_leaf_pair(s, pairs) and not s & strong
        ]
        _, (ban, smallest), _ = self._read_stream(g)
        assert (list(ban), smallest) == (expected, 2)
        streamed = list(movdom.movable.dominating_sets_with_coverage(g, ban, smallest))
        assert [mask for mask, _, _ in streamed] == kept
        for mask, once, twice in streamed:
            assert (once, twice) == movdom.movable._coverage(g, mask)[1:]

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(graphs_with_leaves(9), graphs_with_strong_support(9)))
    def test_yields_the_kept_sets_with_their_coverage(self, g):
        self._assert_streams_the_kept_sets(g)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_yields_the_kept_sets_on_every_small_class(self, n):
        # every shape up to order 6: K2, where each leaf is the other's
        # support, the stars, and every tree and graph with leaves or none
        for g, _ in enumerate_connected_classes(n):
            self._assert_streams_the_kept_sets(g)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10**6))
    def test_matches_naive_on_random_trees(self, n, seed):
        g = _tree(n, seed)
        view = _view(g)
        for mode in (LITERAL, DISTINCT):
            found = gamma_m2(g, mode)
            value, witness = naive.naive_gamma_m2(view, mode is DISTINCT)
            assert found.value == value
            assert found.witness == (None if witness is None else mask_of(*witness))

    def test_sets_built_before_the_witness(self):
        # dominating_sets builds 647,916 sets of this tree up to the LITERAL
        # witness; 20 of them hold no leaf with its support and no strong support
        found, _, built = self._read_stream(_tree(24, 3))
        assert found.value == 17 and built[-1] == found.witness
        assert len(built) == 20


class TestVerifyCertificate:
    def test_emitted_certificates_verify(self):
        cert = is_2movable_dominating(path(4), mask_of(1, 2), DISTINCT)
        assert verify_certificate(path(4), mask_of(1, 2), cert, DISTINCT)

    def test_tampered_swap_into_s_fails(self):
        s = mask_of(1, 2)
        tampered = MovabilityCertificate(2, (Move((1, 2), (1, 3)),))
        assert not verify_certificate(path(4), s, tampered, DISTINCT)

    def test_non_adjacent_replacement_fails(self):
        s = mask_of(1, 2)
        tampered = MovabilityCertificate(2, (Move((1, 2), (3, 0)),))
        assert not verify_certificate(path(4), s, tampered, DISTINCT)

    def test_second_replacement_must_neighbour_second_member(self):
        # {0, 2} dominates P4 either way round, but 0 is no neighbour of 3
        s = mask_of(1, 3)
        assert verify_certificate(path(4), s, MovabilityCertificate(2, (Move((1, 3), (0, 2)),)))
        tampered = MovabilityCertificate(2, (Move((1, 3), (2, 0)),))
        assert not verify_certificate(path(4), s, tampered)

    def test_missing_pair_is_malformed(self):
        cert = is_2movable_dominating(star(4), mask_of(1, 2, 3), LITERAL)
        truncated = MovabilityCertificate(2, cert.moves[:-1])
        with pytest.raises(MalformedCertificateError, match="exactly once"):
            verify_certificate(star(4), mask_of(1, 2, 3), truncated, LITERAL)

    def test_duplicated_pair_is_malformed(self):
        cert = is_2movable_dominating(path(4), mask_of(1, 2), LITERAL)
        doubled = MovabilityCertificate(2, cert.moves + cert.moves)
        with pytest.raises(MalformedCertificateError):
            verify_certificate(path(4), mask_of(1, 2), doubled, LITERAL)

    def test_wrong_move_shape_is_malformed(self):
        cert = MovabilityCertificate(1, (Move((1, 2), None),))
        with pytest.raises(MalformedCertificateError, match="shape"):
            verify_certificate(path(4), mask_of(1, 2), cert)

    @pytest.mark.parametrize(
        "level, moves",
        [
            (2, (Move((1, 2), (3,)),)),
            (1, (Move((1,), (0, 3)), Move((2,), (3,)))),
            (1, (Move((1,), ()), Move((2,), (3,)))),
        ],
        ids=["pair-one-replacement", "vertex-two-replacements", "vertex-empty-replacement"],
    )
    def test_replacement_of_wrong_length_is_malformed(self, level, moves):
        cert = MovabilityCertificate(level, moves)
        with pytest.raises(MalformedCertificateError, match="move shape"):
            verify_certificate(path(4), mask_of(1, 2), cert)

    @pytest.mark.parametrize(
        "level, moves",
        [
            (2, (Move((1, 2), (-1, 3)),)),
            (2, (Move((1, 2), (0, 4)),)),
            (1, (Move((1,), (-2,)), Move((2,), (3,)))),
            (1, (Move((1,), (0,)), Move((2,), (4,)))),
        ],
        ids=["pair-negative", "pair-past-n", "vertex-negative", "vertex-past-n"],
    )
    def test_replacement_outside_the_graph_fails(self, level, moves):
        # no such vertex is a neighbour, so the move does not hold
        cert = MovabilityCertificate(level, moves)
        assert not verify_certificate(path(4), mask_of(1, 2), cert)

    @pytest.mark.parametrize(
        "move",
        [Move((1,), 0), Move((1,), ("a",)), Move((1,), (0.0,)), Move(("1",), None)],
        ids=["int-replacement", "str-replacement", "float-replacement", "str-member"],
    )
    def test_value_of_wrong_type_is_malformed(self, move):
        cert = MovabilityCertificate(1, (move, Move((2,), (3,))))
        with pytest.raises(MalformedCertificateError, match="wrong type"):
            verify_certificate(path(4), mask_of(1, 2), cert)

    def test_float_replacement_judged_by_value(self):
        # the range check runs before any shift, so only an in-range float reaches one
        def with_replacement(u):
            return MovabilityCertificate(1, (Move((1,), (u,)), Move((2,), (3,))))

        s = mask_of(1, 2)
        with pytest.raises(MalformedCertificateError, match="wrong type"):
            verify_certificate(path(4), s, with_replacement(0.0))
        assert verify_certificate(path(4), s, with_replacement(-1.0)) is False
        assert verify_certificate(path(4), s, with_replacement(4.0)) is False

    def test_unknown_level_is_malformed(self):
        cert = MovabilityCertificate(3, (Move((1, 2, 3), None),))
        with pytest.raises(MalformedCertificateError, match="unknown certificate level 3"):
            verify_certificate(path(4), mask_of(1, 2, 3), cert)

    def test_literal_cert_can_fail_distinct_check(self):
        s = mask_of(1, 2, 3)
        cert = is_2movable_dominating(star(4), s, LITERAL)
        assert verify_certificate(star(4), s, cert, LITERAL)
        assert not verify_certificate(star(4), s, cert, DISTINCT)

    @settings(max_examples=40)
    @given(graphs(min_n=2, max_n=5))
    def test_distinct_witness_cert_also_passes_literal(self, g):
        result = gamma_m2(g, DISTINCT)
        if result.exists:
            assert verify_certificate(g, result.witness, result.certificate, LITERAL)

    @pytest.mark.parametrize("g, s, cert", FORGED, ids=FORGED_IDS)
    def test_forged_certificate_fails(self, g, s, cert):
        # every move holds, but s does not dominate or is too small for the level
        assert not verify_certificate(g, s, cert, LITERAL)

    @pytest.mark.parametrize("level, mode", [(1, LITERAL), (2, LITERAL), (2, DISTINCT)])
    @settings(max_examples=200)
    @given(graphs_with_subset(1, 6))
    def test_agrees_with_naive_when_every_move_exists(self, level, mode, case):
        g, s = case
        cert = _brute_certificate(g, s, level, mode is DISTINCT)
        if cert is None:
            return
        members = set(vertex_list(s))
        if level == 1:
            expected = naive.one_movable(_view(g), members)
        else:
            expected = naive.two_movable(_view(g), members, mode is DISTINCT)
        assert verify_certificate(g, s, cert, mode) == expected

    def test_independent_of_the_predicates_coverage(self, monkeypatch):
        # the checker must decide every move without the predicates' masks
        certified = [
            (g, mode, gamma_m2(g, mode))
            for g in [path(4), path(8), cycle(9), star(5)]
            for mode in (LITERAL, DISTINCT)
        ]

        def unusable(g, s):
            raise AssertionError("verify_certificate used the predicates' coverage masks")

        monkeypatch.setattr(movdom.movable, "_coverage", unusable)
        checked = 0
        for g, mode, result in certified:
            if result.exists:
                assert verify_certificate(g, result.witness, result.certificate, mode)
                checked += 1
        assert checked == 7
        for g, s, cert in FORGED:
            assert not verify_certificate(g, s, cert, LITERAL)

    def test_independent_of_the_closed_table(self):
        # the checker reads only adj, so a graph whose closed table is wiped still checks
        result = gamma_m2(cycle(6))
        g = cycle(6)
        object.__setattr__(g, "closed", (0,) * g.n)
        assert is_dominating(g, result.witness)
        assert verify_certificate(g, result.witness, result.certificate)
        # {1, 4} still dominates C6, but 4 is no neighbour of 0
        assert result.certificate.moves == (Move((0, 3), (1, 4)),)
        forged = MovabilityCertificate(2, (Move((0, 3), (4, 1)),))
        assert not verify_certificate(g, result.witness, forged)

    @settings(max_examples=200)
    @given(graphs_with_subset(1, 10))
    def test_verdicts_ignore_a_wrong_closed_table(self, case):
        # were the checker to read them, emptied tables would fail every predicate
        # certificate, and full ones pass every all-drop certificate that leaves a member
        g, s = case
        members = vertex_list(s)
        checks = []
        if s:  # the predicates reject the empty set
            checks += [(is_1movable_dominating(g, s), LITERAL)]
            checks += [(is_2movable_dominating(g, s, mode), mode) for mode in (LITERAL, DISTINCT)]
            checks = [(cert, mode) for cert, mode in checks if cert]
        for level in (1, 2):
            drops = tuple(Move(m) for m in combinations(members, level))
            checks += [(MovabilityCertificate(level, drops), mode) for mode in (LITERAL, DISTINCT)]
        everyone = tuple(range(g.n))
        for wrong_closed, wrong_nbrs in (((0,) * g.n, ((),) * g.n),
                                         ((g.full_mask,) * g.n, (everyone,) * g.n)):
            broken = Graph(g.adj)
            object.__setattr__(broken, "closed", wrong_closed)
            object.__setattr__(broken, "nbrs", wrong_nbrs)
            for cert, mode in checks:
                verdict = verify_certificate(g, s, cert, mode)
                assert verify_certificate(broken, s, cert, mode) == verdict

    def test_failure_object_is_falsy(self):
        assert not MovabilityFailure("not-dominating")

    def test_certificate_json_shape(self):
        cert = is_2movable_dominating(path(4), mask_of(1, 2), DISTINCT)
        payload = cert.to_json_dict()
        assert payload == {
            "level": 2,
            "moves": [{"pair": [1, 2], "action": "swap", "replacement": [0, 3]}],
        }


@pytest.mark.parametrize(
    "call",
    [
        lambda mode: gamma_m2(path(4), mode),
        lambda mode: is_2movable_dominating(star(4), mask_of(1, 2, 3), mode),
        lambda mode: verify_certificate(
            star(4), mask_of(1, 2, 3), is_2movable_dominating(star(4), mask_of(1, 2, 3)), mode
        ),
    ],
    ids=["gamma_m2", "is_2movable_dominating", "verify_certificate"],
)
def test_mode_must_be_a_replacement_mode(call):
    """A str is no mode: "distinct" used to read as LITERAL, or as no mode at all."""
    with pytest.raises(ValueError, match="unknown replacement mode"):
        call("distinct")


class TestOneMovableOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_naive_reference(self, n):
        for g in enumerate_connected_graphs(n):
            view = _view(g)
            for s in range(1, 1 << n):
                fast = bool(is_1movable_dominating(g, s))
                slow = naive.one_movable(view, set(vertex_list(s)))
                assert fast == slow, (g, s)


class TestExactCertificates:
    """The predicates' certificates and failures, move by move, against brute force."""

    @pytest.mark.parametrize("level, mode", [(1, LITERAL), (2, LITERAL), (2, DISTINCT)])
    @settings(max_examples=300, deadline=None)
    @given(graphs_with_subset(1, 9), st.booleans())
    def test_matches_brute_force(self, level, mode, case, repair):
        self._assert_matches_brute_force(level, mode, case, repair)

    # longer neighbour tuples, and masks of more than one 4-bit chunk; connected, as
    # graphs() draws at these orders rarely needed a swap (1 certificate in 200 had one)
    @pytest.mark.parametrize("level, mode", [(1, LITERAL), (2, LITERAL), (2, DISTINCT)])
    @settings(max_examples=100, deadline=None)
    @given(sparse_graphs_with_subset(10, 16), st.booleans())
    def test_matches_brute_force_at_orders_10_to_16(self, level, mode, case, repair):
        self._assert_matches_brute_force(level, mode, case, repair)

    @staticmethod
    def _assert_matches_brute_force(level, mode, case, repair):
        # repairing half the draws keeps most of them dominating
        g, s = case
        if repair:
            s = greedy_repair(g, s)
        if s == 0:
            with pytest.raises(ValueError, match="empty set"):
                _check(g, s, level, mode)
            return
        outcome = _check(g, s, level, mode)
        if not naive.dominates(_view(g), set(vertex_list(s))):
            assert outcome == MovabilityFailure("not-dominating")
            return
        if s.bit_count() < level:
            assert outcome == MovabilityFailure("singleton")
            return
        expected = _brute_certificate(g, s, level, mode is DISTINCT)
        if expected is not None:
            assert outcome == expected
            return
        moves = _first_moves(g, s, level, mode is DISTINCT)
        stuck = next(group for group, found in moves if found is None)
        if level == 1:
            assert outcome == MovabilityFailure("immovable-vertex", stuck[0])
        else:
            assert outcome == MovabilityFailure("immovable-pair", stuck)
