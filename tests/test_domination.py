from itertools import combinations, islice
from math import comb

import pytest
from hypothesis import given, settings

import movdom.domination
import naive
from movdom import (
    ReplacementMode,
    SolverResult,
    complete,
    cycle,
    dominating_sets,
    gamma,
    gamma_m1,
    gamma_m2,
    is_dominating,
    mask_of,
    path,
    random_connected_graph,
    solve_jointly,
    star,
    vertex_list,
)
from movdom.domination import (
    ascending_k_subsets,
    dominating_samples,
    greedy_repair,
    sample_dominating_sets,
)
from movdom.graph import enumerate_connected_graphs
from strategies import graphs, graphs_with_subset

LITERAL = ReplacementMode.LITERAL
DISTINCT = ReplacementMode.DISTINCT


def _view(g):
    return naive.AdjacencyView(g.n, g.edges())


def _plain_greedy(g, s):
    """greedy_repair over plain sets: add the lowest vertex covering the most uncovered."""
    closed = [{v} for v in range(g.n)]
    for u, v in g.edges():
        closed[u].add(v)
        closed[v].add(u)
    chosen = set(vertex_list(s))
    covered = set().union(*(closed[v] for v in chosen))
    while len(covered) < g.n:
        best = max(range(g.n), key=lambda v: len(closed[v] - covered))
        chosen.add(best)
        covered |= closed[best]
    return chosen


class TestIsDominating:
    def test_p4_middle_pair(self):
        assert is_dominating(path(4), mask_of(1, 2))

    def test_p4_leaves_uncovered(self):
        assert not is_dominating(path(4), mask_of(0, 1))

    def test_whole_vertex_set(self):
        for g in [path(4), star(5), complete(1)]:
            assert is_dominating(g, g.full_mask)

    def test_empty_set_never_dominates(self):
        assert not is_dominating(complete(1), 0)
        assert not is_dominating(path(4), 0)

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            is_dominating(path(3), mask_of(3))

    @given(graphs_with_subset())
    def test_superset_closure(self, gs):
        g, s = gs
        if is_dominating(g, s):
            assert is_dominating(g, s | mask_of(s.bit_count() % g.n))

    @given(graphs_with_subset())
    def test_agrees_with_naive(self, gs):
        g, s = gs
        assert is_dominating(g, s) == naive.dominates(_view(g), set(vertex_list(s)))


class TestSolverResult:
    def test_value_is_the_witness_size(self):
        found = SolverResult(mask_of(0, 2))
        assert found.value == 2 and found.exists

    def test_absence(self):
        absent = SolverResult(None)
        assert absent.value is None and not absent.exists

    def test_value_cannot_be_given(self):
        with pytest.raises(TypeError):
            SolverResult(3, mask_of(0, 1, 2))


class TestGamma:
    def test_complete_graphs_need_one(self):
        assert gamma(complete(5)).value == 1

    def test_p4(self):
        result = gamma(path(4))
        assert result.value == 2
        assert vertex_list(result.witness) == [0, 2]

    def test_c4(self):
        assert gamma(cycle(4)).value == 2

    def test_witness_dominates_and_is_minimum(self):
        # minimality re-verified by enumeration, up to order 8
        for g in [path(7), cycle(8), random_connected_graph(8, 0.35, 3)]:
            result = gamma(g)
            assert is_dominating(g, result.witness)
            assert result.witness.bit_count() == result.value
            for combo in combinations(range(g.n), result.value - 1):
                assert not is_dominating(g, mask_of(*combo))

    def test_witness_is_lex_least_bitmask(self):
        for g in [path(5), cycle(5), complete(3)]:
            result = gamma(g)
            better = [
                mask
                for mask in ascending_k_subsets(g.n, result.value)
                if is_dominating(g, mask)
            ]
            assert result.witness == better[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_naive_on_all_connected(self, n):
        for g in enumerate_connected_graphs(n):
            value, witness = naive.naive_gamma(_view(g))
            result = gamma(g)
            assert result.value == value
            assert vertex_list(result.witness) == list(witness)

    @pytest.mark.parametrize(
        "solve, g",
        [
            pytest.param(lambda g: next(dominating_sets(g)), path(25), id="dominating_sets"),
            pytest.param(gamma, path(25), id="gamma"),
            pytest.param(gamma_m1, path(25), id="gamma_m1"),
            pytest.param(lambda g: gamma_m2(g, LITERAL), path(25), id="gamma_m2-literal"),
            pytest.param(lambda g: gamma_m2(g, DISTINCT), path(25), id="gamma_m2-distinct"),
            # star(25) has a strong support, so no DISTINCT set is ever tested:
            # the scan must still start, and raise rather than report absence
            pytest.param(
                lambda g: solve_jointly(g, modes=(DISTINCT,)), star(25), id="solve_jointly-distinct"
            ),
        ],
    )
    def test_order_cap(self, solve, g):
        # every exact entry scans the one generator, which owns the cap
        with pytest.raises(ValueError, match="capped"):
            solve(g)

    @given(graphs())
    def test_greedy_never_beats_exact(self, g):
        assert gamma(g).value <= greedy_repair(g, 0).bit_count()

    def test_greedy_repair_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            greedy_repair(path(3), 1 << 3)

    @given(graphs_with_subset())
    def test_greedy_repair_pick_rule(self, case):
        g, s = case
        repaired = greedy_repair(g, s)
        assert repaired & s == s
        assert set(vertex_list(repaired)) == _plain_greedy(g, s)

    @pytest.mark.parametrize(
        "g, first", [(cycle(19), 7), (path(18), 6), (star(5), 1)], ids=["C19", "P18", "star5"]
    )
    def test_scan_starts_at_the_domination_bound(self, monkeypatch, g, first):
        # ceil(n / (1 + max degree)): the first size dominating_sets tries
        below = movdom.domination._dominating_below
        sizes = []

        def spy(closed, ban, stuck, most, full, chosen, banned, covered, once, twice, top, left):
            if chosen == 0:
                sizes.append(left)
            return below(
                closed, ban, stuck, most, full, chosen, banned, covered, once, twice, top, left
            )

        monkeypatch.setattr(movdom.domination, "_dominating_below", spy)
        witness = next(dominating_sets(g))
        assert sizes[0] == first == witness.bit_count() == gamma(g).value


class TestDominatingSets:
    @settings(max_examples=100)
    @given(graphs(max_n=9))
    def test_matches_filtered_subset_scan(self, g):
        # every non-empty dominating set, by size and then by mask
        view = _view(g)
        every = [
            mask
            for k in range(1, g.n + 1)
            for mask in ascending_k_subsets(g.n, k)
            if naive.dominates(view, vertex_list(mask))
        ]
        assert list(dominating_sets(g)) == every


class TestSampler:
    def test_every_sample_dominates(self):
        for s in sample_dominating_sets(path(4), 50, 7):
            assert is_dominating(path(4), s)

    def test_zero_count(self):
        assert sample_dominating_sets(path(4), 0, 1) == []

    def test_deterministic(self):
        g = random_connected_graph(9, 0.3, 1)
        assert sample_dominating_sets(g, 30, 5) == sample_dominating_sets(g, 30, 5)

    def test_longer_run_extends_shorter(self):
        g = cycle(6)
        assert sample_dominating_sets(g, 40, 9)[:15] == sample_dominating_sets(g, 15, 9)

    def test_list_is_a_prefix_of_the_stream(self):
        g = random_connected_graph(9, 0.3, 1)
        assert list(islice(dominating_samples(g, 5), 30)) == sample_dominating_sets(g, 30, 5)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sample_dominating_sets(path(3), -1, 0)


class TestAscendingKSubsets:
    @pytest.mark.parametrize("n,k", [(5, 0), (5, 2), (6, 3), (4, 4), (3, 5)])
    def test_counts_and_order(self, n, k):
        masks = list(ascending_k_subsets(n, k))
        assert len(masks) == (comb(n, k) if k <= n else 0)
        assert masks == sorted(masks)
        assert all(m.bit_count() == k for m in masks)
