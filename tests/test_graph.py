import random
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

import naive
from movdom import graph
from movdom import (
    Graph,
    bits,
    closed_neighborhood,
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected_classes,
    format_edge_list,
    from_edge_list,
    is_connected,
    is_dominating,
    make_family,
    mask_of,
    path,
    random_connected_graph,
    star,
    vertex_list,
)
from movdom.graph import enumerate_connected_graphs, read_edge_list
from strategies import graphs, graphs_with_subset


class TestConstruction:
    def test_p4_degree_sequence(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        assert [g.adj[v].bit_count() for v in range(4)] == [1, 2, 2, 1]

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (1, 2)])
        assert g == path(3)
        assert g.edge_count == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edge_list(2, [(0, 0)])
        with pytest.raises(ValueError, match="self-loop at vertex 2"):
            from_edge_list(3, [(0, 1), (2, 2)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list(3, [(0, 3)])

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            from_edge_list(0, [])

    def test_direct_constructor_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph((0b10, 0b00))

    def test_order_is_the_adjacency_length(self):
        g = Graph((0b10, 0b01))
        assert g.n == 2 and g == path(2)

    def test_order_cannot_be_given(self):
        with pytest.raises(TypeError):
            Graph(2, (0b10, 0b01))

    def test_empty_adjacency_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            Graph(())

    @pytest.mark.parametrize("adj", [(0b10,), (-1,)], ids=["past-n", "negative"])
    def test_neighbour_out_of_range_rejected(self, adj):
        with pytest.raises(ValueError, match="vertex 0 has a neighbor index out of range"):
            Graph(adj)

    @given(graphs())
    def test_invariants_hold_on_every_construction(self, g):
        for v in range(g.n):
            assert not g.adj[v] >> v & 1
            assert g.adj[v] >> g.n == 0
            for u in bits(g.adj[v]):
                assert g.adj[u] >> v & 1

    @given(graphs())
    def test_closed_neighbourhoods_built_with_the_graph(self, g):
        # built eagerly in __post_init__, so a fresh graph already holds it
        assert "closed" in vars(Graph(g.adj))
        assert g.closed == tuple(g.adj[v] | 1 << v for v in range(g.n))

    @given(graphs())
    def test_closed_is_not_part_of_the_value(self, g):
        rebuilt = Graph(g.adj)
        assert rebuilt == g and hash(rebuilt) == hash(g)
        assert repr(g) == f"Graph(n={g.n}, edges={g.edges()})"

    @given(graphs())
    def test_neighbour_tuples_built_with_the_graph(self, g):
        assert "nbrs" in vars(Graph(g.adj))
        assert g.nbrs == tuple(tuple(bits(g.adj[v])) for v in range(g.n))

    @given(graphs())
    def test_nbrs_is_not_part_of_the_value(self, g):
        rebuilt = Graph(g.adj)
        object.__setattr__(rebuilt, "nbrs", ((),) * g.n)
        assert rebuilt == g and hash(rebuilt) == hash(g)
        assert "nbrs" not in repr(g)


class TestFamilies:
    def test_complete_4(self):
        g = make_family("complete", 4)
        assert g.edge_count == 6
        assert all(g.adj[v].bit_count() == 3 for v in range(4))

    def test_star_4(self):
        g = make_family("star", 4)
        assert tuple(vertex_list(g.adj[0])) == (1, 2, 3)
        assert g.edge_count == 3

    def test_cycle_below_minimum(self):
        with pytest.raises(ValueError, match="at least 3"):
            make_family("cycle", 2)

    @pytest.mark.parametrize(
        "build, params, message",
        [
            (path, (0,), "path requires at least 1 vertex"),
            (complete, (0,), "complete graph requires at least 1 vertex"),
            (star, (1,), "star requires at least 2 vertices"),
            (complete_bipartite, (0, 2), "both parts nonempty"),
        ],
        ids=["path", "complete", "star", "complete-bipartite"],
    )
    def test_family_below_minimum(self, build, params, message):
        with pytest.raises(ValueError, match=message):
            build(*params)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            make_family("torus", 3)

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="parameter"):
            make_family("complete_bipartite", 2)

    def test_complete_bipartite_shape(self):
        g = complete_bipartite(2, 3)
        assert g.edge_count == 6
        assert tuple(vertex_list(g.adj[0])) == (2, 3, 4)

    def test_path_single_vertex(self):
        assert path(1).n == 1
        assert path(1).edge_count == 0

    def test_cycle_wraps(self):
        assert cycle(3).adj[2] >> 0 & 1


class TestNeighborhoods:
    def test_path_center(self):
        assert closed_neighborhood(path(3), mask_of(1)) == mask_of(0, 1, 2)

    def test_path_endpoint(self):
        assert closed_neighborhood(path(4), mask_of(0)) == mask_of(0, 1)

    def test_empty_set(self):
        assert closed_neighborhood(path(4), 0) == 0

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            closed_neighborhood(path(3), mask_of(3))

    @given(graphs_with_subset())
    def test_monotone(self, gs):
        g, s = gs
        sub = s & (s - 1)  # s minus its lowest member
        assert closed_neighborhood(g, sub) | closed_neighborhood(g, s) == closed_neighborhood(g, s)

    @given(graphs())
    def test_full_set_is_fixed_point(self, g):
        assert closed_neighborhood(g, g.full_mask) == g.full_mask


@st.composite
def _sparse_graphs(draw, max_n: int = 30) -> Graph:
    """Graphs of order 1-max_n with at most 2n edges, so many are disconnected."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    return from_edge_list(n, [(u, v) for u, v in pairs if u != v])


# orders 1-30: partial last 4-vertex chunks, and orders past the solvers' cap of 24
_UP_TO_30 = st.one_of(graphs(1, 30), _sparse_graphs())


class TestUnionTables:
    """``closed_neighborhood`` reads per-graph tables, one per 4 vertices."""

    @given(_UP_TO_30, st.data())
    def test_predicates_agree_with_naive(self, g, data):
        s = data.draw(st.integers(0, g.full_mask))
        view = naive.AdjacencyView(g.n, g.edges())
        members = vertex_list(s)
        expected = sorted(naive.closed_neighborhood(view, members))
        assert vertex_list(closed_neighborhood(g, s)) == expected
        assert is_dominating(g, s) == naive.dominates(view, members)
        assert is_connected(g) == naive.connected(view)

    @given(_UP_TO_30, st.data())
    def test_masks_out_of_range_rejected(self, g, data):
        s = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=g.full_mask + 1)))
        for predicate in (closed_neighborhood, is_dominating):
            with pytest.raises(ValueError, match="out of range"):
                predicate(g, s)

    @given(_UP_TO_30)
    def test_tables_are_built_with_the_graph_and_leave_equality_alone(self, g):
        twin = Graph(g.adj)
        assert "unions" in vars(twin) and len(twin.unions) == -(-g.n // 4)
        for c, table in enumerate(twin.unions):
            for x, union in enumerate(table):
                members = vertex_list(x << 4 * c)
                assert union == mask_of(*(u for v in members for u in bits(g.adj[v])))
        object.__setattr__(twin, "unions", ())
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path(4))

    def test_two_components(self):
        assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(complete(1))

    @given(graphs())
    def test_agrees_with_naive_traversal(self, g):
        view = naive.AdjacencyView(g.n, g.edges())
        assert is_connected(g) == naive.connected(view)


def _edge_mask(g):
    edges = set(g.edges())
    return sum(1 << i for i, p in enumerate(combinations(range(g.n), 2)) if p in edges)


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728), (6, 26_704)]
    )
    def test_counts_match_brute_force(self, n, count):
        listed = list(enumerate_connected_graphs(n))
        assert len(listed) == count
        assert naive.count_connected(n) == count
        assert len(set(listed)) == count  # each exactly once
        # in ascending edge mask, as a brute-force scan of every labeled graph meets them
        views = naive.all_labeled_graphs(n)
        assert [_edge_mask(g) for g in listed] == [
            m for m, view in enumerate(views) if naive.connected(view)
        ]

    def test_order_is_ascending_edge_mask(self):
        pairs = list(combinations(range(3), 2))
        seen = []
        for g in enumerate_connected_graphs(3):
            edge_set = set(g.edges())
            seen.append(sum(1 << i for i, p in enumerate(pairs) if p in edge_set))
        assert seen == sorted(seen)

    def test_all_yielded_are_connected(self):
        assert all(is_connected(g) for g in enumerate_connected_graphs(4))

    @pytest.mark.parametrize("n", [0, 7])
    def test_out_of_range(self, n):
        for enumerate_graphs in (enumerate_connected_graphs, enumerate_connected_classes):
            with pytest.raises(ValueError, match="enumeration supports"):
                list(enumerate_graphs(n))


@lru_cache(maxsize=None)
def _classes(n):
    return tuple(enumerate_connected_classes(n))


class TestClassifiedEnumeration:
    @pytest.mark.parametrize("n,classes", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)])
    def test_class_counts(self, n, classes):
        assert len(_classes(n)) == classes
        # the class sizes count every labeled connected graph
        assert sum(size for _, size in _classes(n)) == naive.count_connected(n)
        # each class's graph is a labeled one, classes in labeled order
        position = {g: i for i, g in enumerate(enumerate_connected_graphs(n))}
        at = [position[g] for g, _ in _classes(n)]
        assert at == sorted(at)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_classes_match_brute_force(self, n):
        # member and size of each class, in order, against every permutation of every edge set
        assert [(g.edges(), size) for g, size in _classes(n)] == naive.connected_classes(n)


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def _to_nx(nx, g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


class TestClassesAgainstAtlas:
    """The classes checked against networkx's atlas of all graphs on up to 7 vertices."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_representatives_match_atlas_one_to_one(self, nx, n):
        atlas = [a for a in nx.graph_atlas_g() if a.number_of_nodes() == n and nx.is_connected(a)]
        representatives = [g for g, _ in _classes(n)]
        assert len(representatives) == len(atlas)
        matched = []
        for rep in representatives:
            found = [i for i, a in enumerate(atlas) if nx.is_isomorphic(_to_nx(nx, rep), a)]
            assert len(found) == 1, rep
            matched += found
        # one atlas graph per class and every atlas graph met: the
        # representatives are pairwise non-isomorphic and miss no class
        assert sorted(matched) == list(range(len(atlas)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_class_sizes_are_orbit_sizes(self, nx, n):
        # orbit-stabiliser: a class of g holds n!/|Aut(g)| labeled graphs
        for g, size in _classes(n):
            h = _to_nx(nx, g)
            automorphisms = sum(1 for _ in nx.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
            assert size == factorial(n) // automorphisms, g

    @pytest.mark.parametrize("n,step", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 97)])
    def test_every_graph_isomorphic_to_its_representative(self, nx, n, step):
        # its representative: the one class graph isomorphic to it, which
        # is its class's least edge mask, so no later than it
        representatives = [(_edge_mask(r), _to_nx(nx, r)) for r, _ in _classes(n)]
        for g in list(enumerate_connected_graphs(n))[::step]:
            h = _to_nx(nx, g)
            found = [m for m, r in representatives if nx.is_isomorphic(h, r)]
            assert len(found) == 1 and found[0] <= _edge_mask(g), g


class TestRandomGraphs:
    def test_single_vertex(self):
        assert random_connected_graph(1, 0.5, 3) == complete(1)

    def test_probability_one_is_complete(self):
        assert random_connected_graph(5, 1.0, 11) == complete(5)

    def test_deterministic_per_seed(self):
        a = random_connected_graph(6, 0.4, 42)
        b = random_connected_graph(6, 0.4, 42)
        assert a == b

    def test_zero_probability_falls_back_to_spanning_tree(self):
        g = random_connected_graph(6, 0.0, 5)
        assert is_connected(g)
        assert g.edge_count == 5

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_probability_order_2_is_one_edge(self, seed):
        assert random_connected_graph(2, 0.0, seed) == path(2)

    def test_fallback_tree_is_uniform(self):
        # Cayley: 4^2 = 16 labeled trees on 4 vertices, each expected 1,000 times in 16,000
        rng = random.Random(0)
        counts = Counter(
            frozenset(map(frozenset, graph._uniform_spanning_tree(4, rng))) for _ in range(16_000)
        )
        assert len(counts) == 16
        assert all(850 <= c <= 1_150 for c in counts.values()), counts
        for n in range(2, 10):
            for _ in range(50):
                edges = graph._uniform_spanning_tree(n, rng)
                g = from_edge_list(n, edges)
                assert len(edges) == g.edge_count == n - 1
                assert is_connected(g)

    @pytest.mark.parametrize("seed", range(5))
    def test_always_connected(self, seed):
        assert is_connected(random_connected_graph(7, 0.3, seed))

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError, match="probability"):
            random_connected_graph(3, 1.5, 0)

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            random_connected_graph(0, 0.5, 0)


class TestEdgeListFormat:
    def test_round_trip(self):
        for g in [path(4), star(5), complete_bipartite(2, 3), random_connected_graph(8, 0.4, 2)]:
            assert from_edge_list(*read_edge_list(format_edge_list(g))) == g

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n4\n   \n0 1\n# another\n1 2\n2 3\n"
        assert from_edge_list(*read_edge_list(text)) == path(4)

    def test_header_must_be_single_integer(self):
        with pytest.raises(ValueError, match="header"):
            from_edge_list(*read_edge_list("4 5\n0 1\n"))

    def test_edge_lines_need_two_tokens(self):
        with pytest.raises(ValueError, match="exactly 'u v'"):
            from_edge_list(*read_edge_list("3\n0 1 2\n"))

    def test_non_integer_token(self):
        with pytest.raises(ValueError, match="non-integer"):
            from_edge_list(*read_edge_list("3\n0 x\n"))

    def test_non_ascii_rejected(self):
        with pytest.raises(ValueError, match="ASCII"):
            from_edge_list(*read_edge_list("3\n0 →\n"))

    def test_missing_header(self):
        with pytest.raises(ValueError, match="missing vertex-count header"):
            from_edge_list(*read_edge_list("# nothing here\n"))

    def test_self_loop_in_file(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edge_list(*read_edge_list("2\n1 1\n"))

    def test_format_is_canonical(self):
        assert format_edge_list(path(3)) == "3\n0 1\n1 2\n"


class TestMaskHelpers:
    def test_mask_of_and_back(self):
        assert mask_of(0, 2, 5) == 0b100101
        assert vertex_list(0b100101) == [0, 2, 5]

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mask_of(-1)

    def test_negative_mask_rejected(self):
        # the first draw already raises, so a loop that never ends cannot start
        with pytest.raises(ValueError, match="negative"):
            next(bits(-5))
        with pytest.raises(ValueError, match="negative"):
            vertex_list(-1)
        with pytest.raises(ValueError, match="negative"):
            list(bits(-5))

    @given(st.integers(0, (1 << 12) - 1))
    def test_bits_round_trip(self, mask):
        assert mask_of(*bits(mask)) == mask
