import pytest
from hypothesis import given

from movdom import (
    complete,
    corona,
    cycle,
    from_edge_list,
    is_connected,
    join,
    mask_of,
    path,
    slice_copy,
    star,
)
from strategies import graphs


def _partitions(pieces, n):
    """True iff the vertex masks in pieces cover 0..n-1 without overlap."""
    union = 0
    for piece in pieces:
        if union & piece:
            return False
        union |= piece
    return union == (1 << n) - 1


def _interval(start, stop):
    return mask_of(*range(start, stop))


class TestJoin:
    def test_k2_join_k2_is_k4(self):
        product, layout = join(complete(2), complete(2))
        assert product == complete(4)
        assert layout.g_range == (0, 2)
        assert layout.h_range == (2, 4)

    def test_k1_join_p4(self):
        product, _ = join(complete(1), path(4))
        assert product.n == 5
        assert product.neighbors(0) == (1, 2, 3, 4)
        assert product.has_edge(1, 2) and product.has_edge(3, 4)
        assert not product.has_edge(1, 3)

    def test_edge_count_identity(self):
        g, h = path(3), path(2)
        product, _ = join(g, h)
        assert product.edge_count == g.edge_count + h.edge_count + g.n * h.n == 9

    @given(graphs(max_n=5), graphs(max_n=5))
    def test_degrees_and_partition(self, g, h):
        product, layout = join(g, h)
        assert _partitions([_interval(*layout.g_range), _interval(*layout.h_range)], product.n)
        for v in range(g.n):
            assert product.degree(v) == g.degree(v) + h.n
        for w in range(h.n):
            assert product.degree(g.n + w) == h.degree(w) + g.n


class TestCorona:
    def test_k2_corona_k1_shape(self):
        product, layout = corona(complete(2), complete(1))
        assert product.edges() == [(0, 1), (0, 2), (1, 3)]
        assert layout.centers == (0, 1)
        assert layout.copies == ((2, 3), (3, 4))

    def test_p3_corona_k2_counts(self):
        g, h = path(3), complete(2)
        product, _ = corona(g, h)
        assert product.n == 9
        assert product.edge_count == g.edge_count + g.n * (h.edge_count + h.n) == 11

    def test_connected_even_with_edgeless_copies(self):
        edgeless_pair = from_edge_list(2, [])
        product, _ = corona(path(2), edgeless_pair)
        assert is_connected(product)

    def test_centers_see_only_their_copy(self):
        product, layout = corona(path(3), complete(2))
        for a in range(3):
            copy = layout.copy_mask(a)
            assert product.adj[layout.centers[a]] & ~copy == path(3).adj[a]

    @given(graphs(max_n=3), graphs(max_n=3))
    def test_degrees_and_partition(self, g, h):
        product, layout = corona(g, h)
        pieces = [1 << c for c in layout.centers] + [_interval(*c) for c in layout.copies]
        assert _partitions(pieces, product.n)
        for a in range(g.n):
            assert product.degree(layout.centers[a]) == g.degree(a) + h.n
            start, stop = layout.copies[a]
            for j, v in enumerate(range(start, stop)):
                assert product.degree(v) == h.degree(j) + 1

    @pytest.mark.parametrize("h", [path(4), cycle(4), star(4), complete(3)])
    def test_k1_corona_equals_k1_join(self, h):
        corona_product, _ = corona(complete(1), h)
        join_product, _ = join(complete(1), h)
        assert corona_product == join_product


class TestSliceCopy:
    def test_copies_of_p3(self):
        product, layout = corona(complete(2), path(3))
        for a in range(2):
            copy_graph = slice_copy(layout, a, product)
            assert copy_graph == path(3)

    def test_copies_of_k2_three_times(self):
        product, layout = corona(path(3), complete(2))
        for a in range(3):
            copy_graph = slice_copy(layout, a, product)
            assert copy_graph == complete(2)

    def test_center_out_of_range(self):
        product, layout = corona(path(3), complete(2))
        with pytest.raises(ValueError, match="center index"):
            slice_copy(layout, 3, product)
