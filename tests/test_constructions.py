import re
import tracemalloc

import pytest

from p4hat import (
    GraphError,
    VertexCountError,
    bipartite_matching,
    book,
    complete,
    contains_suspension_p4,
    count_triangles,
    decompose,
    sixteen_vertex,
    small_extremal,
)
from p4hat.constructions import FAMILIES


class TestBipartiteMatching:
    def test_n8(self):
        assert count_triangles(bipartite_matching(8)) == 8

    def test_n9(self):
        assert count_triangles(bipartite_matching(9)) == 10

    def test_n4_undershoots_small_case(self):
        # 2 triangles < ex(4) = 4: this family only wins from n = 8 on
        assert count_triangles(bipartite_matching(4)) == 2

    def test_count_and_freeness_up_to_60(self):
        for n in range(4, 61):
            g = bipartite_matching(n)
            assert count_triangles(g) == n * n // 8, n
            assert contains_suspension_p4(g) is None, n

    def test_rejects_small_n(self):
        with pytest.raises(GraphError):
            bipartite_matching(3)


class TestSmallExtremal:
    @pytest.mark.parametrize("n,t", [(4, 4), (5, 4), (6, 5), (7, 8)])
    def test_triangle_counts(self, n, t):
        g = small_extremal(n)
        assert g.n == n
        assert count_triangles(g) == t
        assert contains_suspension_p4(g) is None

    def test_n6_blocks(self):
        assert sorted(decompose(small_extremal(6)).kinds()) == ["Book", "K4"]

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            small_extremal(8)


class TestSixteenVertex:
    def test_counts(self):
        g = sixteen_vertex()
        assert g.n == 16
        assert g.edge_count() == 48
        assert count_triangles(g) == 32 == 16 * 16 // 8

    def test_free(self):
        assert contains_suspension_p4(sixteen_vertex()) is None

    def test_all_k4_blocks(self):
        dec = decompose(sixteen_vertex())
        assert dec.kinds() == ["K4"] * 8
        assert dec.stray_edges == ()

    def test_six_regular_neighborhoods(self):
        g = sixteen_vertex()
        for v in range(16):
            assert g.degree(v) == 6
            mask = g.adj[v]
            e_nbhd = sum((g.adj[u] & mask).bit_count() for u in range(16) if mask >> u & 1) // 2
            assert e_nbhd == 6


class TestBookAndComplete:
    def test_book1_is_triangle(self):
        assert book(1) == complete(3)

    def test_book4(self):
        g = book(4)
        assert g.n == 6 and count_triangles(g) == 4

    def test_complete5(self):
        g = complete(5)
        assert count_triangles(g) == 10
        assert contains_suspension_p4(g) is not None

    def test_rejects_bad_params(self):
        with pytest.raises(GraphError):
            book(0)
        with pytest.raises(GraphError):
            complete(0)


def test_family_registry_consistent():
    probes = [("bipartite-matching", 10), ("small-extremal", 6), ("sixteen-vertex", 16),
              ("book", 5), ("complete", 1), ("complete", 4), ("complete", 5), ("complete", 6)]
    assert {name for name, _ in probes} == set(FAMILIES)
    for name, arg in probes:
        fam = FAMILIES[name]
        g = fam.build(arg)
        assert count_triangles(g) == fam.expected_triangles(arg)
        assert (contains_suspension_p4(g) is None) == fam.p4hat_free(arg), (name, arg)


# a bool or a float parameter is refused as GraphError (exit 64 from
# verify-construction), naming the builder's range and the value
@pytest.mark.parametrize("family, arg", [
    ("bipartite-matching", 8.0), ("bipartite-matching", True), ("small-extremal", 5.0),
    ("small-extremal", True), ("sixteen-vertex", 16.0), ("book", 2.0), ("book", True),
    ("complete", 4.0), ("complete", True),
])
def test_builder_parameter_must_be_an_int(family, arg):
    rule = {
        "bipartite-matching": "bipartite_matching's n must be an int >= 4",
        "small-extremal": "small_extremal's n must be an int in 4..7",
        "sixteen-vertex": "the sixteen-vertex graph's n must be an int in 16..16",
        "book": "book's s must be an int >= 1",
        "complete": "complete's k must be an int >= 1",
    }[family]
    with pytest.raises(GraphError, match=rf"^{re.escape(rule)}, got {re.escape(repr(arg))}$"):
        FAMILIES[family].build(arg)


def test_builders_check_size_before_building_edges():
    # an out-of-range vertex count is rejected before the edge list exists,
    # so a huge parameter costs no memory
    tracemalloc.start()
    try:
        for build, arg in ((bipartite_matching, 1000), (book, 100_000), (complete, 10**6)):
            with pytest.raises(VertexCountError):
                build(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
