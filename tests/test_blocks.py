import random
from itertools import combinations

import pytest

from p4hat import (
    BlockDecomposition,
    BlockPreconditionError,
    GraphError,
    base_edge_reduction,
    bipartite_matching,
    book,
    classify_block,
    complete,
    count_triangles,
    decompose,
    enumerate_triangles,
    find_k4,
    from_edges,
    is_p4hat_free,
    small_extremal,
    union_of_triangles,
    verify_k4free_bound,
)
from p4hat.graphs import triangle_edges
from conftest import random_graph, sample_p4hat_free


def octahedron():
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if u // 2 != v // 2]
    return from_edges(6, edges)


def reference_decompose(g):
    """Second route to ``decompose``: triangles grouped by shared edges with
    a union-find, each group's edges classified by ``classify_block``."""
    tris = enumerate_triangles(g)
    parent = list(range(len(tris)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    first = {}
    for i, tri in enumerate(tris):
        for e in triangle_edges(tri):
            parent[find(first.setdefault(e, i))] = find(i)
    groups = {}
    for i, tri in enumerate(tris):
        groups.setdefault(find(i), set()).update(triangle_edges(tri))
    blocks = sorted((classify_block(edges) for edges in groups.values()), key=lambda b: b.edges)
    covered = set().union(*groups.values())
    return BlockDecomposition(tuple(blocks), tuple(e for e in g.edges() if e not in covered))


class TestDecompose:
    def test_k4_single_block(self):
        dec = decompose(complete(4))
        assert dec.kinds() == ["K4"]
        assert dec.stray_edges == ()

    def test_book3(self):
        dec = decompose(book(3))
        assert dec.kinds() == ["Book"]
        assert dec.blocks[0].pages == 3
        assert dec.blocks[0].base == (0, 1)

    def test_two_triangles_sharing_vertex(self):
        g = union_of_triangles(5, [(0, 1, 2), (0, 3, 4)])
        dec = decompose(g)
        assert dec.kinds() == ["Book", "Book"]
        assert [b.pages for b in dec.blocks] == [1, 1]

    def test_octahedron_is_other(self):
        assert decompose(octahedron()).kinds() == ["Other"]

    def test_path_is_all_stray(self):
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        dec = decompose(g)
        assert dec.blocks == ()
        assert len(dec.stray_edges) == 4

    def test_partition_and_triangle_sums(self):
        rng = random.Random(71)
        for _ in range(400):
            g = random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.4, 0.6)))
            dec = decompose(g)
            seen = list(dec.stray_edges)
            for b in dec.blocks:
                seen.extend(b.edges)
            assert sorted(seen) == g.edges()  # blocks + strays partition the edges
            assert sum(b.triangle_count for b in dec.blocks) == count_triangles(g)

    def test_matches_union_find_reference(self):
        rng = random.Random(73)
        for _ in range(2_000):
            g = random_graph(rng, rng.randint(1, 16), rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
            assert decompose(g) == reference_decompose(g)


class TestClassify:
    def test_k4_counts(self):
        b = classify_block(complete(4).edges())
        assert b.kind == "K4" and b.triangle_count == 4

    @pytest.mark.parametrize("s", [1, 2, 5])
    def test_books(self, s):
        b = classify_block(book(s).edges())
        assert b.kind == "Book" and b.pages == s

    def test_octahedron_other(self):
        assert classify_block(octahedron().edges()).kind == "Other"

    def test_empty_edge_set_raises(self):
        with pytest.raises(GraphError):
            classify_block([])

    def test_free_graphs_never_other(self):
        # exhaustive for n <= 5 here; the acceptance suite covers n <= 6 and
        # the sampled n <= 12 corpus
        for n in range(1, 6):
            edges = list(combinations(range(n), 2))
            for mask in range(1 << len(edges)):
                g = from_edges(n, [edges[i] for i in range(len(edges)) if mask >> i & 1])
                if is_p4hat_free(g):
                    assert "Other" not in decompose(g).kinds()


class TestBaseEdgeReduction:
    def test_single_triangle(self):
        r = base_edge_reduction(complete(3))
        assert r.edge_count() == 2
        assert count_triangles(r) == 0

    def test_book4(self):
        r = base_edge_reduction(book(4))
        assert r.edge_count() == 8
        assert count_triangles(r) == 0

    def test_bipartite_matching_n8(self):
        g = bipartite_matching(8)
        r = base_edge_reduction(g)
        assert r.edge_count() == 16 == 2 * count_triangles(g)
        assert count_triangles(r) == 0

    def test_rejects_k4(self):
        with pytest.raises(BlockPreconditionError) as info:
            base_edge_reduction(small_extremal(6))
        assert info.value.k4 == (0, 1, 2, 3)

    def test_rejects_pattern_with_witness(self):
        rim = [(0, 1), (1, 2), (2, 3), (3, 0)]
        wheel = from_edges(5, rim + [(4, v) for v in range(4)])
        with pytest.raises(BlockPreconditionError) as info:
            base_edge_reduction(wheel)
        assert info.value.witness is not None
        assert info.value.k4 is None

    def test_invariants_on_sampled_free_graphs(self):
        rng = random.Random(72)
        for g in sample_p4hat_free(rng, 400, n_max=12):
            if find_k4(g) is not None:
                continue
            report = verify_k4free_bound(g)
            assert report.passed


class TestVerifyBound:
    def test_bipartite_tight(self):
        rep = verify_k4free_bound(bipartite_matching(8))
        assert rep.passed and rep.triangles == 8 == rep.n * rep.n // 8

    def test_disjoint_triangles(self):
        g = union_of_triangles(12, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(4)])
        rep = verify_k4free_bound(g)
        assert rep.passed and rep.triangles == 4

    def test_book3_tight_on_5_vertices(self):
        rep = verify_k4free_bound(book(3))
        assert rep.passed
        assert rep.triangles == 3 == rep.n * rep.n // 8
