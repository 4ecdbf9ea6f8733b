import random

import pytest

from p4hat import (
    Graph,
    Graph6Error,
    Graph6SizeError,
    GraphError,
    LoopEdgeError,
    VertexCountError,
    VertexRangeError,
    book,
    complete,
    count_triangles,
    decode_graph6,
    edge_minimal_reduction,
    encode_graph6,
    enumerate_triangles,
    from_edges,
    neighborhood_subgraph,
    union_of_triangles,
)
from p4hat.graphs import MAX_VERTICES
from conftest import naive_triangle_count, random_graph, reference_validate


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestFromEdges:
    def test_triangle(self):
        g = from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert g.edge_count() == 3

    def test_k4(self):
        g = from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert g.edge_count() == 6

    def test_duplicate_collapse(self):
        g = from_edges(2, [(0, 1), (0, 1), (1, 0)])
        assert g.edge_count() == 1

    def test_out_of_range_vertex(self):
        with pytest.raises(VertexRangeError):
            from_edges(3, [(0, 3)])

    def test_loop_edge(self):
        with pytest.raises(LoopEdgeError):
            from_edges(3, [(1, 1)])

    def test_asymmetric_adjacency_names_the_pair(self):
        with pytest.raises(GraphError, match=r"not symmetric at \(1, 0\)"):
            Graph(2, (0b10, 0))

    def test_n_out_of_bounds(self):
        with pytest.raises(VertexCountError):
            from_edges(0, [])
        with pytest.raises(VertexCountError):
            from_edges(MAX_VERTICES + 1, [])

    def test_bool_vertex_count(self):
        for flag in (True, False):
            with pytest.raises(VertexCountError, match=f"got {flag}"):
                Graph(flag, (0,))
            with pytest.raises(VertexCountError, match=f"got {flag}"):
                from_edges(flag, [])

    def test_negative_row_names_the_row(self):
        with pytest.raises(VertexRangeError, match=r"^row 0 is negative: -1$"):
            Graph(2, (-1, 0))
        with pytest.raises(VertexRangeError, match=r"^row 2 is negative: -2$"):
            Graph(3, (0b10, 0b01, -2))

    def test_validation_matches_ordered_reference(self):
        """The one-pass check accepts and rejects what the ordered scan
        does, with the same exception type and message."""
        def outcome(build, n, rows):
            try:
                build(n, rows)
            except GraphError as exc:
                return type(exc), str(exc)
            return None

        rng = random.Random(75)
        rejected = 0
        for _ in range(20_000):
            n = rng.randint(1, 10)
            p = rng.random()
            rows = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < p:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                rows[rng.randrange(n)] ^= 1 << rng.randrange(n + 2)  # a loop, a stray or a high bit
            if rng.random() < 0.02:
                rows.append(0)
            expected = outcome(reference_validate, n, tuple(rows))
            assert outcome(Graph, n, tuple(rows)) == expected, (n, rows)
            rejected += expected is not None
        assert 10_000 < rejected < 19_000


class TestTriangles:
    def test_k4(self):
        assert count_triangles(complete(4)) == 4

    def test_c5(self):
        assert count_triangles(cycle(5)) == 0

    def test_bipartite_plus_matching_n8(self):
        edges = [(u, v) for u in range(4) for v in range(4, 8)]
        edges += [(0, 1), (2, 3)]
        assert count_triangles(from_edges(8, edges)) == 8

    def test_enumerate_k4(self):
        assert enumerate_triangles(complete(4)) == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
        ]

    def test_enumerate_empty(self):
        assert enumerate_triangles(from_edges(5, [])) == []

    def test_enumerate_book2(self):
        assert enumerate_triangles(book(2)) == [(0, 1, 2), (0, 1, 3)]

    def test_matches_naive_oracle_on_random_graphs(self):
        rng = random.Random(421)
        for _ in range(10_000):
            g = random_graph(rng, rng.randint(1, 16), rng.choice((0.2, 0.5, 0.8)))
            assert count_triangles(g) == naive_triangle_count(g)

    def test_enumeration_consistent_with_count(self):
        rng = random.Random(422)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 12), 0.5)
            tris = enumerate_triangles(g)
            assert len(tris) == count_triangles(g)
            assert tris == sorted(set(tris))

    def test_neighborhood_edge_sum_is_three_t(self):
        # sum over v of e(G[N(v)]) counts each triangle three times
        rng = random.Random(423)
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 16), rng.choice((0.3, 0.6)))
            total = 0
            for v in range(g.n):
                mask = g.adj[v]
                total += sum((g.adj[u] & mask).bit_count() for u in range(g.n) if mask >> u & 1) // 2
            assert total == 3 * count_triangles(g)


class TestEdgeMinimalReduction:
    def test_c5_becomes_edgeless(self):
        assert edge_minimal_reduction(cycle(5)).edge_count() == 0

    def test_k4_unchanged(self):
        assert edge_minimal_reduction(complete(4)) == complete(4)

    def test_pendant_edge_dropped(self):
        g = from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        r = edge_minimal_reduction(g)
        assert r.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_idempotent_and_triangle_preserving(self):
        rng = random.Random(424)
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 14), rng.choice((0.2, 0.5)))
            r = edge_minimal_reduction(g)
            assert enumerate_triangles(r) == enumerate_triangles(g)
            assert edge_minimal_reduction(r) == r
            assert all(g.has_edge(u, v) for u, v in r.edges())


class TestUnionOfTriangles:
    def test_two_books_pages(self):
        g = union_of_triangles(8, [(0, 1, 2), (0, 1, 3)])
        assert g.edge_count() == 5
        assert count_triangles(g) == 2

    def test_k4_from_four(self):
        g = union_of_triangles(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert g == complete(4)

    def test_disjoint(self):
        g = union_of_triangles(6, [(0, 1, 2), (3, 4, 5)])
        assert count_triangles(g) == 2

    def test_label_out_of_range(self):
        with pytest.raises(VertexRangeError):
            union_of_triangles(4, [(0, 1, 4)])

    def test_at_least_as_many_triangles_as_inputs(self):
        rng = random.Random(425)
        for _ in range(300):
            n = rng.randint(4, 10)
            ts = {tuple(sorted(rng.sample(range(n), 3))) for _ in range(rng.randint(1, 6))}
            assert count_triangles(union_of_triangles(n, ts)) >= len(ts)


class TestNeighborhoodSubgraph:
    def test_k4_vertex(self):
        h, labels = neighborhood_subgraph(complete(4), 0)
        assert h == complete(3)
        assert labels == (1, 2, 3)

    def test_star_center(self):
        star = from_edges(5, [(0, v) for v in range(1, 5)])
        h, labels = neighborhood_subgraph(star, 0)
        assert h.n == 4 and h.edge_count() == 0
        assert labels == (1, 2, 3, 4)

    def test_book3_base_endpoint(self):
        # at one base endpoint: the other endpoint is joined to all pages
        h, labels = neighborhood_subgraph(book(3), 0)
        assert labels == (1, 2, 3, 4)
        assert sorted(h.degree(v) for v in range(4)) == [1, 1, 1, 3]
        center = max(range(4), key=h.degree)
        assert labels[center] == 1

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexRangeError):
            neighborhood_subgraph(complete(4), 4)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(GraphError):
            neighborhood_subgraph(from_edges(2, []), 0)


def reference_decode_graph6(data: bytes) -> Graph:
    """Per-bit graph6 reader for a single-byte header, written from the
    format description: one 6-bit group per body byte, pairs in column
    order, zero padding."""
    n = data[0] - 63
    body = data[1:]
    if any(not 63 <= byte <= 126 for byte in body):
        raise Graph6Error("malformed body byte")
    bits = "".join(format(byte - 63, "06b") for byte in body)
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    if len(bits) != -(-len(pairs) // 6) * 6:
        raise Graph6Error("wrong body length")
    if "1" in bits[len(pairs):]:
        raise Graph6Error("padding bit set")
    return from_edges(n, [pair for pair, bit in zip(pairs, bits) if bit == "1"])


class TestGraph6:
    def test_k4(self):
        assert encode_graph6(complete(4)) == b"C~"

    def test_single_vertex(self):
        assert encode_graph6(from_edges(1, [])) == b"@"

    def test_round_trip_random(self):
        rng = random.Random(426)
        for _ in range(10_000):
            g = random_graph(rng, rng.randint(1, 62), rng.random())
            assert decode_graph6(encode_graph6(g)) == g

    def test_against_reference_encoder(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(427)
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 40), rng.random())
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            ref = nx.to_graph6_bytes(h, header=False).strip()
            assert encode_graph6(g) == ref

    def test_encode_size_guard(self):
        with pytest.raises(Graph6SizeError):
            encode_graph6(from_edges(63, []))

    def test_decode_malformed_header(self):
        with pytest.raises(Graph6Error):
            decode_graph6(b"\x1f")
        with pytest.raises(Graph6SizeError):
            decode_graph6(b"~??")

    def test_decode_trailing_garbage(self):
        with pytest.raises(Graph6Error, match="trailing"):
            decode_graph6(b"C~~")

    def test_decode_truncated(self):
        with pytest.raises(Graph6Error, match="short"):
            decode_graph6(b"C")

    def test_decode_padding_bit_set(self):
        # n=2 has one adjacency bit; the trailing five must be zero
        with pytest.raises(Graph6Error, match="padding"):
            decode_graph6(bytes([63 + 2, 63 + 1]))

    def test_every_one_byte_body_matches_per_bit_reference(self):
        for n in (2, 3, 4):
            padded = 0
            for byte in range(256):
                data = bytes([63 + n, byte])
                try:
                    expected = reference_decode_graph6(data)
                except Graph6Error:
                    in_range = 63 <= byte <= 126
                    padded += in_range
                    with pytest.raises(Graph6Error, match="padding" if in_range else "malformed"):
                        decode_graph6(data)
                else:
                    assert decode_graph6(data) == expected
            assert padded == 64 - (1 << n * (n - 1) // 2)

    def test_accepts_str(self):
        assert decode_graph6("C~") == complete(4)

    def test_decode_non_ascii(self):
        for data in ("\u00e9", "C\u00e9", b"\xff", b"C\xff", b"\xc3\xa9"):
            with pytest.raises(Graph6Error):
                decode_graph6(data)
