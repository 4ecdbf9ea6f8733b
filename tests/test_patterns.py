import random
from itertools import combinations, permutations

from p4hat import (
    SuspensionWitness,
    bipartite_matching,
    book,
    brute_force_suspension,
    complete,
    contains_path4,
    contains_suspension_p4,
    from_edges,
    is_p4hat_free,
    sixteen_vertex,
)
from conftest import random_graph


def wheel4():
    rim = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return from_edges(5, rim + [(4, v) for v in range(4)])


def octahedron():
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if u // 2 != v // 2]
    return from_edges(6, edges)


class TestPath4:
    def test_path_itself(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert contains_path4(g) == (0, 1, 2, 3)

    def test_triangle_has_none(self):
        assert contains_path4(complete(3)) is None

    def test_star_has_none(self):
        assert contains_path4(from_edges(4, [(0, 1), (0, 2), (0, 3)])) is None

    def test_found_iff_brute(self):
        # reference: some ordering of 4 distinct vertices traces 3 edges
        rng = random.Random(51)
        for _ in range(2000):
            g = random_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.4, 0.7)))
            brute = any(
                g.has_edge(p[0], p[1]) and g.has_edge(p[1], p[2]) and g.has_edge(p[2], p[3])
                for quad in combinations(range(g.n), 4)
                for p in permutations(quad)
            )
            assert (contains_path4(g) is not None) == brute


class TestSuspension:
    def test_k4_free(self):
        assert contains_suspension_p4(complete(4)) is None

    def test_books_free(self):
        for s in (1, 2, 5, 9):
            assert contains_suspension_p4(book(s)) is None

    def test_wheel_witness(self):
        w = contains_suspension_p4(wheel4())
        assert w is not None and w.apex == 4

    def test_k5_brute(self):
        assert brute_force_suspension(complete(5))
        assert contains_suspension_p4(complete(5)) is not None

    def test_sixteen_vertex_free_by_brute_force(self):
        assert not brute_force_suspension(sixteen_vertex())

    def test_bipartite_matching_free_small(self):
        for n in range(4, 13):
            g = bipartite_matching(n)
            assert contains_suspension_p4(g) is None
            assert not brute_force_suspension(g)

    def test_octahedron_has_witness(self):
        assert brute_force_suspension(octahedron())
        assert contains_suspension_p4(octahedron()) is not None

    def test_detector_matches_brute_force(self):
        rng = random.Random(52)
        for _ in range(1500):
            g = random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.5, 0.8)))
            assert (contains_suspension_p4(g) is not None) == brute_force_suspension(g)

    def test_monotone_under_edge_additions(self):
        rng = random.Random(53)
        found = 0
        while found < 200:
            n = rng.randint(5, 9)
            g = random_graph(rng, n, 0.5)
            if contains_suspension_p4(g) is None:
                continue
            found += 1
            edges = set(g.edges())
            missing = [
                (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
            ]
            extra = rng.sample(missing, min(len(missing), 3))
            g2 = from_edges(n, list(edges) + extra)
            assert contains_suspension_p4(g2) is not None

    def test_out_of_range_witness_is_invalid(self):
        k5 = complete(5)
        assert SuspensionWitness(4, (0, 1, 2, 3)).is_valid_in(k5)
        assert not SuspensionWitness(4, (-1, 1, 2, 3)).is_valid_in(k5)
        assert not SuspensionWitness(7, (0, 1, 2, 3)).is_valid_in(k5)

    def test_a_vertex_that_is_not_an_int_is_invalid(self):
        k5 = complete(5)
        assert not SuspensionWitness(0, (1, 2, 3, 4.0)).is_valid_in(k5)
        assert not SuspensionWitness(True, (0, 2, 3, 4)).is_valid_in(k5)
        assert not SuspensionWitness(0, (True, 2, 3, 4)).is_valid_in(k5)

    def test_apex_missing_a_path_vertex_is_invalid(self):
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2)])
        assert not SuspensionWitness(4, (0, 1, 2, 3)).is_valid_in(g)
        assert SuspensionWitness(4, (0, 1, 2, 3)).is_valid_in(from_edges(5, g.edges() + [(3, 4)]))

    def test_witness_structure(self):
        rng = random.Random(54)
        checked = 0
        while checked < 300:
            g = random_graph(rng, rng.randint(5, 10), rng.choice((0.4, 0.6)))
            w = contains_suspension_p4(g)
            if w is None:
                continue
            checked += 1
            assert w.is_valid_in(g)

    def test_witness_is_lex_least(self):
        rng = random.Random(55)
        checked = 0
        while checked < 100:
            g = random_graph(rng, rng.randint(5, 8), 0.6)
            w = contains_suspension_p4(g)
            if w is None:
                continue
            checked += 1
            best = min(
                (apex, path)
                for apex in range(g.n)
                for quad in combinations(range(g.n), 4)
                if apex not in quad and all(g.has_edge(apex, x) for x in quad)
                for path in permutations(quad)
                if g.has_edge(path[0], path[1])
                and g.has_edge(path[1], path[2])
                and g.has_edge(path[2], path[3])
            )
            assert (w.apex, w.path) == best

    def test_is_p4hat_free_agrees(self):
        rng = random.Random(56)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 9), 0.5)
            assert is_p4hat_free(g) == (contains_suspension_p4(g) is None)
