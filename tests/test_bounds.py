import random
import re
from enum import IntEnum
from itertools import combinations, product

import pytest

from p4hat import (
    GuardError,
    VertexRangeError,
    bipartite_matching,
    case_threshold_audit,
    complete,
    find_k4,
    floor_identity_audit,
    from_edges,
    neighborhood_structure,
    neighborhood_subgraph,
    sixteen_vertex,
    small_extremal,
)
from p4hat.blocks import classify_block, decompose
from p4hat.bounds import (
    AUDIT_N_MAX,
    CaseThresholdReport,
    FloorIdentityReport,
    _component_kinds,
)
from p4hat.patterns import _mask_has_path4, _suspension_apex
from conftest import sample_p4hat_free


def _graphs_with_k4(rng, count):
    """Seeded (graph, S) pairs on 4..12 vertices with a K4 on a random S:
    every other graph is grown p4hat-free around the K4, the rest are
    random graphs of density 0.3..0.9 with the K4 added."""
    for i in range(count):
        n = rng.randint(4, 12)
        p = rng.uniform(0.3, 0.9)
        s = tuple(rng.sample(range(n), 4))
        edges = set(combinations(sorted(s), 2))
        others = [e for e in combinations(range(n), 2) if e not in edges]
        rng.shuffle(others)
        for e in others:
            if rng.random() < p and (
                    i % 2 == 0 or _suspension_apex(from_edges(n, edges | {e}).adj) is None):
                edges.add(e)
        yield from_edges(n, edges), s


def _block_is_maximal(g, s):
    """Reference from the whole decomposition: the block holding S's edges
    has no other edge."""
    s_edges = set(combinations(sorted(s), 2))
    block = next(b for b in decompose(g).blocks if s_edges & set(b.edges))
    return set(block.edges) == s_edges


class TestFindK4:
    def test_k4_itself(self):
        assert find_k4(complete(4)) == (0, 1, 2, 3)

    def test_bipartite_matching_has_none(self):
        assert find_k4(bipartite_matching(8)) is None

    def test_sixteen_vertex(self):
        assert find_k4(sixteen_vertex()) == (0, 1, 2, 3)

    def test_lex_least(self):
        # K4 on {2,3,4,5} plus K4 on {1,3,6,7}: least is (1,3,6,7)
        quads = [(2, 3, 4, 5), (1, 3, 6, 7)]
        edges = [
            (a, b)
            for quad in quads
            for i, a in enumerate(quad)
            for b in quad[i + 1:]
        ]
        assert find_k4(from_edges(8, edges)) == (1, 3, 6, 7)


class TestNeighborhoodStructure:
    def test_sixteen_vertex_hub(self):
        rep = neighborhood_structure(sixteen_vertex(), (0, 1, 2, 3))
        assert rep.x_sizes == (3, 3, 3, 3)
        assert rep.disjoint
        assert rep.component_kinds == (("triangle",),) * 4
        assert rep.x_p4_free == (True,) * 4
        assert rep.s_block_is_maximal
        assert rep.triangles_meeting_s == 16
        assert rep.ts_identity == "holds"

    def test_bare_k4(self):
        rep = neighborhood_structure(complete(4), (0, 1, 2, 3))
        assert rep.x_sizes == (0, 0, 0, 0)
        assert rep.triangles_meeting_s == 4
        assert rep.ts_identity == "holds"

    def test_k4_with_pendant_triangle(self):
        rep = neighborhood_structure(small_extremal(6), (0, 1, 2, 3))
        assert rep.x_sizes == (2, 0, 0, 0)
        assert rep.x_edge_counts == (1, 0, 0, 0)
        assert rep.component_kinds[0] == ("star",)  # a lone edge is a 2-star
        assert rep.ts_identity == "holds" and rep.triangles_meeting_s == 5

    def test_k5_is_not_a_maximal_block(self):
        rep = neighborhood_structure(complete(5), (0, 1, 2, 3))
        assert not rep.s_block_is_maximal
        assert rep.ts_identity == "not_applicable"

    def test_rejects_non_k4(self):
        with pytest.raises(GuardError):
            neighborhood_structure(bipartite_matching(8), (0, 1, 2, 3))

    @pytest.mark.parametrize("s", [(0, 1, 2, 2), (0, 1, 2, 5), (-1, 0, 1, 2), (0, 1, 2, 3, 3)])
    def test_rejects_s_not_four_distinct_vertices(self, s):
        with pytest.raises(GuardError, match="S must be 4 distinct vertices"):
            neighborhood_structure(complete(5), s)

    def test_free_graphs_disjoint_and_path_free(self):
        rng = random.Random(91)
        analyzed = 0
        for g in sample_p4hat_free(rng, 4000, n_max=14):
            quad = find_k4(g)
            if quad is None:
                continue
            analyzed += 1
            rep = neighborhood_structure(g, quad)
            assert rep.disjoint
            assert all(rep.x_p4_free)
            assert all(k in ("triangle", "star") for kinds in rep.component_kinds for k in kinds)
            if rep.s_block_is_maximal:
                assert rep.ts_identity == "holds"
        assert analyzed >= 20  # the sampler produces K4s often enough to matter

    def test_derived_fields_match_references(self):
        # s_block_is_maximal against decompose, x_p4_free against the detector
        rng = random.Random(97)
        seen = {"free": 0, "not free": 0, "not maximal": 0, "X_i with a 4-path": 0}
        for g, s in _graphs_with_k4(rng, 600):
            rep = neighborhood_structure(g, s)
            assert rep.s_block_is_maximal == _block_is_maximal(g, s)
            paths = tuple(_mask_has_path4(g.adj, sum(1 << v for v in x)) for x in rep.x_sets)
            assert rep.x_p4_free == tuple(not p for p in paths)
            seen["free" if _suspension_apex(g.adj) is None else "not free"] += 1
            seen["not maximal"] += not rep.s_block_is_maximal
            seen["X_i with a 4-path"] += any(paths)
        assert min(seen.values()) >= 100, seen

    def test_constructions_with_k4(self):
        for g in (complete(4), small_extremal(5), small_extremal(6),
                  small_extremal(7), sixteen_vertex()):
            quad = find_k4(g)
            assert quad is not None
            rep = neighborhood_structure(g, quad)
            assert rep.disjoint
            assert all(rep.x_p4_free)
            assert rep.ts_identity == "holds"


class Vertex(IntEnum):
    ONE = 1


# a vertex argument is an int, not a bool, another int subclass or a float,
# in 0..n-1
@pytest.mark.parametrize("call, error, message", [
    (lambda: neighborhood_subgraph(complete(5), True), VertexRangeError,
     "vertex must be an int in 0..4, got True"),
    (lambda: neighborhood_subgraph(complete(5), Vertex.ONE), VertexRangeError,
     "vertex must be an int in 0..4, got <Vertex.ONE: 1>"),
    (lambda: neighborhood_subgraph(complete(5), 1.0), VertexRangeError,
     "vertex must be an int in 0..4, got 1.0"),
    (lambda: neighborhood_structure(sixteen_vertex(), (True, 0, 2, 3)), GuardError,
     "S must be 4 distinct vertices of the graph, got (True, 0, 2, 3): "
     "each must be an int in 0..15, got True"),
    (lambda: neighborhood_structure(sixteen_vertex(), (0, 1, 2, 3.0)), GuardError,
     "S must be 4 distinct vertices of the graph, got (0, 1, 2, 3.0): "
     "each must be an int in 0..15, got 3.0"),
    (lambda: complete(4).has_edge(-1, 0), VertexRangeError,
     "vertex must be an int in 0..3, got -1"),
    (lambda: complete(4).has_edge(0, -1), VertexRangeError,
     "vertex must be an int in 0..3, got -1"),
    (lambda: complete(4).has_edge(9, 0), VertexRangeError,
     "vertex must be an int in 0..3, got 9"),
    (lambda: complete(4).has_edge(0, 9), VertexRangeError,
     "vertex must be an int in 0..3, got 9"),
    (lambda: complete(4).degree(-1), VertexRangeError,
     "vertex must be an int in 0..3, got -1"),
    (lambda: complete(4).degree(True), VertexRangeError,
     "vertex must be an int in 0..3, got True"),
    (lambda: classify_block([(0, 1.0)]), VertexRangeError,
     "edge (0, 1.0): each vertex must be an int in 0..255"),
    (lambda: classify_block([(0, 1), (0, 300)]), VertexRangeError,
     "edge (0, 300): each vertex must be an int in 0..255"),
], ids=["subgraph-bool", "subgraph-intenum", "subgraph-float", "structure-bool",
        "structure-float", "has-edge-negative-u", "has-edge-negative-v", "has-edge-large-u",
        "has-edge-large-v", "degree-negative", "degree-bool", "classify-float",
        "classify-large"])
def test_vertex_argument_must_be_an_int(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestComponentKinds:
    def test_star_and_triangle(self):
        g = from_edges(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 6)])
        assert _component_kinds(g.adj, 0b1111111) == ("star", "triangle")

    def test_path4_is_other(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert _component_kinds(g.adj, 0b1111) == ("other",)


class TestFloorIdentities:
    def test_examples(self):
        def cap(n):
            return n * n // 8

        assert cap(12) - cap(11) == 3 == 12 // 4
        assert cap(12) - cap(8) == 10 == 12 - 2
        assert cap(13) - cap(12) == 3 >= 13 // 4
        assert cap(13) - cap(9) == 11 == 13 - 2

    def test_audit_10k(self):
        # 12..16 lie inside the range 12..19 that the audit checks, 10,000 past it
        for n_max in (12, 13, 15, 16, 10_000):
            report = floor_identity_audit(n_max)
            assert (report.checked_from, report.checked_to) == (12, n_max)
            assert report.ok and report.first_violation is None

    def test_guard(self):
        with pytest.raises(GuardError):
            floor_identity_audit(11)


class TestCaseThresholds:
    def test_n17_numbers(self):
        assert 3 * (17 * 17 // 8 + 1) == 111
        assert (3 * 17 * 17 + 26 * 17 - 61) // 12 == 104

    def test_n14_has_no_contradiction(self):
        assert not (12 * (14 * 14 // 8 + 1) > 14 * (14 + 8))

    def test_equality_composition(self):
        assert 4 * (9 + 9 + 9 + 9) == 12 * 12

    def test_audit(self):
        report = case_threshold_audit(300)
        assert report.passed
        assert report.case1_violations == ()
        assert report.case2_violations == ()

    def test_guard(self):
        with pytest.raises(GuardError):
            case_threshold_audit(10)


def _sweep(n_top: int) -> tuple[list[int], list[int], list[int], bool]:
    """The second route: every inequality at every n up to n_top, with none
    of the audits' arguments.  Returns the n where the floor identities,
    case 1 and case 2 fail, and the Cauchy-Schwarz verdict."""
    floors = [
        n for n in range(12, n_top + 1)
        if not (n * n // 8 - (n - 1) ** 2 // 8 >= n // 4
                and n * n // 8 - (n - 4) ** 2 // 8 == n - 2)
    ]
    case1 = [
        n for n in range(17, n_top + 1)
        if n % 3 == 2 and not 12 * 3 * (n * n // 8 + 1) > 3 * n * n + 26 * n - 61
    ]
    case2 = [
        n for n in range(4, n_top + 1)
        if (12 * (n * n // 8 + 1) > n * (n + 8)) != (n >= 15)
    ]
    cauchy_schwarz = all(
        4 * (x0 * x0 + x1 * x1 + x2 * x2 + (m - x0 - x1 - x2) ** 2) >= m * m
        for m in range(33)
        for x0, x1, x2 in product(range(m + 1), repeat=3)
        if x0 + x1 + x2 <= m
    )
    return floors, case1, case2, cauchy_schwarz


class TestAuditsAgainstSweep:
    """Each audit checks a fixed short range and argues the rest; a plain
    per-n sweep must give the same report for every n_max."""

    N_MAXES = [*range(12, 3001), 10**6]

    @pytest.fixture(scope="class")
    def sweep(self):
        return _sweep(max(self.N_MAXES))

    def test_sweep_finds_no_violation(self, sweep):
        assert sweep == ([], [], [], True)

    def test_docstring_arguments(self):
        # the facts the audits' docstrings use to cover every n past their ranges
        for n in range(10_000):
            assert (n + 8) ** 2 // 8 == n * n // 8 + 2 * n + 8
            assert n * n % 8 in (0, 1, 4)
            assert (3 * n * n - 52 * n + 158 > 0) == (n >= 14 or n <= 3)
            assert (n * n - 16 * n + 12 > 0) == (n >= 16 or n == 0)
            assert (n * n - 16 * n + 24 > 0) == (n >= 15 or n <= 1)

    def test_floor_identities(self, sweep):
        floors = sweep[0]
        for n_max in self.N_MAXES:
            first = next((n for n in floors if n <= n_max), None)
            expected = FloorIdentityReport(12, n_max, first is None, first)
            assert floor_identity_audit(n_max) == expected

    def test_case_thresholds(self, sweep):
        _, case1, case2, cauchy_schwarz = sweep
        for n_max in self.N_MAXES:
            if n_max < 17:
                continue
            bad1 = tuple(n for n in case1 if n <= n_max)
            bad2 = tuple(n for n in case2 if n <= n_max)
            expected = CaseThresholdReport(n_max, not bad1, bad1, not bad2, bad2, cauchy_schwarz)
            assert case_threshold_audit(n_max) == expected


class TestAuditCap:
    def test_cap_admits_10_million_and_no_more(self):
        # neither audit loops further as n_max grows, so both run at the cap
        assert AUDIT_N_MAX == 10**7
        assert floor_identity_audit(10**7).ok
        assert case_threshold_audit(10**7).passed
        for audit, low in ((floor_identity_audit, 12), (case_threshold_audit, 17)):
            with pytest.raises(GuardError, match=rf"^{audit.__name__}'s n_max must be an int "
                                                 rf"in {low}\.\.10000000, got 10000001$"):
                audit(10**7 + 1)

    def test_n_max_must_be_an_int(self):
        for audit, low in ((floor_identity_audit, 12), (case_threshold_audit, 17)):
            for n_max in (15.5, 20.5, 25.5, 20.0, True, "20"):
                with pytest.raises(GuardError, match=rf"^{audit.__name__}'s n_max must be an int "
                                                     rf"in {low}\.\.10000000, "
                                                     rf"got {re.escape(repr(n_max))}$"):
                    audit(n_max)
