import random

import pytest

from p4hat import (
    GuardError,
    bipartite_matching,
    case_threshold_audit,
    complete,
    find_k4,
    floor_identity_audit,
    from_edges,
    neighborhood_structure,
    sixteen_vertex,
    small_extremal,
)
from p4hat.bounds import AUDIT_N_MAX, _check_audit_range, _component_kinds
from conftest import sample_p4hat_free


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

    def test_constructions_with_k4(self):
        for g in (complete(4), small_extremal(5), small_extremal(6),
                  small_extremal(7), sixteen_vertex()):
            quad = find_k4(g)
            assert quad is not None
            rep = neighborhood_structure(g, quad)
            assert rep.disjoint
            assert all(rep.x_p4_free)
            assert rep.ts_identity == "holds"


class TestComponentKinds:
    def test_star_and_triangle(self):
        g = from_edges(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 6)])
        assert _component_kinds(g.adj, tuple(range(7))) == ("star", "triangle")

    def test_path4_is_other(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert _component_kinds(g.adj, (0, 1, 2, 3)) == ("other",)


class TestFloorIdentities:
    def test_examples(self):
        def cap(n):
            return n * n // 8

        assert cap(12) - cap(11) == 3 == 12 // 4
        assert cap(12) - cap(8) == 10 == 12 - 2
        assert cap(13) - cap(12) == 3 >= 13 // 4
        assert cap(13) - cap(9) == 11 == 13 - 2

    def test_audit_10k(self):
        # 12..16 cover the start of the audit's sliding window
        for n_max in (12, 13, 15, 16, 10_000):
            report = floor_identity_audit(n_max)
            assert (report.n_min, report.n_max) == (12, n_max)
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


class TestAuditCap:
    def test_cap_admits_10_million_and_no_more(self):
        # the guard itself at the cap: running both audits there takes ~9 s
        assert AUDIT_N_MAX == 10**7
        _check_audit_range("floor_identity_audit", 12, 10**7)
        for audit in (floor_identity_audit, case_threshold_audit):
            with pytest.raises(GuardError, match=f"{audit.__name__} needs n_max <= 10000000"):
                audit(10**7 + 1)
