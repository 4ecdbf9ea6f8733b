import random
from itertools import combinations
from math import comb

import pytest

from p4hat import (
    FIXED_TRIANGLES,
    GuardError,
    are_isomorphic,
    book,
    candidate_triangles,
    canonical_form,
    certify_upper_bound,
    colex_rank,
    colex_unrank,
    complete,
    count_triangles,
    counterexample_search,
    enumerate_extremal_configs,
    excluded_triangles,
    exhaustive_oracle,
    extremal_value,
    from_edges,
    is_p4hat_free,
    small_extremal,
    union_of_triangles,
)
from p4hat import search
from p4hat.search import _row_bits, _scan, _scan_subtrees

# ex(n) for the sizes the unpruned reference scan can cover
SMALL_EX = {5: 4, 6: 5, 7: 8}


def _union(n, cands, subset):
    return union_of_triangles(n, list(FIXED_TRIANGLES) + [cands[i] for i in subset])


def _reference_hits(n, k):
    """Unpruned reference: every k-subset in colex order, kept when its union
    is p4hat-free, as (rank, union rows) pairs."""
    cands = candidate_triangles(n)
    subsets = sorted(combinations(range(len(cands)), k), key=lambda s: s[::-1])
    unions = (_union(n, cands, s) for s in subsets)
    return [(rank, g.adj) for rank, g in enumerate(unions) if is_p4hat_free(g)]


class TestCandidates:
    def test_n8_counts(self):
        assert len(candidate_triangles(8)) == 38
        assert len(excluded_triangles(8)) == 16

    def test_n5_counts(self):
        assert len(candidate_triangles(5)) == 4
        assert len(excluded_triangles(5)) == 4

    def test_exclusion_formula(self):
        for n in range(5, 11):
            assert len(excluded_triangles(n)) == 4 * (n - 4)
            assert len(candidate_triangles(n)) == comb(n, 3) - 2 - 4 * (n - 4)

    def test_pruning_soundness(self):
        # every pruned triangle forces the pattern next to the fixed pair
        for n in range(5, 9):
            for tri in excluded_triangles(n):
                union = union_of_triangles(n, list(FIXED_TRIANGLES) + [tri])
                assert not is_p4hat_free(union), tri

    def test_candidates_exclude_fixed(self):
        cands = candidate_triangles(8)
        assert (0, 1, 2) not in cands and (0, 1, 3) not in cands
        assert cands == sorted(cands)


class TestColex:
    def test_first_subset(self):
        assert colex_unrank(0, 7) == (0, 1, 2, 3, 4, 5, 6)

    def test_total_ranks_38_7(self):
        assert comb(38, 7) == 12_620_256

    def test_rank_unrank_round_trip(self):
        rng = random.Random(81)
        for _ in range(500):
            k = rng.randint(1, 7)
            rank = rng.randrange(comb(38, k))
            subset = colex_unrank(rank, k)
            assert colex_rank(subset) == rank

    def test_colex_order_is_rank_order(self):
        subsets = sorted(combinations(range(6), 3), key=lambda s: s[::-1])
        for rank, subset in enumerate(subsets):
            assert colex_rank(subset) == rank

    def test_guards(self):
        with pytest.raises(GuardError):
            colex_unrank(-1, 3)
        with pytest.raises(GuardError):
            colex_unrank(0, -1)
        # only rank 0 has a 0-subset
        assert colex_unrank(0, 0) == ()
        with pytest.raises(GuardError):
            colex_unrank(1, 0)
        # a repeated or negative element names no subset
        with pytest.raises(GuardError):
            colex_rank([2, 2])
        with pytest.raises(GuardError):
            colex_rank((-1, 3))


class TestPrunedScan:
    def test_matches_unpruned_reference(self):
        for n, ex in SMALL_EX.items():
            cands = candidate_triangles(n)
            for t in range(3, ex + 2):
                k = t - 2
                total = comb(len(cands), k)
                ref = _reference_hits(n, k)
                results = _scan_subtrees(False, n, cands, k, 1)
                examined = sum(r[0] for r in results)
                hits = [hit for r in results for hit in r[2]]
                assert (examined, hits) == (total, ref), (n, t)
                report = counterexample_search(n, t)
                if ref:
                    rank, rows = ref[0]
                    assert report.outcome == "counterexample", (n, t)
                    assert report.counterexample_rank == rank
                    assert report.graphs_examined == rank + 1
                    assert report.counterexample.adj == rows
                else:
                    assert report.outcome == "exhausted", (n, t)
                    assert report.graphs_examined == total
                    assert report.counterexample_rank is None

    def test_subtrees_match_unrank_reference(self):
        # every subtree of at most C(14, 6) ranks, rank by rank; t = 7 adds
        # small subtrees that hold hits
        cands = candidate_triangles(8)
        cand_bits = _row_bits(cands)
        seed = union_of_triangles(8, FIXED_TRIANGLES).adj
        checked = with_hits = 0
        for t in (7, 8, 9):
            k = t - 2
            covered = 0
            for top in range(k - 1, len(cands)):
                lo, hi = comb(top, k), comb(top + 1, k)
                examined, _, hits = _scan(seed, cand_bits, k, top, first=False)
                covered += examined
                if hi - lo > comb(14, 6):
                    continue
                ref = []
                for rank in range(lo, hi):
                    union = _union(8, cands, colex_unrank(rank, k))
                    if is_p4hat_free(union):
                        ref.append((rank, union.adj))
                assert (examined, hits) == (hi - lo, ref), (k, top)
                examined, _, hits = _scan(seed, cand_bits, k, top, first=True)
                assert hits == ref[:1], (k, top)
                assert examined == (ref[0][0] - lo + 1 if ref else hi - lo), (k, top)
                checked += 1
                with_hits += bool(ref)
            assert covered == comb(len(cands), k), k
        assert checked == 34 and with_hits == 5

    def test_stop_rule(self):
        # "first" mode ends the ordered read at the first subtree with a hit,
        # whatever the worker count
        cands = candidate_triangles(8)
        collect = _scan_subtrees(False, 8, cands, 6, 1)
        i = next(i for i, r in enumerate(collect) if r[2])
        hit = collect[i][2][0]
        for workers in (1, 2):
            first = _scan_subtrees(True, 8, cands, 6, workers)
            assert len(first) == i + 1
            assert first[:i] == collect[:i]
            assert first[i][2] == [hit]
            assert first[i][0] == hit[0] - comb(i + 5, 6) + 1


class TestCounterexampleSearch:
    def test_8_3_finds_book_like_graph(self):
        report = counterexample_search(8, 3)
        assert report.outcome == "counterexample"
        assert report.counterexample_rank == 0
        assert report.graphs_examined == 1
        g = report.counterexample
        assert count_triangles(g) >= 3
        assert is_p4hat_free(g)
        # rank 0 is the union with candidate 014: the three-page book
        assert are_isomorphic(from_edges(5, book(3).edges()), from_edges(5, [e for e in g.edges()]))

    def test_5_5_exhausted(self):
        report = counterexample_search(5, 5)
        assert report.outcome == "exhausted"
        assert report.graphs_examined == comb(4, 3)
        assert report.nonexistence_certified  # 5 > floor(25/8) = 3
        # beyond the 4 candidates no subset exists: vacuously exhausted
        report = counterexample_search(5, 7)
        assert (report.outcome, report.graphs_examined, report.nodes_visited) == ("exhausted", 0, 0)

    def test_6_6_exhausted(self):
        report = counterexample_search(6, 6)
        assert report.outcome == "exhausted"
        assert report.graphs_examined == comb(10, 4)
        assert report.nonexistence_certified

    def test_7_9_exhausted(self):
        report = counterexample_search(7, 9)
        assert report.outcome == "exhausted"
        assert report.graphs_examined == comb(21, 7)
        assert report.nonexistence_certified

    def test_8_8_counterexample_deterministic_across_workers(self):
        reports = [counterexample_search(8, 8, workers=w) for w in (1, 2, 8)]
        assert reports[0].outcome == "counterexample"
        assert is_p4hat_free(reports[0].counterexample)
        assert count_triangles(reports[0].counterexample) >= 8
        assert reports == [reports[0]] * 3  # whole reports, every field

    def test_7_9_deterministic_across_workers(self):
        reports = [counterexample_search(7, 9, workers=w) for w in (1, 2, 8)]
        assert reports[0].outcome == "exhausted"
        assert reports == [reports[0]] * 3

    def test_wide_stride_vertex_counts(self):
        # n = 9 and n = 10: the sizes above n = 8 that the search guard admits
        for n in (9, 10):
            report = counterexample_search(n, 3)
            assert report.outcome == "counterexample"
            assert is_p4hat_free(report.counterexample)
            assert count_triangles(report.counterexample) >= 3

    def test_nodes_visited_sentinel(self):
        # detector calls of the pruned scan; a change here means the pruning
        # changed
        for workers in (1, 2, 8):
            assert counterexample_search(8, 9, workers=workers).nodes_visited == 19921
            assert counterexample_search(8, 8, workers=workers).nodes_visited == 7778
            # n = 9: 62 candidates, every 9-subset ruled out
            report = counterexample_search(9, 11, workers=workers)
            assert report.outcome == "exhausted"
            assert report.graphs_examined == comb(62, 9) == 20_286_591_270
            assert report.nodes_visited == 624_940

    def test_progress_is_live_and_in_subtree_order(self, monkeypatch):
        # (7, 9) exhausts, so subtree i (largest candidate i + 6) reports its
        # whole rank block C(i + 6, 6)
        expected = [(i, comb(m, 6)) for i, m in enumerate(range(6, 21))]
        calls = []
        counterexample_search(7, 9, workers=2, progress=lambda i, e: calls.append((i, e)))
        assert calls == expected
        # in one process each subtree's progress comes before the next scan
        events = []
        scan = search._scan

        def logged_scan(*args, **kwargs):
            events.append("scan")
            return scan(*args, **kwargs)

        monkeypatch.setattr(search, "_scan", logged_scan)
        counterexample_search(7, 9, progress=lambda i, e: events.append((i, e)))
        assert events == [x for call in expected for x in ("scan", call)]

    def test_pool_size(self, pool_sizes):
        counterexample_search(5, 5, workers=8)  # 2 subtrees
        counterexample_search(5, 6, workers=8)  # 1 subtree: no pool
        counterexample_search(7, 9, workers=1)  # 15 subtrees, one worker: no pool
        counterexample_search(7, 9, workers=64)
        enumerate_extremal_configs(7, 8, workers=3)  # 16 subtrees
        extremal_value(8, workers=1)
        extremal_value(8, workers=2)  # the t = 9 and t = 8 units share one pool
        assert pool_sizes == [2, 15, 3, 2]

    def test_visited_unions_carry_at_least_t_triangles(self):
        rng = random.Random(83)
        cands = candidate_triangles(8)
        for t in (5, 8, 9):
            for _ in range(200):
                subset = rng.sample(range(len(cands)), t - 2)
                union = union_of_triangles(
                    8, list(FIXED_TRIANGLES) + [cands[i] for i in subset]
                )
                assert count_triangles(union) >= t

    def test_guards(self):
        with pytest.raises(GuardError):
            counterexample_search(11, 9)
        with pytest.raises(GuardError):
            counterexample_search(8, 2)
        with pytest.raises(GuardError):
            counterexample_search(8, 9, workers=0)


class TestCertifyUpperBound:
    """The K4-rooted scan by attachment class, against the pair route and
    the oracle."""

    def test_both_routes_exhaust(self):
        for n, t in ((8, 9), (9, 11)):
            assert counterexample_search(n, t, workers=2).outcome == "exhausted"
            assert certify_upper_bound(n, t).outcome == "exhausted"

    def test_small_n_agree_with_oracle(self):
        for n in (5, 6, 7):
            ex, _ = exhaustive_oracle(n)
            report = certify_upper_bound(n, ex)
            assert report.outcome == "counterexample", n
            assert is_p4hat_free(report.counterexample)
            assert count_triangles(report.counterexample) == ex
            assert certify_upper_bound(n, ex + 1).outcome == "exhausted", n

    def test_k4_alone_meets_small_targets(self):
        # k = t - 4 <= 0: no subset to scan, the seed is the union
        for n, t in ((4, 3), (4, 4), (5, 4)):
            report = certify_upper_bound(n, t)
            assert report.outcome == "counterexample"
            assert report.counterexample == from_edges(n, complete(4).edges())
            assert report.classes == ((),) and report.nodes_per_class == (0,)
        assert certify_upper_bound(4, 5).outcome == "exhausted"

    def test_nodes_per_class_sentinel(self):
        # detector calls per maximal class; a change here means the classes,
        # their candidates or the pruning changed
        expected = {
            (8, 9): (((4,), (2, 2)), (136, 16)),
            (9, 11): (((5,), (3, 2)), (2273, 293)),
            (10, 13): (((6,), (4, 2), (3, 3), (2, 2, 2)), (58485, 8518, 6379, 2941)),
        }
        for (n, t), (classes, nodes) in expected.items():
            for workers in (1, 2, 8):
                report = certify_upper_bound(n, t, workers=workers)
                assert report == search.CertificateReport("exhausted", classes, nodes, None)
        assert sum(expected[8, 9][1]) == 152 and sum(expected[9, 11][1]) == 2566
        assert sum(expected[10, 13][1]) == 76_323

    def test_candidates_have_at_most_one_vertex_in_s(self):
        for n in range(4, 11):
            for parts in search._attachment_classes(n):
                assert sum(parts) in (n - 4, 0) and all(p >= 2 for p in parts)
                cands = search._k4_candidates(n, parts)
                outer = [tri for tri in cands if tri[0] >= 4]
                assert len(outer) == comb(n - 4, 3)
                assert len(cands) - len(outer) == sum(comb(p, 2) for p in parts)
                assert all(tri[1] >= 4 for tri in cands)

    def test_guards(self):
        # at or below floor(n^2/8) the route would miss K4-free graphs
        for n, t in ((8, 8), (6, 4), (9, 10)):
            with pytest.raises(GuardError):
                certify_upper_bound(n, t)
        with pytest.raises(GuardError):
            certify_upper_bound(3, 5)
        with pytest.raises(GuardError):
            certify_upper_bound(11, 16)
        with pytest.raises(GuardError):
            certify_upper_bound(8, 9, workers=0)


class TestOracle:
    def test_n4(self):
        value, configs = exhaustive_oracle(4)
        assert value == 4
        assert len(configs) == 1 and configs[0] == complete(4)

    def test_n5(self):
        value, configs = exhaustive_oracle(5)
        assert value == 4
        assert len(configs) == 1
        assert are_isomorphic(configs[0], small_extremal(5))

    def test_n6(self):
        value, configs = exhaustive_oracle(6)
        assert value == 5
        assert len(configs) == 1
        assert are_isomorphic(configs[0], small_extremal(6))

    def test_guard(self):
        with pytest.raises(GuardError):
            exhaustive_oracle(8)


class TestExtremal:
    def test_pipeline_matches_oracle(self):
        # completeness anchor: the collect scan agrees with the full
        # enumeration oracle wherever both run
        for n in (5, 6, 7):
            value, oracle_configs = exhaustive_oracle(n)
            pipeline = enumerate_extremal_configs(n, value)
            assert [canonical_form(g) for g in pipeline] == [
                canonical_form(g) for g in oracle_configs
            ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_n8_configs(self, workers):
        value, configs = extremal_value(8, workers=workers)
        assert value == 8
        assert [canonical_form(g).decode() for g in configs] == [
            "G?~vno", "G@LAJ{", "GJ]CKK"
        ]

    def test_n8_configs_match_pair_route(self):
        # the K4 route plus the Mantel-forced K4-free configuration against
        # the pair route's collect scan
        _, configs = extremal_value(8)
        assert [canonical_form(g) for g in configs] == [
            canonical_form(g) for g in enumerate_extremal_configs(8, 8)
        ]

    def test_extremal_value_small(self):
        assert extremal_value(4)[0] == 4
        value, configs = extremal_value(5)
        assert value == 4 and len(configs) == 1

    def test_guards(self):
        with pytest.raises(GuardError):
            extremal_value(9)
        with pytest.raises(GuardError):
            extremal_value(8, workers=0)
        # 2 * ex_value < floor(n^2/4): a config could be an edge-disjoint packing
        for n, ex_value in ((8, 7), (6, 4)):
            with pytest.raises(GuardError):
                enumerate_extremal_configs(n, ex_value)
        enumerate_extremal_configs(7, 6)  # equality case, 2 * 6 == floor(49/4)
