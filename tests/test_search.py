import random
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest

from p4hat import (
    FIXED_TRIANGLES,
    GuardError,
    are_isomorphic,
    book,
    candidate_triangles,
    canonical_form,
    colex_rank,
    colex_unrank,
    combination_rank_range,
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
from p4hat.search import _edge_data, _scan

# ex(n) for the sizes the unpruned reference scan can cover
SMALL_EX = {5: 4, 6: 5, 7: 8}


def _union(n, cands, subset):
    return union_of_triangles(n, list(FIXED_TRIANGLES) + [cands[i] for i in subset])


def _reference_hits(n, k):
    """Unpruned reference: every k-subset in colex order, kept when its union
    is p4hat-free, as (rank, subset) pairs."""
    cands = candidate_triangles(n)
    subsets = sorted(combinations(range(len(cands)), k), key=lambda s: s[::-1])
    return [(rank, s) for rank, s in enumerate(subsets) if is_p4hat_free(_union(n, cands, s))]


def _pruned_subtree(n, cands, k, rank):
    """Rank interval of the shallowest node above ``rank`` whose union already
    contains the pattern, or None if no node on that path does."""
    subset = colex_unrank(rank, k)
    base = 0
    for j in range(k, 0, -1):
        m = subset[j - 1]
        a = base + comb(m, j)
        if not is_p4hat_free(_union(n, cands, subset[j - 1:])):
            return a, a + comb(m, j - 1)
        base = a
    return None


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

    def test_unsupported_fixed_set(self):
        with pytest.raises(GuardError):
            candidate_triangles(8, fixed=((0, 1, 2), (0, 2, 3)))


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

    def test_even_three_way_split(self):
        ranges = [combination_rank_range(4, 2, i, 3) for i in range(3)]
        assert ranges == [(0, 2), (2, 4), (4, 6)]

    def test_ranges_cover_and_disjoint(self):
        for chunks in (1, 2, 5, 8):
            ranges = [combination_rank_range(21, 6, i, chunks) for i in range(chunks)]
            assert ranges[0][0] == 0
            assert ranges[-1][1] == comb(21, 6)
            for (a, b), (c, d) in zip(ranges, ranges[1:]):
                assert b == c

    def test_guards(self):
        with pytest.raises(GuardError):
            combination_rank_range(4, 5, 0, 1)
        with pytest.raises(GuardError):
            combination_rank_range(4, 2, 3, 3)


class TestPrunedScan:
    def test_matches_unpruned_reference(self):
        for n, ex in SMALL_EX.items():
            cands = candidate_triangles(n)
            for t in range(3, ex + 2):
                k = t - 2
                total = comb(len(cands), k)
                ref = _reference_hits(n, k)
                examined, _, hits = _scan(n, _edge_data(n, cands), k, 0, total, first=False)
                assert (examined, hits) == (total, ref), (n, t)
                report = counterexample_search(n, t)
                if ref:
                    rank, subset = ref[0]
                    assert report.outcome == "counterexample", (n, t)
                    assert report.counterexample_rank == rank
                    assert report.graphs_examined == rank + 1
                    assert report.counterexample == _union(n, cands, subset)
                else:
                    assert report.outcome == "exhausted", (n, t)
                    assert report.graphs_examined == total
                    assert report.counterexample_rank is None

    def test_rank_windows_match_unrank_reference(self):
        rng = random.Random(84)
        cands = candidate_triangles(8)
        cand_edges = _edge_data(8, cands)
        windows = []
        for t in (8, 9):
            k = t - 2
            total = comb(len(cands), k)
            for _ in range(10):
                lo = rng.randrange(total)
                windows.append((k, lo, min(total, lo + rng.randint(1, 3000))))
        # windows around (8,8)'s free unions, so hits fall inside some of them
        k = 6
        total = comb(len(cands), k)
        _, _, free = _scan(8, cand_edges, k, 0, total, first=False)
        for rank, _ in rng.sample(free, 4):
            windows.append((k, max(0, rank - rng.randint(0, 1500)),
                            min(total, rank + rng.randint(1, 1500))))
        cut = with_hits = 0
        for k, lo, hi in windows:
            ref = []
            for rank in range(lo, hi):
                subset = colex_unrank(rank, k)
                if is_p4hat_free(_union(8, cands, subset)):
                    ref.append((rank, subset))
            with_hits += bool(ref)
            examined, _, hits = _scan(8, cand_edges, k, lo, hi, first=False)
            assert (examined, hits) == (hi - lo, ref), (k, lo, hi)
            examined, _, hits = _scan(8, cand_edges, k, lo, hi, first=True)
            assert hits == ref[:1], (k, lo, hi)
            assert examined == (ref[0][0] - lo + 1 if ref else hi - lo), (k, lo, hi)
            for rank in (lo, hi - 1):
                sub = _pruned_subtree(8, cands, k, rank)
                cut += sub is not None and (sub[0] < lo or sub[1] > hi)
        assert len(windows) >= 20 and with_hits >= 4
        # at least half the window ends fall strictly inside a pruned subtree,
        # so the kernel must count only that subtree's overlap with the window
        assert cut >= len(windows), cut

    def test_stop_rule(self):
        cands = candidate_triangles(8)
        cand_edges = _edge_data(8, cands)
        rank = counterexample_search(8, 8).counterexample_rank
        lo, hi = rank - 500, rank + 500
        # another worker's hit at or above this window's least hit changes nothing
        found = _scan(8, cand_edges, 6, lo, hi, True, SimpleNamespace(value=rank))
        assert found[2] == [(rank, colex_unrank(rank, 6))]
        # a hit below the window ends the walk before its first node
        assert _scan(8, cand_edges, 6, lo, hi, True, SimpleNamespace(value=lo - 1)) == (0, 0, [])


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
        for rep in reports:
            assert rep.outcome == "counterexample"
            assert is_p4hat_free(rep.counterexample)
            assert count_triangles(rep.counterexample) >= 8
        assert len({rep.counterexample_rank for rep in reports}) == 1
        assert len({rep.counterexample for rep in reports}) == 1
        assert len({rep.graphs_examined for rep in reports}) == 1

    def test_7_9_deterministic_across_workers(self):
        reports = [counterexample_search(7, 9, workers=w) for w in (1, 2, 8)]
        assert len({(r.outcome, r.graphs_examined) for r in reports}) == 1

    def test_wide_stride_vertex_counts(self):
        # n = 9 and n = 10: the sizes above n = 8 that the search guard admits
        for n in (9, 10):
            report = counterexample_search(n, 3)
            assert report.outcome == "counterexample"
            assert is_p4hat_free(report.counterexample)
            assert count_triangles(report.counterexample) >= 3

    def test_nodes_visited_sentinel(self):
        # detector calls of the pruned scan with one worker; a change here
        # means the pruning changed
        assert counterexample_search(8, 9, workers=1).nodes_visited == 19921
        assert counterexample_search(8, 8, workers=1).nodes_visited == 7778

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
        # completeness anchor: the seeded-scan + packing pipeline agrees with
        # the full enumeration oracle wherever both run
        for n in (5, 6, 7):
            value, oracle_configs = exhaustive_oracle(n)
            pipeline = enumerate_extremal_configs(n, value)
            assert [canonical_form(g) for g in pipeline] == [
                canonical_form(g) for g in oracle_configs
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
