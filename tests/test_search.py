import random
import re
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from p4hat import (
    FIXED_TRIANGLES,
    Graph,
    GuardError,
    are_isomorphic,
    book,
    candidate_triangles,
    canonical_form,
    certify_upper_bound,
    complete,
    contains_path4,
    count_triangles,
    counterexample_search,
    enumerate_extremal_configs,
    excluded_triangles,
    exhaustive_oracle,
    extremal_value,
    from_edges,
    is_p4hat_free,
    neighborhood_structure,
    small_extremal,
    union_of_triangles,
)
from p4hat import search
from p4hat.pool import MAX_WORKERS
from p4hat.search import (
    EXHAUSTIVE_MAX_VERTICES,
    EXTREMAL_MAX_VERTICES,
    SEARCH_MAX_VERTICES,
    _k4_seeds,
    _pair_seed,
    _row_bits,
    _scan,
    _scan_seeds,
)

from conftest import class_route_hits

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

    def test_exclusion_needs_five_vertices(self):
        with pytest.raises(GuardError, match="^candidate pruning's n must be an int >= 5, got 4$"):
            excluded_triangles(4)

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
    def test_total_ranks_38_7(self):
        assert comb(38, 7) == 12_620_256


class TestPrunedScan:
    def test_matches_unpruned_reference(self):
        for n, ex in SMALL_EX.items():
            cands = candidate_triangles(n)
            for t in range(3, ex + 2):
                k = t - 2
                total = comb(len(cands), k)
                ref = _reference_hits(n, k)
                [(examined, _, hits)] = _scan_seeds([_pair_seed(n, t)], False, 1)
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
                # by definition: top after each (k - 1)-subset of range(top),
                # in colex order, ranked from C(top, k)
                lower = sorted(combinations(range(top), k - 1), key=lambda s: s[::-1])
                assert len(lower) == hi - lo
                unions = (_union(8, cands, s + (top,)) for s in lower)
                ref = [(rank, g.adj) for rank, g in enumerate(unions, lo)
                       if is_p4hat_free(g)]
                assert (examined, hits) == (hi - lo, ref), (k, top)
                examined, _, hits = _scan(seed, cand_bits, k, top, first=True)
                assert hits == ref[:1], (k, top)
                assert examined == (ref[0][0] - lo + 1 if ref else hi - lo), (k, top)
                checked += 1
                with_hits += bool(ref)
            assert covered == comb(len(cands), k), k
        assert checked == 34 and with_hits == 5

    def test_stop_rule(self):
        # "first" mode ends the ordered read at the first unit with a hit,
        # whatever the worker count: here subtree j of the second seed, after
        # all 32 subtrees of the first, which exhausts
        scans = [_pair_seed(8, 9), _pair_seed(8, 8)]
        collect = []
        results = _scan_seeds(scans, False, 1, lambda i, e: collect.append(e))
        hit = results[1][2][0]
        j = next(j for j, top in enumerate(range(5, 38)) if hit[0] < comb(top + 1, 6))
        for workers in (1, 2):
            first = []
            results = _scan_seeds(scans, True, workers, lambda i, e: first.append(e))
            assert results[0] == [comb(38, 7), 19921, []]
            assert results[1][0] == hit[0] + 1 and results[1][2] == [hit]
            assert len(first) == 32 + j + 1
            assert first[:-1] == collect[:32 + j]
            assert first[-1] == hit[0] - comb(j + 5, 6) + 1


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
        enumerate_extremal_configs(7, 8, workers=3)  # 1 subtree: no pool
        enumerate_extremal_configs(8, 8, workers=3)  # 11 subtrees
        extremal_value(8, workers=1)
        # two maps, each with its own pool: the t = 9 scan's 6 subtrees, then
        # the t = 8 collect scan's 11
        extremal_value(8, workers=2)
        assert pool_sizes == [2, 15, 3, 2, 2]

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
        for workers in (0, MAX_WORKERS + 1):
            with pytest.raises(GuardError):
                counterexample_search(8, 9, workers=workers)


class TestCertifyUpperBound:
    """The K4-rooted scan over the X_i seeds, against the class route, the
    pair route and the oracle."""

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
        # k = t - 4 <= 0: the one seed is its own union
        for n, t in ((4, 3), (4, 4), (5, 4)):
            report = certify_upper_bound(n, t)
            assert report.outcome == "counterexample"
            assert report.counterexample == from_edges(n, complete(4).edges())
            assert report.seeds == (report.counterexample,) and report.nodes_per_seed == (1,)
        assert certify_upper_bound(4, 5).outcome == "exhausted"

    def test_nodes_per_seed_sentinel(self):
        # detector calls per seed; a change here means the seeds, their
        # candidates or the pruning changed
        expected = {
            (8, 9): (0, 2, 0, 0, 0, 3, 5),
            (9, 11): (56, 75, 0, 0, 0, 12, 0, 0, 23, 32, 4, 20),
            (10, 13): (1277, 908, 5, 0, 0, 0, 1, 338, 0, 0, 37, 0,
                       0, 441, 0, 556, 16, 57, 6, 129, 8, 26, 36, 306),
        }
        for (n, t), nodes in expected.items():
            seeds = tuple(Graph(n, rows) for rows, _, _ in _k4_seeds(n, t))
            for workers in (1, 2, 8):
                report = certify_upper_bound(n, t, workers=workers)
                assert report == search.CertificateReport("exhausted", seeds, nodes, None)
        assert sum(expected[8, 9]) == 10 and sum(expected[9, 11]) == 222
        assert sum(expected[10, 13]) == 4147

    def test_matches_class_route(self):
        # the same outcome and the same canonical forms with exactly t
        # triangles as the attachment-class route, around floor(n^2/8)
        pairs = [(n, t) for n in range(5, 11)
                 for t in range(max(5, n * n // 8 - 1), n * n // 8 + 3)]
        assert len(pairs) == 19

        def exact_forms(n, t, hits):
            graphs = (Graph(n, rows) for rows in hits)
            return {canonical_form(g) for g in graphs if count_triangles(g) == t}

        for n, t in pairs:
            results = _scan_seeds(_k4_seeds(n, t), False, 1)
            hits = [rows for _, _, seed_hits in results for _, rows in seed_hits]
            reference = class_route_hits(n, t)
            assert bool(hits) == bool(reference), (n, t)
            assert exact_forms(n, t, hits) == exact_forms(n, t, reference), (n, t)

    def test_x_graphs_and_seed_counts_match_brute_force(self):
        # every graph on m <= 6 vertices with no isolated vertex and no
        # 4-vertex path, up to isomorphism; a seed is a multiset of four of
        # them or empty sets, on at most n - 4 vertices in all
        forms = {0: {b""}}
        for m in range(2, 7):
            edges = list(combinations(range(m), 2))
            graphs = (from_edges(m, [e for i, e in enumerate(edges) if mask >> i & 1])
                      for mask in range(1 << len(edges)))
            forms[m] = {canonical_form(g) for g in graphs
                        if all(g.adj) and contains_path4(g) is None}
        assert [len(forms[m]) for m in range(2, 7)] == [1, 2, 2, 3, 6]
        options = [(m, form) for m in sorted(forms) for form in sorted(forms[m])]
        for n, count in zip(range(4, 11), (1, 1, 2, 4, 7, 12, 24)):
            brute = {tuple(sorted(form for _, form in xs))
                     for xs in combinations_with_replacement(options, 4)
                     if sum(m for m, _ in xs) <= n - 4}
            seeds = [self._x_forms(Graph(n, rows)) for rows, _, _ in _k4_seeds(n, 99)]
            assert len(seeds) == len(set(seeds)) == len(brute) == count, n
            assert set(seeds) == brute, n

    @staticmethod
    def _x_forms(seed):
        """The sorted canonical forms of the seed's four G[X_i], b"" when empty."""
        forms = []
        for xs in neighborhood_structure(seed, (0, 1, 2, 3)).x_sets:
            pairs = [(i, j) for i, j in combinations(range(len(xs)), 2)
                     if seed.has_edge(xs[i], xs[j])]
            forms.append(canonical_form(from_edges(len(xs), pairs)) if xs else b"")
        return tuple(sorted(forms))

    def test_candidates_have_no_non_seed_edge_inside_one_x(self):
        # at t = 99 every seed has k = t - 4 - e > 0 and scans its candidates
        for n in range(4, 11):
            for rows, cands, k in _k4_seeds(n, 99):
                seed = Graph(n, rows)
                report = neighborhood_structure(seed, (0, 1, 2, 3))
                assert report.disjoint and all(report.x_p4_free)
                assert report.ts_identity == "holds"
                assert sum(report.x_edge_counts) == 99 - 4 - k
                assert is_p4hat_free(seed)
                part = {x: i for i, xs in enumerate(report.x_sets) for x in xs}
                for xs in report.x_sets:
                    assert all(seed.adj[x] & sum(1 << y for y in xs) for x in xs), xs
                allowed = [tri for tri in combinations(range(4, n), 3)
                           if all(seed.has_edge(a, b) or part.get(a, -1) != part.get(b, -2)
                                  for a, b in combinations(tri, 2))]
                assert cands == allowed, (n, rows)

    def test_guards(self):
        # at or below floor(n^2/8) the route would miss K4-free graphs
        for n, t in ((8, 8), (6, 4), (9, 10)):
            with pytest.raises(GuardError):
                certify_upper_bound(n, t)
        with pytest.raises(GuardError):
            certify_upper_bound(3, 5)
        with pytest.raises(GuardError):
            certify_upper_bound(11, 16)
        for workers in (0, MAX_WORKERS + 1):
            with pytest.raises(GuardError):
                certify_upper_bound(8, 9, workers=workers)


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


# every (n, t) that config enumeration accepts, up to one past ex(n):
# ceil(floor(n^2/4) / 2) <= t <= ex(n) + 1, eleven pairs
CONFIG_CASES = [(n, t) for n, ex in {**SMALL_EX, 8: 8}.items()
                for t in range(-(-(n * n // 4) // 2), ex + 2)]


class TestExtremal:
    @pytest.mark.parametrize("n, t", CONFIG_CASES)
    def test_configs_match_pair_route(self, n, t):
        # completeness anchor: the K4 route plus the Mantel-forced K4-free
        # configuration against the pair route's collect scan, and against
        # the full enumeration oracle wherever it runs
        configs = [canonical_form(g) for g in enumerate_extremal_configs(n, t)]
        [(_, _, hits)] = _scan_seeds([_pair_seed(n, t)], False, 1)
        unions = [Graph(n, rows) for _, rows in hits]
        assert configs == sorted({canonical_form(g) for g in unions if count_triangles(g) == t})
        if n <= EXHAUSTIVE_MAX_VERTICES and t == SMALL_EX[n]:
            assert configs == [canonical_form(g) for g in exhaustive_oracle(n)[1]]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_n8_configs(self, workers):
        value, configs = extremal_value(8, workers=workers)
        assert value == 8
        assert [canonical_form(g).decode() for g in configs] == [
            "G?~vno", "G@LAJ{", "GJ]CKK"
        ]

    def test_extremal_value_small(self):
        assert extremal_value(4)[0] == 4
        value, configs = extremal_value(5)
        assert value == 4 and len(configs) == 1

    def test_guards(self):
        with pytest.raises(GuardError):
            extremal_value(9)
        # n <= 7 runs no map, so extremal_value guards the count itself
        for n in (5, 8):
            for workers in (0, MAX_WORKERS + 1):
                with pytest.raises(GuardError, match="^worker count must be"):
                    extremal_value(n, workers=workers)
        # 2 * ex_value < floor(n^2/4): a K4-free config need not be forced
        for n, ex_value in ((8, 7), (6, 4)):
            with pytest.raises(GuardError):
                enumerate_extremal_configs(n, ex_value)
        enumerate_extremal_configs(7, 6)  # equality case, 2 * 6 == floor(49/4)


# each size guard names the range it supports and the n it rejected; a
# float, a bool or a string is refused as GuardError, not a raw TypeError
@pytest.mark.parametrize("call, message, low, high", [
    (lambda n: counterexample_search(n, 9), "counterexample_search", 5, SEARCH_MAX_VERTICES),
    (lambda n: certify_upper_bound(n, 99), "certify_upper_bound", 4, SEARCH_MAX_VERTICES),
    (exhaustive_oracle, "exhaustive_oracle", 1, EXHAUSTIVE_MAX_VERTICES),
    (lambda n: enumerate_extremal_configs(n, 99), "enumerate_extremal_configs", 5,
     EXTREMAL_MAX_VERTICES),
    (extremal_value, "extremal_value", 1, EXTREMAL_MAX_VERTICES),
], ids=["counterexample_search", "certify_upper_bound", "exhaustive_oracle",
        "enumerate_extremal_configs", "extremal_value"])
@pytest.mark.parametrize("case", [0, -1, "max+1", 7.5, 8.0, True, "8"])
def test_size_guard_names_range_and_value(call, message, low, high, case):
    n = high + 1 if case == "max+1" else case
    with pytest.raises(GuardError, match=rf"^{message}'s n must be an int in {low}\.\.{high}, "
                                         rf"got {re.escape(repr(n))}$"):
        call(n)


# the triangle-count guards keep their reason in the message
@pytest.mark.parametrize("call, what, low", [
    (lambda t: counterexample_search(6, t), "counterexample_search's t", 3),
    (lambda t: certify_upper_bound(8, t), "t (the K4 route needs t > floor(n^2/8))", 9),
    (lambda t: enumerate_extremal_configs(8, t),
     "ex_value (configurations need 2 * ex_value >= floor(n^2/4))", 8),
], ids=["counterexample_search", "certify_upper_bound", "enumerate_extremal_configs"])
@pytest.mark.parametrize("case", [7.5, 8.0, True, "8"])
def test_count_guard_names_bound_and_value(call, what, low, case):
    with pytest.raises(GuardError, match=rf"^{re.escape(what)} must be an int >= {low}, "
                                         rf"got {re.escape(repr(case))}$"):
        call(case)
