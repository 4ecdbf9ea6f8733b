"""Acceptance gate: one test per required criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines and timings.  The heavy criteria (full 12.6M-subset search scans,
the million-point arithmetic audit, the 10^4-graph lemma corpora) run at
full scale here; the unit-test modules cover the same ground at reduced
scale for quick iteration.
"""

import json
import random
import time
from itertools import combinations
from math import comb

from p4hat import (
    are_isomorphic,
    base_edge_reduction,
    bipartite_matching,
    book,
    brute_force_suspension,
    candidate_triangles,
    canonical_form,
    case_threshold_audit,
    contains_suspension_p4,
    count_triangles,
    counterexample_search,
    decompose,
    excluded_triangles,
    extremal_value,
    find_k4,
    floor_identity_audit,
    from_edges,
    is_p4hat_free,
    sixteen_vertex,
    small_extremal,
    verify_k4free_bound,
)
from conftest import random_graph, run_cli, sample_p4hat_free


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status}: {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_extremal_table():
    expected = {4: 4, 5: 4, 6: 5, 7: 8, 8: 8}
    started = time.perf_counter()
    values = {}
    small_elapsed = 0.0
    for n, want in expected.items():
        t0 = time.perf_counter()
        code, out, _ = run_cli("extremal", "--n", str(n), "--workers", "8")
        dt = time.perf_counter() - t0
        if n <= 7:
            small_elapsed += dt
        assert code == 0
        values[n] = json.loads(out)["ex_value"]
    ok = values == expected and small_elapsed < 300.0
    _report(
        "extremal table ex(4..8) = 4,4,5,8,8 (n<=7 enumeration under 5 min)",
        ok,
        f"values={values}, n<=7 in {small_elapsed:.1f}s, "
        f"total {time.perf_counter() - started:.1f}s",
    )


def test_search_scale():
    started = time.perf_counter()
    report = counterexample_search(8, 9, workers=8)
    elapsed = time.perf_counter() - started
    ok = (
        report.outcome == "exhausted"
        and report.graphs_examined == comb(38, 7) == 12_620_256
        and elapsed < 18 * 60
    )
    _report(
        "search scale: (8, 9) exhausts exactly C(38,7) subsets within the time bound",
        ok,
        f"examined={report.graphs_examined}, {elapsed:.1f}s (target < 300s, bound 1080s)",
    )


def test_candidate_pruning():
    cands = candidate_triangles(8)
    excluded = excluded_triangles(8)
    ok = len(cands) == 38 and len(excluded) == 16
    _report(
        "candidate pruning: 38 candidates, exactly 16 excluded at n = 8",
        ok,
        f"candidates={len(cands)}, excluded={len(excluded)}",
    )


def test_constructions():
    bad = []
    for n in range(4, 201):
        g = bipartite_matching(n)
        if count_triangles(g) != n * n // 8 or contains_suspension_p4(g) is not None:
            bad.append(n)
    s = sixteen_vertex()
    dec = decompose(s)
    sixteen_ok = (
        count_triangles(s) == 32
        and contains_suspension_p4(s) is None
        and dec.kinds() == ["K4"] * len(dec.blocks)
        and dec.stray_edges == ()
    )
    _report(
        "constructions: bipartite+matching hits floor(n^2/8) p4hat-free for n <= 200; "
        "sixteen-vertex graph has 32 triangles and only K4 blocks",
        not bad and sixteen_ok,
        f"bipartite failures={bad}, sixteen_ok={sixteen_ok}",
    )


def test_n8_classification():
    value, configs = extremal_value(8, workers=8)
    assert value == 8
    failures = []
    for g in configs:
        kinds = decompose(g).kinds()
        two_k4 = kinds == ["K4", "K4"]
        only_books = bool(kinds) and all(k == "Book" for k in kinds)
        if not (two_k4 or only_books):
            failures.append((canonical_form(g).decode(), kinds))
    _report(
        "n = 8 classification: every extremal config is two edge-disjoint K4s or only books",
        not failures,
        f"configs={len(configs)}, failures={failures}",
    )


def test_uniqueness_small_cases():
    problems = []
    for n in range(4, 8):
        value, configs = extremal_value(n)
        if len(configs) != 1 or not are_isomorphic(configs[0], small_extremal(n)):
            problems.append((n, len(configs)))
    _report(
        "uniqueness: single edge-minimal extremal config for n in 4..7, "
        "matching the reference drawings",
        not problems,
        f"problems={problems}",
    )


def test_lemma_block_classification():
    # exhaustive over every labeled graph on n <= 6 vertices
    exhaustive_bad = 0
    for n in range(1, 7):
        edges = list(combinations(range(n), 2))
        for mask in range(1 << len(edges)):
            g = from_edges(n, [edges[i] for i in range(len(edges)) if mask >> i & 1])
            if is_p4hat_free(g) and "Other" in decompose(g).kinds():
                exhaustive_bad += 1
    # sampled corpus on up to 12 vertices
    rng = random.Random(1009)
    sampled_bad = 0
    for g in sample_p4hat_free(rng, 10_000, n_max=12):
        if "Other" in decompose(g).kinds():
            sampled_bad += 1
    _report(
        "lemma suite (a): block classification never returns Other on p4hat-free inputs "
        "(exhaustive n <= 6, 10^4 sampled n <= 12)",
        exhaustive_bad == 0 and sampled_bad == 0,
        f"exhaustive_bad={exhaustive_bad}, sampled_bad={sampled_bad}",
    )


def test_lemma_base_edge_reduction():
    rng = random.Random(1013)
    corpus = [g for g in sample_p4hat_free(rng, 4000, n_max=12) if find_k4(g) is None]
    corpus += [book(s) for s in range(1, 9)]
    corpus += [bipartite_matching(n) for n in range(4, 25)]
    failures = 0
    for g in corpus:
        report = verify_k4free_bound(g)
        reduced = base_edge_reduction(g)
        if not report.passed or count_triangles(reduced) != 0:
            failures += 1
    _report(
        "lemma suite (b): base-edge reduction is triangle-free with e = 2t and "
        "t <= floor(n^2/8) on every K4-free p4hat-free test graph",
        failures == 0,
        f"corpus={len(corpus)}, failures={failures}",
    )


def test_lemma_detector_oracle_equivalence():
    rng = random.Random(1019)
    disagreements = 0
    for _ in range(10_000):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        if (contains_suspension_p4(g) is not None) != brute_force_suspension(g):
            disagreements += 1
    _report(
        "lemma suite (c): detector vs exhaustive oracle on 10^4 random graphs, n <= 10",
        disagreements == 0,
        f"disagreements={disagreements}",
    )


def test_arithmetic_audits():
    t0 = time.perf_counter()
    floors = floor_identity_audit(1_000_000)
    floor_time = time.perf_counter() - t0
    cases = case_threshold_audit(100_000)
    ok = floors.ok and cases.passed
    _report(
        "arithmetic audits: floor identities for 12 <= n <= 10^6, "
        "case thresholds (n >= 17 contradiction, n <= 14 forcing)",
        ok,
        f"floors={floors.ok} in {floor_time:.2f}s, case1={cases.case1_ok}, "
        f"case2={cases.case2_ok}, cauchy_schwarz={cases.cauchy_schwarz_ok}",
    )


def test_determinism_across_worker_counts():
    checks = [
        ("search", "--n", "8", "--t", "9"),
        ("search", "--n", "8", "--t", "7"),  # counterexample path, mid-scan stop
        ("extremal", "--n", "8"),
        ("extremal", "--n", "6"),
    ]
    mismatched = []
    for base in checks:
        outputs = set()
        codes = set()
        for w in ("1", "2", "8"):
            code, out, _ = run_cli(*base, "--workers", w)
            outputs.add(out)
            codes.add(code)
        if len(outputs) != 1 or len(codes) != 1:
            mismatched.append(" ".join(base))
    _report(
        "determinism: cmd_search and cmd_extremal stdout byte-identical "
        "for worker counts 1, 2, 8",
        not mismatched,
        f"mismatched={mismatched}",
    )
