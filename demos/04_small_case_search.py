"""Computing the extremal values for small n.

For n <= 7 a Gray-code walk over all labeled graphs finds the exact
maximum triangle count among pattern-free graphs and every maximizer.
For n = 8 that space (2^28 graphs) gives way to pruned subset searches,
which union a seed with subsets of candidate triangles and skip every
subtree whose partial union already contains the pattern.

The pair route fixes two triangles sharing an edge as 012 and 013 and
prunes the candidate triangles that force the pattern next to them.

The K4 route, which `extremal_value(8)` uses, seeds the scan with a K4 on
0123 instead: a pattern-free graph with more than floor(n^2/8) triangles
contains one.  The sets X_i of outside neighbours of its vertices are
disjoint, and each G[X_i] is a graph of triangles and stars, so every
triangle through the K4 is fixed in one of a few seeds, and the scan adds
only triangles that avoid the K4.  Exhausting the t = 9 scan over the seven
seeds certifies ex(8) <= 8; the bipartite+matching construction realizes 8.
The same scan at t = 8 gives the configurations that contain a K4, and
Mantel's equality case forces the one that does not: K_{4,4} plus a perfect
matching of one side.
"""

import time

from math import comb

from p4hat import (
    candidate_triangles,
    canonical_form,
    certify_upper_bound,
    counterexample_search,
    excluded_triangles,
    exhaustive_oracle,
    extremal_value,
)

print("== exhaustive oracle, n <= 6 ==")
for n in range(4, 7):
    value, configs = exhaustive_oracle(n)
    forms = [canonical_form(g).decode() for g in configs]
    print(f"n={n}: ex = {value}, extremal configs (canonical graph6): {forms}")

print()
print("== candidate pruning at n = 8 ==")
cands = candidate_triangles(8)
print(f"triples on 8 vertices: {comb(8, 3)}")
print(f"fixed: 2, pruned: {len(excluded_triangles(8))}, candidates: {len(cands)}")
print(f"subsets to scan for t = 9: C({len(cands)}, 7) = {comb(len(cands), 7):,}")

print()
print("== the pair route ==")
for n, t in ((6, 6), (7, 9), (8, 5)):
    report = counterexample_search(n, t)
    if report.outcome == "exhausted":
        print(f"(n={n}, t={t}): exhausted, {report.graphs_examined:,} ranks covered "
              f"with {report.nodes_visited:,} nodes visited; "
              f"certifies ex({n}) < {t}: {report.nonexistence_certified}")
    else:
        print(f"(n={n}, t={t}): counterexample at rank {report.counterexample_rank} "
              f"-> ex({n}) >= {t}")

print()
print("== the K4 route ==")
for n, t in ((7, 8), (8, 9), (9, 11)):
    report = certify_upper_bound(n, t)
    print(f"(n={n}, t={t}): {report.outcome}; {len(report.seeds)} seeds, "
          f"nodes visited {report.nodes_per_seed}")

print()
print("== the full n = 8 computation ==")
started = time.perf_counter()
value, configs = extremal_value(8)
print(f"ex(8) = {value}  ({time.perf_counter() - started:.1f}s)")
print("extremal configurations, canonical graph6:")
for g in configs:
    print(f"  {canonical_form(g).decode()}")
