"""Computing the extremal values for small n.

For n <= 7 a Gray-code walk over all labeled graphs finds the exact
maximum triangle count among pattern-free graphs and every maximizer.
For n = 8 that space (2^28 graphs) gives way to the pruned subset search:
fix two triangles sharing an edge as 012 and 013, prune candidate
triangles that force the pattern, and scan unions of candidate subsets,
skipping every subtree whose partial union already contains the pattern.
Exhausting the t = 9 scan certifies ex(8) <= 8; the bipartite+matching
construction realizes 8.
The extremal configurations come from the same scan at t = 8 alone: by
Mantel's theorem an 8-vertex graph whose triangles are pairwise
edge-disjoint has at most 7 of them, so such graphs need no enumeration.
"""

import time

from math import comb

from p4hat import (
    candidate_triangles,
    canonical_form,
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
print("== pruned searches ==")
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
print("== the full n = 8 computation ==")
started = time.perf_counter()
value, configs = extremal_value(8)
print(f"ex(8) = {value}  ({time.perf_counter() - started:.1f}s)")
print("extremal configurations, canonical graph6:")
for g in configs:
    print(f"  {canonical_form(g).decode()}")
