"""Pruned exhaustive search for triangle-rich p4hat-free graphs on small n.

Method
------
To certify that no n-vertex p4hat-free graph holds t or more triangles
(for t > floor(n^2/8)):

* If no two triangles of such a graph shared an edge, every block would be
  a single triangle and the Mantel reduction would cap t(G) at
  floor(n^2/8) < t.  So two triangles share an edge and can be relabeled
  to the fixed pair 012, 013.
* Triangles that would force the forbidden pattern alongside the fixed
  pair are pruned from the candidate pool: any triangle with an edge in
  {02, 03, 12, 13} and a vertex outside {0,1,2,3}.  (For n = 8 this
  removes 16 of the 56 triples and leaves 38 candidates.)
* Every (t-2)-subset of candidates is unioned with the fixed pair; the
  union carries at least t triangles by construction, so a single
  p4hat-free union is already a counterexample.  Exhausting all subsets
  certifies nonexistence.

Subsets are enumerated in colexicographic rank order.  The unit of work is
one subtree: all subsets whose largest candidate is m, the rank block
[C(m, k), C(m + 1, k)).  Subtrees are scanned in increasing m, by one
process or a pool, and their results are read in that order; a "first"
search stops reading at the first subtree with a hit, so every result is
independent of the worker count.  Each subtree is a depth-first walk that
adds one triangle per level; every node holds its own union's adjacency
rows, its parent's with the new triangle's edges OR-ed in, so leaving a node
undoes nothing.  Containing the pattern is monotone under adding edges, so
the walk tests the union at every node and skips the subtree below any node
whose union already contains it; at n = 8, t = 9
this visits 19,921 nodes instead of testing 12,620,256 leaves.
``graphs_examined`` counts the ranks covered, pruned subtrees included, so
an exhausted scan still accounts for every subset.

The same scan in "collect" mode, filtered to unions with exactly
t = ex(n) triangles, enumerates every extremal configuration with two
triangles sharing an edge, and there is no other once 2t >= floor(n^2/4):
dropping one edge from each of t pairwise edge-disjoint triangles leaves a
triangle-free graph with >= 2t edges, which Mantel caps at floor(n^2/4),
with equality only for K_{floor(n/2),ceil(n/2)}, where a dropped edge lies
in floor(n/2) >= 2 triangles.  An oracle over all labeled graphs covers n <= 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Sequence

from .canon import canonical_form
from .constructions import bipartite_matching
from .graphs import (
    Graph,
    GuardError,
    Triangle,
    count_triangles,
    decode_graph6,
    edge_minimal_reduction,
    triangle_edges,
    union_of_triangles,
)
from .patterns import _rows_contain_suspension
from .pool import ordered_map

FIXED_TRIANGLES: tuple[Triangle, Triangle] = ((0, 1, 2), (0, 1, 3))
SEARCH_MAX_VERTICES = 10
EXHAUSTIVE_MAX_VERTICES = 7
EXTREMAL_MAX_VERTICES = 8


# -- candidate pool -----------------------------------------------------------

_PRUNED_EDGES = frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})


def excluded_triangles(n: int) -> list[Triangle]:
    """Triangles pruned next to the fixed pair: an edge in {02,03,12,13} plus
    a vertex outside the fixed-pair support always forces the forbidden
    pattern (4(n-4) triples; 16 for n = 8)."""
    if n < 5:
        raise GuardError(f"candidate pruning needs n >= 5, got {n}")
    out = []
    for tri in combinations(range(n), 3):
        if tri in FIXED_TRIANGLES:
            continue
        if any(e in _PRUNED_EDGES for e in triangle_edges(tri)) and tri[2] >= 4:
            out.append(tri)
    return out


def candidate_triangles(n: int) -> list[Triangle]:
    """Admissible triangles next to the fixed pair, in lexicographic order."""
    dropped = set(excluded_triangles(n)) | set(FIXED_TRIANGLES)
    return [tri for tri in combinations(range(n), 3) if tri not in dropped]


# -- colexicographic subset ranking -------------------------------------------

def colex_rank(subset: Sequence[int]) -> int:
    return sum(comb(c, j + 1) for j, c in enumerate(sorted(subset)))


def colex_unrank(rank: int, k: int) -> tuple[int, ...]:
    if rank < 0 or k < 0:
        raise GuardError(f"colex_unrank needs rank >= 0 and k >= 0, got {rank}, {k}")
    if k == 0 and rank > 0:
        raise GuardError(f"the only 0-subset has rank 0, got {rank}")
    out = []
    r = rank
    for j in range(k, 0, -1):
        m = j - 1
        while comb(m + 1, j) <= r:
            m += 1
        out.append(m)
        r -= comb(m, j)
    return tuple(reversed(out))


# -- the pruned colex scan ------------------------------------------------------

def _row_bits(tris: Sequence[Triangle]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per triangle, each vertex with the row bits of the other two."""
    return tuple(((a, 1 << b | 1 << c), (b, 1 << a | 1 << c), (c, 1 << a | 1 << b))
                 for a, b, c in tris)


def _scan(n, cand_bits, k, top, first):
    """Walk the subtree of k-subsets of candidates whose largest element is
    ``top``: the colex ranks [C(top, k), C(top + 1, k)).

    Subset elements are chosen from the largest down, so subsets are met in
    colex order: choosing element m at level j spans the ranks
    [base + C(m, j), base + C(m + 1, j)).  A node's union is the fixed pair
    plus the triangles chosen so far: a copy of its parent's rows with
    triangle m's bits OR-ed in.  Every union is tested; adding triangles
    never removes the pattern, so a node whose union contains it is skipped
    with its whole subtree, whose C(m, j - 1) ranks still count as examined.
    A leaf whose union is p4hat-free is a hit.  ``first`` stops at the first
    hit; otherwise every hit is kept.

    Returns (examined, nodes, hits): ranks covered, detector calls, and the
    hits as (rank, adjacency rows) pairs in colex order.
    """
    combt = [[comb(m, j) for j in range(k + 1)] for m in range(top + 1)]
    hits: list[tuple[int, tuple[int, ...]]] = []
    examined = nodes = 0

    def walk(j: int, elements: Iterable[int], base: int, rows: list[int]) -> bool:
        """Visit the given children of one node; True once the walk must end."""
        nonlocal examined, nodes
        for m in elements:
            child = rows.copy()
            for v, bits in cand_bits[m]:
                child[v] |= bits
            nodes += 1
            if _rows_contain_suspension(child, n):
                examined += combt[m][j - 1]
            elif j > 1:
                if walk(j - 1, range(j - 2, m), base + combt[m][j], child):
                    return True
            else:
                examined += 1
                hits.append((base + combt[m][j], tuple(child)))
                if first:
                    return True
        return False

    walk(k, (top,), 0, list(union_of_triangles(n, FIXED_TRIANGLES).adj))
    return examined, nodes, hits


def _scan_subtrees(first, n, cands, k, workers, progress=None):
    """Scan the subtrees of all C(len(cands), k) subsets in increasing order
    of their largest element and return their ``_scan`` results in that order.

    The subtrees go through ``ordered_map``, so one process scans them all
    when one suffices, and a pool never has more processes than subtrees.
    In "first" mode the read ends at the first subtree with a hit and the
    subtrees not yet started are cancelled, so the results never depend on
    the worker count.  ``progress(i, examined)`` is called as the result of
    subtree i is read.
    """
    scan = partial(_scan, n, _row_bits(cands), k, first=first)
    results = []
    with ordered_map(scan, range(k - 1, len(cands)), workers) as scanned:
        for i, result in enumerate(scanned):
            results.append(result)
            if progress is not None:
                progress(i, result[0])
            if first and result[2]:
                break
    return results


# -- public search operations ---------------------------------------------------

@dataclass(frozen=True)
class SearchReport:
    """Outcome of a counterexample search.

    ``graphs_examined`` counts the colex ranks covered, pruned subtrees
    included.  ``nodes_visited`` counts detector calls in the subtrees read,
    up to and including the one that holds the counterexample.  Every field
    is independent of the worker count.
    """

    outcome: str  # "exhausted" | "counterexample"
    graphs_examined: int
    nodes_visited: int
    unions_p4hat_free_with_excess: int
    counterexample: Graph | None
    counterexample_rank: int | None
    nonexistence_certified: bool


def counterexample_search(
    n: int,
    t: int,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> SearchReport:
    """Search all (t-2)-subsets of candidates for a p4hat-free union.

    "exhausted" means every union contained the forbidden pattern; together
    with the single-triangle-block fallback this certifies that no n-vertex
    p4hat-free graph holds >= t triangles whenever t > floor(n^2/8)
    (reported as ``nonexistence_certified``).  A found union is returned as
    the counterexample with the least colex rank; ``graphs_examined`` is
    then the number of ranks up to and including it.  The report is
    identical for every worker count.
    """
    if not 5 <= n <= SEARCH_MAX_VERTICES:
        raise GuardError(f"counterexample_search supports 5 <= n <= {SEARCH_MAX_VERTICES}")
    if t < 3:
        raise GuardError(f"target triangle count must be >= 3, got {t}")

    cands = candidate_triangles(n)
    k = t - 2

    results = _scan_subtrees(True, n, cands, k, workers, progress)
    nodes = sum(r[1] for r in results)

    if results and results[-1][2]:
        winner_rank, rows = results[-1][2][0]
        graph = Graph(n, rows)
        excess = 1 if count_triangles(graph) > t else 0
        return SearchReport(
            "counterexample", winner_rank + 1, nodes, excess, graph, winner_rank, False
        )

    examined = sum(r[0] for r in results)
    total = comb(len(cands), k)
    if examined != total:
        raise AssertionError(f"exhausted scan examined {examined} of {total} subsets")
    return SearchReport("exhausted", examined, nodes, 0, None, None, t > n * n // 8)


def exhaustive_oracle(n: int) -> tuple[int, list[Graph]]:
    """Exact extremum over all labeled graphs on n vertices (n <= 7).

    Walks the 2^C(n,2) edge subsets in Gray-code order, maintaining the
    triangle count incrementally, and keeps every p4hat-free maximizer.
    Maximizers are reduced to edge-minimal form and deduplicated by
    canonical form.
    """
    if not 1 <= n <= EXHAUSTIVE_MAX_VERTICES:
        raise GuardError(f"exhaustive_oracle supports n <= {EXHAUSTIVE_MAX_VERTICES}, got {n}")
    edges = list(combinations(range(n), 2))
    rows = [0] * n
    t = best = 0
    winners = [tuple(rows)]  # the empty graph: p4hat-free, no triangles
    for s in range(1, 1 << len(edges)):
        u, v = edges[(s & -s).bit_length() - 1]
        delta = (rows[u] & rows[v]).bit_count()
        t += -delta if rows[u] >> v & 1 else delta
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        if t >= best and not _rows_contain_suspension(rows, n):
            if t > best:
                best = t
                winners = [tuple(rows)]
            else:
                winners.append(tuple(rows))
    forms = {canonical_form(edge_minimal_reduction(Graph(n, w))) for w in winners}
    return best, [decode_graph6(f) for f in sorted(forms)]


def enumerate_extremal_configs(n: int, ex_value: int, workers: int = 1) -> list[Graph]:
    """All extremal configurations with exactly ``ex_value`` triangles.

    Every configuration with two triangles sharing an edge comes from the
    seeded subset scan, filtered to exactly ``ex_value`` triangles; the
    result is edge-minimal, deduplicated by canonical form, and sorted.

    The guard 2 * ex_value >= floor(n^2/4) leaves no other kind.  Removing
    one edge from each of t pairwise edge-disjoint triangles leaves a
    triangle-free graph with at least 2t edges, so 2t <= floor(n^2/4)
    (Mantel).  Equality forces K_{floor(n/2),ceil(n/2)}; each removed edge
    lies inside one part, so in >= floor(n/2) >= 2 triangles: not disjoint.
    """
    if not 5 <= n <= EXTREMAL_MAX_VERTICES:
        raise GuardError(f"config enumeration supports 5 <= n <= {EXTREMAL_MAX_VERTICES}")
    if 2 * ex_value < n * n // 4:
        raise GuardError(f"config enumeration needs 2 * ex_value >= {n * n // 4}, got {ex_value}")

    cands = candidate_triangles(n)
    forms: set[bytes] = set()

    for _, _, hits in _scan_subtrees(False, n, cands, ex_value - 2, workers):
        for _, rows in hits:
            graph = Graph(n, rows)
            if count_triangles(graph) == ex_value:
                forms.add(canonical_form(graph))

    return [decode_graph6(f) for f in sorted(forms)]


def extremal_value(n: int, workers: int = 1) -> tuple[int, list[Graph]]:
    """ex(n) and all edge-minimal extremal configurations up to isomorphism.

    n <= 7 delegates to the exhaustive oracle.  n = 8 certifies the upper
    bound by exhausting the t = 9 search, realizes the lower bound with the
    bipartite-plus-matching construction, then enumerates configurations.
    """
    if not 1 <= n <= EXTREMAL_MAX_VERTICES:
        raise GuardError(f"extremal_value supports n <= {EXTREMAL_MAX_VERTICES}, got {n}")
    if workers < 1:
        raise GuardError(f"worker count must be >= 1, got {workers}")
    if n <= EXHAUSTIVE_MAX_VERTICES:
        return exhaustive_oracle(n)

    bound = n * n // 8
    report = counterexample_search(n, bound + 1, workers=workers)
    if report.outcome != "exhausted" or not report.nonexistence_certified:
        raise AssertionError(f"upper-bound search for n={n} did not certify; got {report.outcome}")
    witness = bipartite_matching(n)
    if count_triangles(witness) != bound or _rows_contain_suspension(witness.adj, n):
        raise AssertionError("lower-bound construction failed verification")
    return bound, enumerate_extremal_configs(n, bound, workers=workers)
