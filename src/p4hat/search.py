"""Pruned exhaustive searches for triangle-rich p4hat-free graphs on small n.

Two routes certify that no n-vertex p4hat-free graph holds t or more
triangles, for t > floor(n^2/8).  Each unions a seed graph with every
k-subset of a candidate triangle list, through one kernel, ``_scan``, and
looks for a p4hat-free union.  Every union carries at least t triangles by
construction, so a p4hat-free union is a counterexample, and exhausting
every subset certifies that none exists.

The K4 route
------------
``certify_upper_bound`` and ``enumerate_extremal_configs`` seed the scan
with a K4 on S = {0, 1, 2, 3} and every triangle through it.  Two facts and
four steps make that sound.

(a) A p4hat-free graph G with t(G) > floor(n^2/8) contains a K4.  First,
    every triangle block of a p4hat-free graph is a K4 or a book.  A block
    that is not a book has two pages abx, abz on some edge ab and, being
    triangle-connected, a triangle axy (y != b) not on ab that shares an
    edge with one of them, named so that it is ax.  If y != z, apex a sees
    the path y-x-b-z.  If y = z, the triangles abx, abz and axz span a K4,
    and if the block is more than that K4, some triangle uvw of it has an
    edge uv in the K4 {u, v, p, q} and w outside, so apex u sees the path
    w-v-p-q.  Either way a block that is neither a K4 nor a book puts the
    pattern on five of its vertices, so a violation on any n yields one on
    <= 5 vertices, where ``test_lemma_block_classification`` checks every
    graph (n <= 6).  So a K4-free p4hat-free graph has only books.  Every
    triangle contains its book's base, so deleting the bases leaves a
    triangle-free graph that keeps two edges per triangle, and Mantel gives
    2t(G) <= floor(n^2/4).
(b) Relabel a K4 of G to S and let X_i = N(u_i) - S.  A vertex x in X_i and
    X_j gives apex u_i the path x-u_j-u_k-u_l, so the X_i are pairwise
    disjoint.  Hence every triangle other than the K4's four has at most one
    vertex in S, and if it has u_i its other two vertices lie in X_i.

Let G be p4hat-free with t(G) >= t > floor(n^2/8), reduced to the union
of its triangles; that keeps its triangles, keeps it p4hat-free and, by (a),
keeps a K4, relabeled to S.

1. By (b), t(G) = 4 + e + t(G - S), e = sum e(G[X_i]): each edge xy of
   G[X_i] makes the one triangle u_i·x·y, and each triangle on u_i is one.
2. Apex u_i sees any 4-vertex path of G[X_i], so its components are
   triangles, stars and lone vertices (``bounds.neighborhood_structure``).
3. None is a lone vertex: the edge u_i·x lies in a triangle u_i·x·w, and w
   is in X_i, since w = u_j would put x in X_j.
4. Up to relabeling, G thus holds a seed: the K4, a triangles-and-stars
   graph with no isolated vertex on each X_i, each u_i joined to all of
   X_i, the X_i consecutive runs from 4.  G has no other edge inside an
   X_i, so its triangles in G - S are candidates: outer triples with no
   non-seed edge inside one X_i, where two outer vertices share an X_i
   exactly when they share a neighbour in S.

Seeds are taken up to permuting S, with sum |X_i| <= n - 4.  Scanning the
k-subsets of a seed's candidates, k = t - 4 - e, meets the seed plus k of
G's triangles in G - S: a subgraph of G with >= t triangles, hence
p4hat-free, and a hit.  With k <= 0 the seed is its own one union.  The
route misses K4-free graphs, so it refuses t <= floor(n^2/8).  At n = 8,
t = 9 it visits 10 nodes over 7 seeds.

The pair route
--------------
``counterexample_search`` fixes two triangles sharing an edge as 012, 013
instead.  By (a) a graph with t > floor(n^2/8) triangles has two that
share an edge.  Triangles that force the pattern next to the fixed pair,
those with an edge in {02, 03, 12, 13} and a vertex outside {0,1,2,3}, are
dropped from the candidates (16 of the 56 triples for n = 8, leaving 38),
and the scan takes (t-2)-subsets.  At n = 8, t = 9 it visits 19,921 nodes
instead of testing 12,620,256 leaves, and ``graphs_examined`` counts the
colex ranks covered, pruned subtrees included, so an exhausted scan
accounts for every subset.

The kernel
----------
Subsets are enumerated in colexicographic rank order.  The unit of work is
one subtree of one seed: all subsets whose largest candidate is m, the rank
block [C(m, k), C(m + 1, k)).  Both routes go through one driver,
``_scan_seeds``, which scans its seeds in order and each seed's subtrees in
increasing m, by one process or a pool, and reads their results in that
order; a "first" search stops reading at the first subtree with a hit, so
every result is independent of the worker count.  Each subtree is a
depth-first walk that adds one triangle per level; every node holds its own
union's adjacency rows, its parent's with the new triangle's edges OR-ed
in, so leaving a node undoes nothing.  Containing the pattern is monotone under adding edges, so
the walk tests the union at every node and skips the subtree below any node
whose union already contains it.

Configurations
--------------
A configuration with t triangles is an edge-minimal p4hat-free graph, the
union of its triangles.  One with a K4 is the union of the seed and the k
triangles in G - S of steps 1-4, which need the K4 but no bound on t, so
the K4 route's scan in "collect" mode, filtered to unions with exactly t
triangles, yields every one.  By (a) a K4-free one has 2t <= floor(n^2/4).
At equality it is forced: deleting the bases of its books leaves a
triangle-free graph with 2t edges, which Mantel's equality case makes
K_{floor(n/2),ceil(n/2)}.  Each base lies inside a part, with a page
through every vertex of the other part.  Bases in both parts would span a
K4, and two bases sharing a vertex give the pattern, so the bases are a
matching of one part, and t pages force a perfect matching of an even
part: ``bipartite_matching(n)``.  An oracle over all labeled graphs covers
n <= 7.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Callable, Iterable, NamedTuple, Sequence

from .canon import canonical_form
from .constructions import bipartite_matching
from .graphs import (
    Graph,
    GuardError,
    Triangle,
    count_triangles,
    decode_graph6,
    edge_minimal_reduction,
    from_edges,
    triangle_edges,
    union_of_triangles,
)
from .patterns import _rows_contain_suspension
from .pool import check_workers, ordered_map

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


# -- the pruned colex scan ------------------------------------------------------

def _row_bits(tris: Sequence[Triangle]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per triangle, each vertex with the row bits of the other two."""
    return tuple(((a, 1 << b | 1 << c), (b, 1 << a | 1 << c), (c, 1 << a | 1 << b))
                 for a, b, c in tris)


def _scan(seed, cand_bits, k, top, first):
    """Walk the subtree of k-subsets of candidates whose largest element is
    ``top``: the colex ranks [C(top, k), C(top + 1, k)), on the
    n = len(seed) vertices of the seed's adjacency rows.

    Subset elements are chosen from the largest down, so subsets are met in
    colex order: choosing element m at level j spans the ranks
    [base + C(m, j), base + C(m + 1, j)).  A node's union is the seed
    plus the triangles chosen so far: a copy of its parent's rows with
    triangle m's bits OR-ed in.  Every union is tested; adding triangles
    never removes the pattern, so a node whose union contains it is skipped
    with its whole subtree, whose C(m, j - 1) ranks still count as examined.
    A leaf whose union is p4hat-free is a hit.  ``first`` stops at the first
    hit; otherwise every hit is kept.

    Returns (examined, nodes, hits): ranks covered, detector calls, and the
    hits as (rank, adjacency rows) pairs in colex order.
    """
    n = len(seed)
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

    walk(k, (top,), 0, list(seed))
    return examined, nodes, hits


def _scan_seeds(scans, first, workers, progress=None):
    """Scan every (rows, candidates, k) seed of ``scans`` through one
    ``ordered_map`` of (seed, subtree) units, seeds in order and each
    seed's subtrees in increasing largest candidate, and return each seed's
    [examined, nodes, hits]: its ``_scan`` results summed.

    A pool never has more processes than units.  "first" mode ends the read
    at the first unit with a hit and sends no further unit, so the results
    never depend on the worker count.  ``progress(i, examined)`` is called
    as unit i is read.  A read that ends at no hit must have examined all
    C(len(candidates), k) subsets of every seed.
    """
    seeds = tuple((rows, _row_bits(cands), k) for rows, cands, k in scans)
    units = [(s, top) for s, (_, cands, k) in enumerate(scans)
             for top in range(k - 1, len(cands))]

    def scan(unit):
        rows, cand_bits, k = seeds[unit[0]]
        return _scan(rows, cand_bits, k, unit[1], first)

    results = [[0, 0, []] for _ in scans]
    with ordered_map(scan, units, workers) as scanned:
        for i, ((s, _), (examined, nodes, hits)) in enumerate(zip(units, scanned)):
            result = results[s]
            result[0] += examined
            result[1] += nodes
            result[2] += hits
            if progress is not None:
                progress(i, examined)
            if first and hits:
                return results
    for (_, cands, k), (examined, _, _) in zip(scans, results):
        if examined != comb(len(cands), k):
            raise AssertionError(f"exhausted scan examined {examined} of "
                                 f"{comb(len(cands), k)} subsets")
    return results


def _pair_seed(n, t):
    """The pair route's one seed for target t: the fixed pair's rows, its
    candidates and k = t - 2."""
    return union_of_triangles(n, FIXED_TRIANGLES).adj, candidate_triangles(n), t - 2


# -- the K4 route's seeds ---------------------------------------------------

def _x_graphs(size):
    """The graphs whose components are triangles and stars with at least one
    edge, on at most ``size`` vertices, one per isomorphism class, the empty
    graph first: each as (vertex count m, edges on 0..m-1)."""
    parts = [(c, [(0, j) for j in range(1, c)]) for c in range(2, size + 1)]
    parts.append((3, [(0, 1), (0, 2), (1, 2)]))

    def grow(first, m, edges):
        yield m, edges
        for i in range(first, len(parts)):
            c, part = parts[i]
            if m + c <= size:
                yield from grow(i, m + c, edges + [(m + a, m + b) for a, b in part])

    return list(grow(0, 0, []))


def _k4_seeds(n, t):
    """The K4 route's (rows, candidates, k) seeds on n >= 4 vertices for
    target t: the K4 on 0123 plus a multiset of four ``_x_graphs`` on X_0,
    X_1, ..., consecutive runs from 4, with each u_i joined to all of X_i.
    The candidates are the outer triples, in lexicographic order, whose
    pairs that share a neighbour in S are seed edges, and k = t - 4 - e for
    e edges inside the X_i.  A seed with k <= 0 scans the one 1-subset of
    its own triangle 012, so that its one union is the seed itself.
    """
    seeds = []
    for xs in combinations_with_replacement(_x_graphs(n - 4), 4):
        if sum(m for m, _ in xs) > n - 4:
            continue
        edges = list(combinations(range(4), 2))
        first = 4
        for u, (m, x_edges) in enumerate(xs):
            edges += [(u, first + x) for x in range(m)]
            edges += [(first + a, first + b) for a, b in x_edges]
            first += m
        rows = from_edges(n, edges).adj
        cands = [tri for tri in combinations(range(4, n), 3)
                 if all(rows[a] >> b & 1 or not rows[a] & rows[b] & 0b1111
                        for a, b in combinations(tri, 2))]
        k = t - 4 - sum(len(x_edges) for _, x_edges in xs)
        seeds.append((rows, cands, k) if k > 0 else (rows, [(0, 1, 2)], 1))
    return seeds


# -- public search operations ---------------------------------------------------

class SearchReport(NamedTuple):
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

    "exhausted" means every union contained the forbidden pattern.  When
    t > floor(n^2/8), fact (a) of the module docstring gives every
    p4hat-free graph with >= t triangles a K4, hence two triangles sharing
    an edge, so exhaustion certifies that no n-vertex p4hat-free graph holds
    >= t triangles (reported as ``nonexistence_certified``).  A found union
    is returned as the counterexample with the least colex rank;
    ``graphs_examined`` is then the number of ranks up to and including it.
    The report is identical for every worker count.
    """
    if not 5 <= n <= SEARCH_MAX_VERTICES:
        raise GuardError(f"counterexample_search supports 5 <= n <= {SEARCH_MAX_VERTICES}, got {n}")
    if t < 3:
        raise GuardError(f"target triangle count must be >= 3, got {t}")

    [(examined, nodes, hits)] = _scan_seeds([_pair_seed(n, t)], True, workers, progress)
    if hits:
        rank, rows = hits[0]
        graph = Graph(n, rows)
        excess = 1 if count_triangles(graph) > t else 0
        return SearchReport("counterexample", examined, nodes, excess, graph, rank, False)
    return SearchReport("exhausted", examined, nodes, 0, None, None, t > n * n // 8)


class CertificateReport(NamedTuple):
    """Outcome of the K4-rooted scan for (n, t).

    ``seeds`` lists the seed graphs in scan order, and ``nodes_per_seed``
    the detector calls in each seed's subtrees read.  The counterexample is
    the first hit in seed and subtree order.  Every field is independent of
    the worker count.
    """

    outcome: str  # "exhausted" | "counterexample"
    seeds: tuple[Graph, ...]
    nodes_per_seed: tuple[int, ...]
    counterexample: Graph | None


def certify_upper_bound(n: int, t: int, workers: int = 1) -> CertificateReport:
    """Decide whether some n-vertex p4hat-free graph holds >= t triangles,
    by the K4-rooted scan over the seeds built from the X_i graphs.

    By facts (a) and (b) of the module docstring and the four steps after
    them, such a graph with t > floor(n^2/8) holds a seed and t - 4 - e of
    its candidates, so "exhausted" certifies that none exists.  Below that
    bound the route would miss K4-free graphs, so t <= floor(n^2/8) raises
    ``GuardError``.
    """
    if not 4 <= n <= SEARCH_MAX_VERTICES:
        raise GuardError(f"certify_upper_bound supports 4 <= n <= {SEARCH_MAX_VERTICES}, got {n}")
    if t <= n * n // 8:
        raise GuardError(f"the K4 route needs t > floor(n^2/8) = {n * n // 8}, got {t}")
    scans = _k4_seeds(n, t)
    results = _scan_seeds(scans, True, workers)
    seeds = tuple(Graph(n, rows) for rows, _, _ in scans)
    nodes = tuple(result[1] for result in results)
    for _, _, hits in results:
        if hits:
            return CertificateReport("counterexample", seeds, nodes, Graph(n, hits[0][1]))
    return CertificateReport("exhausted", seeds, nodes, None)


def exhaustive_oracle(n: int) -> tuple[int, list[Graph]]:
    """Exact extremum over all labeled graphs on n vertices (n <= 7).

    Walks the 2^C(n,2) edge subsets in Gray-code order, maintaining the
    triangle count incrementally, and keeps every p4hat-free maximizer.
    Maximizers are reduced to edge-minimal form and deduplicated by
    canonical form.
    """
    if not 1 <= n <= EXHAUSTIVE_MAX_VERTICES:
        raise GuardError(f"exhaustive_oracle supports 1 <= n <= {EXHAUSTIVE_MAX_VERTICES}, got {n}")
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
    """All configurations with exactly ``ex_value`` triangles: edge-minimal,
    deduplicated by canonical form, and sorted.

    The K4 route's collect scan gives every one with a K4.  The guard
    2 * ex_value >= floor(n^2/4) leaves at most one without, and only at
    equality: ``bipartite_matching(n)``, added once its triangle count and
    freedom from the pattern are checked (module docstring,
    "Configurations").
    """
    if not 5 <= n <= EXTREMAL_MAX_VERTICES:
        raise GuardError(f"config enumeration supports 5 <= n <= {EXTREMAL_MAX_VERTICES}, got {n}")
    if 2 * ex_value < n * n // 4:
        raise GuardError(f"config enumeration needs 2 * ex_value >= {n * n // 4}, got {ex_value}")

    forms: set[bytes] = set()
    if 2 * ex_value == n * n // 4:
        forced = bipartite_matching(n)
        if count_triangles(forced) != ex_value or _rows_contain_suspension(forced.adj, n):
            raise AssertionError("the forced K4-free configuration failed verification")
        forms.add(canonical_form(forced))
    for _, _, hits in _scan_seeds(_k4_seeds(n, ex_value), False, workers):
        for _, rows in hits:
            graph = Graph(n, rows)
            if count_triangles(graph) == ex_value:
                forms.add(canonical_form(graph))
    return [decode_graph6(f) for f in sorted(forms)]


def extremal_value(n: int, workers: int = 1) -> tuple[int, list[Graph]]:
    """ex(n) and all edge-minimal extremal configurations up to isomorphism.

    n <= 7 delegates to the exhaustive oracle.  n = 8 takes b = floor(n^2/8):
    ``certify_upper_bound(n, b + 1)`` must exhaust, so ex(n) <= b, and the
    configurations are ``enumerate_extremal_configs(n, b)``, which must not
    be empty, so ex(n) = b.
    """
    if not 1 <= n <= EXTREMAL_MAX_VERTICES:
        raise GuardError(f"extremal_value supports 1 <= n <= {EXTREMAL_MAX_VERTICES}, got {n}")
    check_workers(workers)
    if n <= EXHAUSTIVE_MAX_VERTICES:
        return exhaustive_oracle(n)

    bound = n * n // 8
    if certify_upper_bound(n, bound + 1, workers).outcome != "exhausted":
        raise AssertionError(f"upper-bound scan for n={n} found a p4hat-free union "
                             f"with {bound + 1} triangles")
    configs = enumerate_extremal_configs(n, bound, workers)
    if not configs:
        raise AssertionError(f"no configuration at n={n} has {bound} triangles")
    return bound, configs
