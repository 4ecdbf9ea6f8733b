"""Shared test helpers: independent oracles and random-graph samplers."""

from __future__ import annotations

import random
import subprocess
import sys
from itertools import combinations, permutations
from math import comb

import pytest

from p4hat import (
    BlockDecomposition,
    Graph,
    GraphError,
    LoopEdgeError,
    VertexCountError,
    VertexRangeError,
    encode_graph6,
    from_edges,
    pool,
    union_of_triangles,
)
from p4hat.blocks import Block
from p4hat.canon import _refined_classes
from p4hat.graphs import MAX_VERTICES, _bits, triangle_edges
from p4hat.patterns import _rows_contain_suspension
from p4hat.search import _row_bits, _scan


def naive_triangle_count(g: Graph) -> int:
    """Triple-loop reference count, independent of the bitmask path."""
    count = 0
    for a, b, c in combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            count += 1
    return count


def permuted(g: Graph, perm: list[int]) -> Graph:
    """Relabeled copy: vertex v becomes perm[v]."""
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def brute_min_form(g: Graph) -> bytes:
    """Minimum graph6 over all n! relabelings; oracle for canonical_form."""
    best = None
    for perm in permutations(range(g.n)):
        enc = encode_graph6(permuted(g, list(perm)))
        if best is None or enc < best:
            best = enc
    assert best is not None
    return best


def reference_canonical_form(g: Graph) -> bytes:
    """``canonical_form``'s search without its twin rule: every candidate of
    a depth's best column is placed.  Oracle for the twin rule on graphs
    small or asymmetric enough for it to finish."""
    n, adj = g.n, g.adj
    class_at: list[list[int]] = []
    for cls in _refined_classes(g):
        class_at.extend([cls] * len(cls))

    inf = 1 << n
    best = [inf] * n
    placed = [0] * n
    used = [False] * n
    best_perm: list[int] = []

    def dfs(k: int) -> None:
        if k == n:
            best_perm[:] = placed
            return
        cands = []
        for v in class_at[k]:
            if used[v]:
                continue
            col = 0
            for i in range(k):
                col = col << 1 | (adj[v] >> placed[i] & 1)
            cands.append((col, v))
        cands.sort()
        for col, v in cands:
            if col > best[k]:
                break
            if col < best[k]:
                best[k] = col
                for j in range(k + 1, n):
                    best[j] = inf
            placed[k] = v
            used[v] = True
            dfs(k + 1)
            used[v] = False

    dfs(0)
    return encode_graph6(from_edges(n, [
        (i, j) for i in range(n) for j in range(i + 1, n) if adj[best_perm[i]] >> best_perm[j] & 1
    ]))


def reference_validate(n, adj) -> None:
    """``Graph``'s checks as an ordered scan: the row checks vertex by
    vertex, then every set bit's mirror.  Oracle for the one-pass check
    on non-negative rows."""
    if not isinstance(n, int) or not 1 <= n <= MAX_VERTICES:
        raise VertexCountError(f"vertex count must be in 1..{MAX_VERTICES}, got {n!r}")
    if len(adj) != n:
        raise GraphError(f"adjacency has {len(adj)} rows for n={n}")
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row >> v & 1:
            raise LoopEdgeError(f"loop at vertex {v}")
        if row & ~full:
            raise VertexRangeError(f"row {v} has neighbor bits at or above n={n}")
    for v, row in enumerate(adj):
        while row:
            low = row & -row
            u = low.bit_length() - 1
            if not adj[u] >> v & 1:
                raise GraphError(f"adjacency not symmetric at ({u}, {v})")
            row ^= low


def reference_decompose(g: Graph) -> BlockDecomposition:
    """``decompose`` walking triangles: each edge of a block visits every
    triangle on it and places the triangle's other two edges, and the block
    is classified from the triangles collected, its base read as the one
    edge they all share.  Oracle for the mask-grown walk."""
    adj = g.adj
    placed = [0] * g.n
    blocks = []
    strays = []
    for u, ru in enumerate(adj):
        above = ru >> (u + 1) << (u + 1)
        while above:
            low = above & -above
            above ^= low
            v = low.bit_length() - 1
            if not ru & adj[v]:
                strays.append((u, v))
            elif not placed[u] & low:
                placed[u] |= low
                edges = [(u, v)]
                tris = []
                vmask = 1 << u | 1 << v
                for a, b in edges:
                    common = adj[a] & adj[b]
                    vmask |= common
                    while common:
                        wbit = common & -common
                        common ^= wbit
                        w = wbit.bit_length() - 1
                        if w > b:
                            tris.append((a, b, w))
                        for x, y in ((a, w) if a < w else (w, a), (b, w) if b < w else (w, b)):
                            if not placed[x] >> y & 1:
                                placed[x] |= 1 << y
                                edges.append((x, y))
                edges.sort()
                blocks.append(_reference_classify(tuple(_bits(vmask)), tuple(edges), tris))
    return BlockDecomposition(tuple(blocks), tuple(strays))


def _reference_classify(verts, edges, tris) -> Block:
    t = len(tris)
    nv, ne = len(verts), len(edges)
    if nv == 4 and ne == 6 and t == 4:
        return Block("K4", None, verts, edges, t, None)
    if t >= 1 and ne == 2 * t + 1 and nv == t + 2:
        if t == 1:
            return Block("Book", 1, verts, edges, 1, min(triangle_edges(tris[0])))
        common = set(triangle_edges(tris[0]))
        for tri in tris[1:]:
            common &= set(triangle_edges(tri))
        if len(common) == 1:
            return Block("Book", t, verts, edges, t, common.pop())
    return Block("Other", None, verts, edges, t, None)


def attachment_classes(n: int) -> list[tuple[int, ...]]:
    """The maximal attachment classes on n >= 4 vertices: the partitions of
    n - 4 into at most four parts, each >= 2, largest part first, in
    decreasing lexicographic order; only the empty class when n - 4 <= 1."""
    def partitions(rest, largest, parts):
        if rest == 0:
            yield parts
        elif len(parts) < 4:
            for p in range(min(rest, largest), 1, -1):
                yield from partitions(rest - p, p, parts + (p,))

    return list(partitions(n - 4, n - 4, ())) or [()]


def class_candidates(n: int, parts: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Triangles admissible next to the K4 on S = {0,1,2,3} in the class
    ``parts``, in lexicographic order: u_i·x·y for x, y in X_i, where
    X_0, X_1, ... are consecutive runs of 4..n-1 of the sizes in ``parts``,
    and every triple of outer vertices."""
    owner = [i for i, size in enumerate(parts) for _ in range(size)]
    owner = [None] * 4 + owner + [None] * (n - 4 - len(owner))
    return [(a, b, c) for a, b, c in combinations(range(n), 3)
            if a >= 4 or (b >= 4 and owner[b] == owner[c] == a)]


def class_route_hits(n: int, t: int) -> list[tuple[int, ...]]:
    """Second route for the K4-rooted scan, t >= 5: the K4 on 0123 unioned
    with every (t - 4)-subset of each maximal attachment class's candidates.

    A p4hat-free graph with a K4 on S has its triangles beyond the K4's four
    among u_i·x·y (x, y in X_i) and the outer triples; moving a vertex that
    is alone in its X_i or in no X_i into a part of size >= 2 loses no
    triangle, so one maximal class covers it.  Returns the adjacency rows
    of every p4hat-free union, class by class in colex order, after checking
    that each class examined all its subsets.
    """
    k4 = union_of_triangles(n, combinations(range(4), 3)).adj
    hits = []
    for parts in attachment_classes(n):
        cands = class_candidates(n, parts)
        examined = 0
        for top in range(t - 5, len(cands)):
            top_examined, _, top_hits = _scan(k4, _row_bits(cands), t - 4, top, False)
            examined += top_examined
            hits += [rows for _, rows in top_hits]
        assert examined == comb(len(cands), t - 4), (n, t, parts)
    return hits


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def _free_probability_options(n: int) -> tuple[float, ...]:
    if n <= 6:
        return (0.3, 0.5, 0.8)
    if n <= 9:
        return (0.2, 0.35, 0.5)
    return (0.12, 0.2, 0.3)


def sample_p4hat_free(rng: random.Random, count: int, n_max: int = 12) -> list[Graph]:
    """Rejection-sample graphs with no forbidden pattern."""
    out: list[Graph] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 400 * count:
            raise AssertionError("rejection sampling stalled")
        n = rng.randint(1, n_max)
        g = random_graph(rng, n, rng.choice(_free_probability_options(n)))
        if not _rows_contain_suspension(g.adj, g.n):
            out.append(g)
    return out


# development mode with every warning an error, but one.  From Python 3.12
# a fork in a process with threads warns, and os.fork clears that warning
# once -W error has made it an exception, so the last filter shows it
PYTHON_FLAGS = ("-X", "dev", "-W", "error", "-W", "always:This process:DeprecationWarning")
THREADED_FORK = "is multi-threaded"  # in the text of that warning


def run_cli(*args: str, stdin_text: str | None = None) -> tuple[int, bytes, str]:
    """Run ``python -m p4hat *args`` with ``PYTHON_FLAGS``, failing if it
    forked in a process with threads; return its exit code, stdout and
    stderr."""
    proc = subprocess.run(
        [sys.executable, *PYTHON_FLAGS, "-m", "p4hat", *args],
        input=stdin_text.encode() if stdin_text is not None else None,
        capture_output=True,
    )
    err = proc.stderr.decode()
    assert THREADED_FORK not in err, err
    return proc.returncode, proc.stdout, err


@pytest.fixture
def pool_sizes(monkeypatch) -> list[int]:
    """Replace the pool's forked workers with a stand-in that starts no
    process: it maps each item here, in order, and records the process count
    every pool asks for in the returned list.  The fork budget is 0, so
    every map of more than one item with more than one worker asks for a
    pool at once."""
    requested: list[int] = []

    class InProcessWorkers:
        def __init__(self, fn, processes):
            requested.append(processes)
            self.fn = fn

        def in_order(self, items, window, start):
            return map(self.fn, items)

        def close(self):
            pass

    monkeypatch.setattr(pool, "_Workers", InProcessWorkers)
    monkeypatch.setattr(pool, "FORK_BUDGET_S", 0)
    return requested
