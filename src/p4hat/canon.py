"""Canonical labeling and isomorphism testing for small graphs.

The canonical form of a graph is the minimum graph6 encoding over all
vertex orderings compatible with an iteratively refined degree partition.
Restricting to partition-respecting orderings is sound because the
partition is an isomorphism invariant.  The search builds that encoding
column by column and returns the least stream it built, packed.

Twins are placed once per depth.  Vertices v and w are twins when they
agree on every other vertex: adj[v] minus w equals adj[w] minus v.  The
relation depends on the graph alone, so it is computed once, as a bitmask
of twins per vertex.  Let w be a candidate already tried at depth k, and
v a later candidate that is its twin.  Neither is placed before depth k,
so swapping them is an automorphism that fixes every vertex placed there.
It preserves the refined partition, and it maps each placement that puts
v at depth k onto one that puts w there, with the same adjacency columns.
So v's subtree streams exactly what w's did, and skipping it leaves the
minimum, and so the form, unchanged.  This collapses the searches of
cliques, empty graphs, books and complete bipartite graphs, whose
symmetry is all twin swaps, and keeps every graph this package needs
(extremal configurations on at most 12 vertices) fast.  Beyond 12
vertices a guard trips rather than letting the search degrade.
"""

from __future__ import annotations

from .graphs import Graph, _bits, _check_int, _graph6_bytes

CANON_MAX_VERTICES = 12


def _refined_classes(g: Graph) -> list[list[int]]:
    """Vertex classes under iterated neighbor-color refinement, in canonical order."""
    n, adj = g.n, g.adj
    color = [adj[v].bit_count() for v in range(n)]
    for _ in range(n):
        sig = [
            (color[v], tuple(sorted(color[u] for u in _bits(adj[v]))))
            for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [rank[s] for s in sig]
        if new == color:
            break
        color = new
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(color[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def canonical_form(g: Graph) -> bytes:
    """Canonical graph6 bytes; equal bytes certify isomorphism.

    Searches placements position by position, comparing the adjacency
    column each new vertex contributes against the best stream found so
    far and pruning anything provably worse.  Each vertex's column is
    carried down the search, not recomputed.  At the end ``best[k]`` is
    position k's k-bit column in the least placement, position 0 most
    significant: graph6's column order, so the form is ``best[1..n-1]``.
    """
    _check_int("canonical_form's n", g.n, 1, CANON_MAX_VERTICES)
    n, adj = g.n, g.adj
    class_at = [cls for cls in _refined_classes(g) for _ in cls]  # position -> its class
    twins = [sum(1 << w for w in range(n) if w != v and adj[v] & ~(1 << w) == adj[w] & ~(1 << v))
             for v in range(n)]
    # above every column, so a branch whose column drops always reaches n
    inf = 1 << n
    best = [inf] * n

    def dfs(k: int, used: int, cols: list[int]) -> None:
        if k == n:
            return
        tried = 0
        for col, v in sorted((cols[v], v) for v in class_at[k] if not used >> v & 1):
            if col > best[k]:
                break
            if twins[v] & tried:
                continue
            tried |= 1 << v
            if col < best[k]:
                best[k:] = [col] + [inf] * (n - k - 1)
            av = adj[v]
            dfs(k + 1, used | 1 << v, [c << 1 | av >> w & 1 for w, c in enumerate(cols)])

    dfs(0, 0, [0] * n)
    bits = 0
    for k in range(1, n):
        bits = bits << k | best[k]
    return _graph6_bytes(n, bits)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    return canonical_form(g) == canonical_form(h)
