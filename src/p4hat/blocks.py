"""Triangle-block decomposition, block classification, and the Mantel reduction.

Two edges are triangle-connected when a chain of triangles, consecutive ones
sharing an edge, links them.  A block is an edge-maximal triangle-connected
subgraph; blocks of any graph are pairwise edge-disjoint.  In a p4hat-free
graph every block is a complete graph on 4 vertices or a book (s triangles
on a common base edge); anything else is classified ``Other`` so that
arbitrary inputs can still be described.

``decompose`` finds the blocks in one walk over the edges in lexicographic
order.  An edge whose endpoints share no neighbour lies in no triangle and
is a stray; any other edge not yet placed starts a block.  Placed edges are
marked in one bitmask per vertex, symmetrically, so a block grows by masks:
for each edge (a, b) it holds, the common neighbours C = N(a) & N(b) give
the edges a·w and b·w (w in C) of every triangle on (a, b), and
``C & ~placed[a]`` (likewise for b) is exactly the new ones, so each edge
is placed once rather than once per triangle that reaches it.  Every
triangle on a block's edges lies wholly in the block, so |C| is the number
of the block's triangles on (a, b): the counts summed over the block's
edges are three times its triangle count.  A block shaped like a book with
t pages (2t + 1 edges on t + 2 vertices) is one exactly when some edge has
t common neighbours, and that edge is the base; for t = 1 every edge does,
and the least is taken.  So the block is classified from what the walk
collected, with no subgraph rebuilt and no triangle listed;
``classify_block`` is the same classification for an edge set from
outside.

Deleting each book's base edge (for single-triangle books: its
lexicographically least edge, fixed for reproducibility) leaves a
triangle-free graph with exactly two surviving edges per original triangle.
Mantel's bound on the survivor then caps the triangle count of any K4-free
p4hat-free graph at floor(n^2/8).
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (
    MAX_VERTICES,
    Edge,
    Graph,
    GraphError,
    _bits,
    _edge_pairs,
    count_triangles,
    find_k4,
    from_edges,
)
from .patterns import SuspensionWitness, contains_suspension_p4


class Block(NamedTuple):
    """One triangle block: its edge set, classification, and counts."""

    kind: str  # "K4" | "Book" | "Other"
    pages: int | None  # s for Book blocks
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    triangle_count: int
    base: Edge | None  # Book base; for s=1 the deterministic deletion choice


class BlockDecomposition(NamedTuple):
    blocks: tuple[Block, ...]
    stray_edges: tuple[Edge, ...]  # edges lying in no triangle

    def kinds(self) -> list[str]:
        return [b.kind for b in self.blocks]


class BlockPreconditionError(ValueError):
    """Input violated a K4-free / p4hat-free precondition; carries the witness."""

    def __init__(self, message: str, *, k4: tuple[int, ...] | None = None,
                 witness: SuspensionWitness | None = None):
        super().__init__(message)
        self.k4 = k4
        self.witness = witness


def classify_block(edges) -> Block:
    """Classify a triangle-connected edge set as K4, Book(s), or Other; as in
    ``from_edges``, an edge named twice, in either orientation, is one edge."""
    edges = list(edges)
    if not edges:
        raise GraphError("classify_block needs at least one edge")
    labels = [v for e in edges for v in e]
    # a label that is not an int in range keeps n at the cap for from_edges to name
    ok = all(type(v) is int and 0 <= v < MAX_VERTICES for v in labels)
    sub = from_edges(max(labels) + 1 if ok else MAX_VERTICES, edges)
    verts = tuple(v for v, row in enumerate(sub.adj) if row)
    return _classify(sub.adj, verts, tuple(sub.edges()), count_triangles(sub))


def _classify(adj: tuple[int, ...], verts: tuple[int, ...], edges: tuple[Edge, ...],
              t: int) -> Block:
    """Classify a block from its sorted vertices and edges and its triangle
    count ``t``, given rows ``adj`` in which the common neighbours of each
    block edge are the third vertices of the block's triangles on it."""
    nv, ne = len(verts), len(edges)

    if nv == 4 and ne == 6 and t == 4:
        return Block("K4", None, verts, edges, t, None)

    if t >= 1 and ne == 2 * t + 1 and nv == t + 2:
        # the base lies in all t triangles; for t = 1 every edge does, and
        # the least is taken
        for x, y in edges:
            if (adj[x] & adj[y]).bit_count() == t:
                return Block("Book", t, verts, edges, t, (x, y))

    return Block("Other", None, verts, edges, t, None)


def decompose(g: Graph) -> BlockDecomposition:
    """Partition the triangle-carrying edges into classified triangle blocks.

    One pass over the edges in lexicographic order (see the module
    docstring), so blocks come out ordered by their least edge and strays
    in lexicographic order.  Every triangle on a block's edges shares an
    edge with the block and so lies wholly in it, so the common neighbours
    of a block edge in ``g`` are the third vertices of the block's
    triangles on that edge.
    """
    adj = g.adj
    placed = [0] * g.n  # bit y of placed[x]: edge {x, y} is in a block
    blocks = []
    strays = []
    for u, v in _edge_pairs(adj):
        if not adj[u] & adj[v]:
            strays.append((u, v))
        elif not placed[u] >> v & 1:
            placed[u] |= 1 << v
            placed[v] |= 1 << u
            blocks.append(_grow_block(adj, placed, u, v))
    return BlockDecomposition(tuple(blocks), tuple(strays))


def _grow_block(adj: tuple[int, ...], placed: list[int], u: int, v: int) -> Block:
    """The block of the placed edge (u, v); places every edge it adds."""
    edges = [(u, v)]
    vmask = 1 << u | 1 << v
    incidences = 0  # triangle-edge incidences: three per triangle
    for a, b in edges:  # the list grows as the loop runs: a breadth-first walk
        common = adj[a] & adj[b]
        vmask |= common
        incidences += common.bit_count()
        for x in a, b:
            new = common & ~placed[x]  # edges {x, w} not yet in a block
            placed[x] |= new
            xbit = 1 << x
            while new:
                w = new.bit_length() - 1
                new ^= 1 << w
                placed[w] |= xbit
                edges.append((x, w) if x < w else (w, x))
    edges.sort()
    return _classify(adj, tuple(_bits(vmask)), tuple(edges), incidences // 3)


def _require_k4_free_p4hat_free(g: Graph) -> None:
    quad = find_k4(g)
    if quad is not None:
        raise BlockPreconditionError(f"graph contains a K4 on {quad}", k4=quad)
    witness = contains_suspension_p4(g)
    if witness is not None:
        raise BlockPreconditionError(
            f"graph contains the forbidden pattern at apex {witness.apex}",
            witness=witness,
        )


def base_edge_reduction(g: Graph) -> Graph:
    """Delete each book's base edge; requires a K4-free, p4hat-free input.

    The result keeps exactly the triangle-carrying edges minus one base per
    book, so it is triangle-free with two edges per original triangle.
    Edges outside every triangle are dropped as well, keeping the edge
    count exactly 2 * t(G) even for inputs that are not edge-minimal.
    """
    _require_k4_free_p4hat_free(g)
    dec = decompose(g)
    keep: list[Edge] = []
    for block in dec.blocks:
        if block.kind != "Book":
            raise AssertionError(f"unexpected {block.kind} block in a K4-free p4hat-free graph")
        keep.extend(e for e in block.edges if e != block.base)
    return from_edges(g.n, keep)


class K4FreeBoundReport(NamedTuple):
    n: int
    triangles: int
    reduced_edges: int
    reduced_triangle_free: bool
    halves_match: bool  # t(G) == e(G') / 2
    mantel_ok: bool  # e(G') <= floor(n^2 / 4)
    bound_ok: bool  # t(G) <= floor(n^2 / 8)

    @property
    def passed(self) -> bool:
        return (
            self.reduced_triangle_free
            and self.halves_match
            and self.mantel_ok
            and self.bound_ok
        )


def verify_k4free_bound(g: Graph) -> K4FreeBoundReport:
    """Audit the triangle-count bound through the base-edge reduction."""
    t = count_triangles(g)
    reduced = base_edge_reduction(g)
    e_red = reduced.edge_count()
    return K4FreeBoundReport(
        n=g.n,
        triangles=t,
        reduced_edges=e_red,
        reduced_triangle_free=count_triangles(reduced) == 0,
        halves_match=2 * t == e_red,
        mantel_ok=e_red <= g.n * g.n // 4,
        bound_ok=t <= g.n * g.n // 8,
    )
