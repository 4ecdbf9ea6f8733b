"""Compact immutable graphs with triangle primitives and graph6 I/O.

Vertices are labeled ``0..n-1`` and adjacency is stored as one integer
bitmask per vertex, so neighborhood intersection (the workhorse behind
triangle counting and pattern detection) is a single ``&``.  Graph values
are immutable after construction: every transforming operation returns a
new graph, which makes them safe to share across worker processes.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator

MAX_VERTICES = 256
GRAPH6_MAX_VERTICES = 62

Edge = tuple[int, int]
Triangle = tuple[int, int, int]


class GraphError(ValueError):
    """Base class for graph input-validation errors."""


class VertexCountError(GraphError):
    """Vertex count outside the supported 1..MAX_VERTICES range."""


class VertexRangeError(GraphError):
    """A vertex label is negative or >= n."""


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself."""


class Graph6Error(GraphError):
    """Malformed graph6 input (bad header, stray bits, trailing bytes)."""


class Graph6SizeError(Graph6Error):
    """graph6 requested for a graph too large for the single-byte header."""


class GuardError(ValueError):
    """A resource or size guard was exceeded; raised instead of degrading."""


def _bits(x: int) -> Iterator[int]:
    """Yield set-bit indices of x in ascending order."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


class Graph:
    """Simple undirected graph: vertex count plus per-vertex neighbor masks.

    The constructor checks the rows in one pass.  Each row must be a
    non-negative mask below ``1 << n`` with no loop bit, and the pass raises
    for the first row that is not.  It also counts the set bits, and the
    bits u of row v below the diagonal (u < v) that bit v of row u mirrors.
    Mirroring sends those lower entries one-to-one into the upper entries,
    so the set bits are twice the mirrored count exactly when every lower
    entry is mirrored and every upper entry is an image: exactly symmetry.
    Only when the counts differ are the rows read again, to name the first
    unmirrored pair in row order.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_VERTICES:
            raise VertexCountError(f"vertex count must be in 1..{MAX_VERTICES}, got {n!r}")
        if len(adj) != n:
            raise GraphError(f"adjacency has {len(adj)} rows for n={n}")
        mirrored = total = 0
        for v, row in enumerate(adj):
            if row >> v & 1 or row >> n:  # a loop, a bit at or above n, or a negative row
                if row < 0:
                    raise VertexRangeError(f"row {v} is negative: {row}")
                if row >> v & 1:
                    raise LoopEdgeError(f"loop at vertex {v}")
                raise VertexRangeError(f"row {v} has neighbor bits at or above n={n}")
            total += row.bit_count()
            low = row & (1 << v) - 1
            while low:
                u = low.bit_length() - 1
                mirrored += adj[u] >> v & 1
                low ^= 1 << u
        if 2 * mirrored != total:
            for v, row in enumerate(adj):
                for u in _bits(row):
                    if not adj[u] >> v & 1:
                        raise GraphError(f"adjacency not symmetric at ({u}, {v})")
        self.n = n
        self.adj = tuple(adj)

    # -- basic accessors ---------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[Edge]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for off in _bits(row):
                out.append((u, u + 1 + off))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.edge_count()})"


def from_edges(n: int, edges: Iterable[Edge]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse.

    Raises VertexCountError / VertexRangeError / LoopEdgeError for the
    corresponding invalid inputs.
    """
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_VERTICES:
        raise VertexCountError(f"vertex count must be in 1..{MAX_VERTICES}, got {n!r}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) leaves vertex range 0..{n - 1}")
        if u == v:
            raise LoopEdgeError(f"loop edge at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def count_triangles(g: Graph) -> int:
    """Number of vertex triples inducing a triangle."""
    t = 0
    adj = g.adj
    for u in range(g.n):
        ru = adj[u]
        for off in _bits(ru >> (u + 1)):
            v = u + 1 + off
            # common neighbors above v close each triangle exactly once
            above_v = adj[v] >> (v + 1) << (v + 1)
            t += (ru & above_v).bit_count()
    return t


def enumerate_triangles(g: Graph) -> list[Triangle]:
    """All triangles as sorted triples, in lexicographic order."""
    out = []
    adj = g.adj
    for u in range(g.n):
        ru = adj[u]
        for off in _bits(ru >> (u + 1)):
            v = u + 1 + off
            above_v = adj[v] >> (v + 1) << (v + 1)
            for w in _bits(ru & above_v):
                out.append((u, v, w))
    return out


def find_k4(g: Graph) -> tuple[int, int, int, int] | None:
    """Lexicographically least 4-set of vertices inducing a K4, or None."""
    adj = g.adj
    for a in range(g.n):
        ra_hi = adj[a] >> (a + 1) << (a + 1)
        for b in _bits(ra_hi):
            comm_ab = ra_hi & adj[b] >> (b + 1) << (b + 1)
            for c in _bits(comm_ab):
                comm = comm_ab & adj[c] >> (c + 1) << (c + 1)
                if comm:
                    return a, b, c, (comm & -comm).bit_length() - 1
    return None


def edge_minimal_reduction(g: Graph) -> Graph:
    """Delete every edge that lies in no triangle.

    A single pass suffices: an edge outside all triangles cannot belong to
    a triangle supporting some other edge, so removals never interact.  The
    triangle set of the result equals that of the input.
    """
    adj = g.adj
    rows = list(adj)
    for u in range(g.n):
        for off in _bits(adj[u] >> (u + 1)):
            v = u + 1 + off
            if not adj[u] & adj[v]:
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def triangle_edges(t: Triangle) -> tuple[Edge, Edge, Edge]:
    a, b, c = t
    return ((a, b), (a, c), (b, c))


def union_of_triangles(n: int, ts: Iterable[Iterable[int]]) -> Graph:
    """Graph whose edge set is the union of the given triangles' edges.

    The triples may list their vertices in any order; ``from_edges`` rejects
    a repeated vertex as a loop and a label outside 0..n-1 as out of range.
    """
    return from_edges(n, [e for t in ts for e in triangle_edges(t)])


def neighborhood_subgraph(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on N(v), plus the map from new labels back to old.

    Returns ``(h, labels)`` where ``labels[i]`` is the original label of
    vertex ``i`` of ``h``.  Raises GraphError for an isolated vertex, since
    the empty induced subgraph is not a representable Graph value.
    """
    if not 0 <= v < g.n:
        raise VertexRangeError(f"vertex {v} out of range 0..{g.n - 1}")
    labels = tuple(_bits(g.adj[v]))
    if not labels:
        raise GraphError(f"vertex {v} is isolated; its neighborhood subgraph is empty")
    index = {w: i for i, w in enumerate(labels)}
    rows = [0] * len(labels)
    for i, w in enumerate(labels):
        for x in _bits(g.adj[w] & g.adj[v]):
            rows[i] |= 1 << index[x]
    return Graph(len(labels), tuple(rows)), labels


# -- graph6 -------------------------------------------------------------------
#
# Single-byte-header graph6: byte 0 is 63 + n (n <= 62); then the upper
# triangle of the adjacency matrix in column order
#     x(0,1), x(0,2), x(1,2), x(0,3), x(1,3), x(2,3), ...
# packed big-endian into 6-bit groups, each emitted as 63 + group.  The
# final group is zero-padded.  ``_graph6_pairs`` is the one statement of
# that bit order: the encoder and the decoder both walk it.  The multi-byte
# encodings for n > 62 are deliberately unsupported and rejected with
# Graph6SizeError.


def encode_graph6(g: Graph) -> bytes:
    n, adj = g.n, g.adj
    if n > GRAPH6_MAX_VERTICES:
        raise Graph6SizeError(
            f"graph6 single-byte header supports n <= {GRAPH6_MAX_VERTICES}, got {n}"
        )
    bits = 0
    for i, (_, ubit, v, _) in enumerate(_graph6_pairs(n)):
        if adj[v] & ubit:
            bits |= 1 << i
    tri_len = n * (n - 1) // 2
    ngroups = (tri_len + 5) // 6
    bits <<= 6 * ngroups - tri_len
    return bytes([63 + n, *(63 + (bits >> s & 63) for s in range(6 * ngroups - 6, -1, -6))])


def decode_graph6(data: bytes | str) -> Graph:
    if isinstance(data, str):
        if not data.isascii():
            raise Graph6Error("non-ASCII character in graph6 string")
        data = data.encode("ascii")
    if not data:
        raise Graph6Error("empty graph6 string")
    head = data[0]
    if head == 126:
        raise Graph6SizeError("multi-byte graph6 size header (n > 62) unsupported")
    if not 63 <= head < 126:
        raise Graph6Error(f"malformed graph6 header byte {head}")
    n = head - 63
    if n == 0:
        raise Graph6Error("graph6 with zero vertices unsupported")
    tri_len = n * (n - 1) // 2
    ngroups = (tri_len + 5) // 6
    body = data[1:]
    if len(body) < ngroups:
        raise Graph6Error(f"graph6 body too short: need {ngroups} bytes, got {len(body)}")
    if len(body) > ngroups:
        raise Graph6Error(f"trailing garbage after graph6 body ({len(body) - ngroups} bytes)")
    bits = 0
    for byte in body:
        if not 63 <= byte <= 126:
            raise Graph6Error(f"malformed graph6 body byte {byte}")
        bits = bits << 6 | byte - 63
    pad = 6 * ngroups - tri_len
    if bits & (1 << pad) - 1:
        raise Graph6Error("padding bit set beyond triangle length")
    bits >>= pad
    pairs = _graph6_pairs(n)
    rows = [0] * n
    while bits:
        i = bits.bit_length() - 1
        u, ubit, v, vbit = pairs[i]
        rows[u] |= vbit
        rows[v] |= ubit
        bits ^= 1 << i
    return Graph(n, tuple(rows))


@cache
def _graph6_pairs(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """The ``(u, 1 << u, v, 1 << v)`` of each bit of an n-vertex graph6 body,
    indexed from the least significant bit once the padding is shifted out."""
    return tuple((u, 1 << u, v, 1 << v)
                 for v in range(n - 1, 0, -1) for u in range(v - 1, -1, -1))
