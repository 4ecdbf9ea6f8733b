"""Detection of the forbidden pattern: a 4-vertex path with a dominating apex.

The pattern (written ``p4hat``) is a 4-vertex path plus one extra vertex
joined to all four path vertices.  A graph contains it as a subgraph exactly
when some vertex neighborhood contains a 4-vertex path, so detection reduces
to a path check inside each neighborhood.  Containment is always in the
"not necessarily induced" sense.

A neighborhood H contains a 4-path iff it has an edge (a, b) such that a has
a neighbor c != b, b has a neighbor d != a, and c, d can be chosen distinct:
the path is then c-a-b-d.  That test is a couple of mask operations per edge
and is the one detector the search runs at every node of its walk.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import NamedTuple, Sequence

from .graphs import Graph, _bits


class SuspensionWitness(NamedTuple):
    """An apex plus an ordered 4-path inside its neighborhood."""

    apex: int
    path: tuple[int, int, int, int]

    def is_valid_in(self, g: Graph) -> bool:
        a, b, c, d = self.path
        verts = {self.apex, a, b, c, d}
        if len(verts) != 5 or not all(0 <= v < g.n for v in verts):
            return False
        row = g.adj[self.apex]
        if not all(row >> v & 1 for v in self.path):
            return False
        return g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)


def _mask_has_path4(adj: Sequence[int], mask: int) -> bool:
    """True iff the subgraph induced on the masked vertices has a 4-path.

    A mask of fewer than 4 vertices holds none; the detectors below skip
    such rows before calling."""
    m = mask
    while m:
        abit = m & -m
        m ^= abit
        na = adj[abit.bit_length() - 1] & mask
        w = na & ~((abit << 1) - 1)  # partners b > a; the test is symmetric
        while w:
            bbit = w & -w
            w ^= bbit
            ca = na ^ bbit
            cb = (adj[bbit.bit_length() - 1] & mask) ^ abit
            if ca and cb:
                u = ca | cb
                if u & (u - 1):
                    return True
    return False


def _rows_contain_suspension(adj: Sequence[int], n: int) -> bool:
    """Boolean fast path shared with the search engine and samplers."""
    for v in range(n):
        row = adj[v]
        if row.bit_count() >= 4 and _mask_has_path4(adj, row):
            return True
    return False


def _lex_least_path4(adj: Sequence[int], mask: int) -> tuple[int, int, int, int] | None:
    """Lexicographically least ordered 4-path within the masked vertices."""
    for a in _bits(mask):
        abit = 1 << a
        for b in _bits(adj[a] & mask):
            bbit = 1 << b
            for c in _bits(adj[b] & mask & ~abit & ~bbit):
                for d in _bits(adj[c] & mask & ~abit & ~bbit & ~(1 << c)):
                    return (a, b, c, d)
    return None


def contains_path4(g: Graph) -> tuple[int, int, int, int] | None:
    """First 4-vertex path (as an ordered tuple) in lexicographic order, or None."""
    full = (1 << g.n) - 1
    return _lex_least_path4(g.adj, full)


def contains_suspension_p4(g: Graph) -> SuspensionWitness | None:
    """Witness for the forbidden pattern, or None if the graph is p4hat-free.

    The witness is deterministic: the least apex whose neighborhood holds a
    4-path, carrying the lexicographically least such path.
    """
    adj = g.adj
    for v, row in enumerate(adj):
        if row.bit_count() >= 4 and _mask_has_path4(adj, row):
            path = _lex_least_path4(adj, row)
            assert path is not None
            return SuspensionWitness(apex=v, path=path)
    return None


def is_p4hat_free(g: Graph) -> bool:
    return not _rows_contain_suspension(g.adj, g.n)


def brute_force_suspension(g: Graph) -> bool:
    """Exhaustive reference check over all 5-subsets, apexes, and orderings.

    Independent of the neighborhood-based detector; intended for tests.
    Quadratic blowup makes it practical only for small n (<= 16 or so).
    """
    adj = g.adj
    for sub in combinations(range(g.n), 5):
        for apex in sub:
            rest = [x for x in sub if x != apex]
            row = adj[apex]
            if not all(row >> r & 1 for r in rest):
                continue
            for perm in permutations(rest):
                if perm[0] > perm[3]:
                    continue  # a path equals its reversal
                if (
                    adj[perm[0]] >> perm[1] & 1
                    and adj[perm[1]] >> perm[2] & 1
                    and adj[perm[2]] >> perm[3] & 1
                ):
                    return True
    return False
