"""Generators for the lower-bound graph families and their expected counts.

Each family is registered with the triangle count it must achieve and
whether it is p4hat-free, so constructions can be verified mechanically
(see the ``verify-construction`` CLI subcommand and the test suite).
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import Callable, NamedTuple

from .graphs import Edge, Graph, GraphError, from_edges


def bipartite_matching(n: int) -> Graph:
    """Complete bipartite graph on near-equal parts plus a matching in an even part.

    Achieves floor(n^2/8) triangles and stays p4hat-free.  Part sizes are
    the balanced split except when n == 2 (mod 4), where both balanced parts
    would be odd; the split (n/2 - 1, n/2 + 1) is used instead and is the
    unique near-balanced split with an even part.  The matching always goes
    in the first (even) part, pairing lowest indices first.
    """
    if n < 4:
        raise GraphError(f"bipartite_matching needs n >= 4, got {n}")
    if n % 4 == 2:
        a = n // 2 - 1
    elif n % 4 == 3:
        a = n // 2 + 1  # the even part of the balanced odd split
    else:
        a = n // 2  # n % 4 in {0, 1}: floor(n/2) is even
    # a generator, so from_edges checks n before any edge is built
    edges = chain(((u, v) for u in range(a) for v in range(a, n)),
                  ((u, u + 1) for u in range(0, a - 1, 2)))
    return from_edges(n, edges)


def small_extremal(n: int) -> Graph:
    """The unique edge-minimal extremal graphs for n in 4..7."""
    if n == 4:
        return complete(4)
    if n == 5:
        return from_edges(5, complete(4).edges())
    if n == 6:
        return from_edges(6, complete(4).edges() + [(0, 4), (0, 5), (4, 5)])
    if n == 7:
        k4 = complete(4).edges()
        other = [(0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)]
        return from_edges(7, k4 + other)
    raise GraphError(f"small_extremal is defined for n in 4..7, got {n}")


def sixteen_vertex() -> Graph:
    """16-vertex, 32-triangle graph whose blocks are all K4s.

    Vertices 0..3 form a hub K4; vertex i of the hub is fully joined to the
    triangle {4+i, 8+i, 12+i}; and each of the three 4-vertex layers
    {4..7}, {8..11}, {12..15} forms its own K4.  Every vertex ends up with
    degree 6 and a 6-edge neighborhood.
    """
    edges: list[Edge] = list(combinations(range(4), 2))
    for layer in (range(4, 8), range(8, 12), range(12, 16)):
        edges.extend(combinations(layer, 2))
    for i in range(4):
        spoke = (4 + i, 8 + i, 12 + i)
        edges.extend(combinations(spoke, 2))
        edges.extend((i, v) for v in spoke)
    return from_edges(16, edges)


def _sixteen_vertex_family(n: int) -> Graph:
    if n != 16:
        raise GraphError(f"the sixteen-vertex graph has n = 16, got {n}")
    return sixteen_vertex()


def book(s: int) -> Graph:
    """s triangles sharing the base edge (0, 1); pages are vertices 2..s+1."""
    if s < 1:
        raise GraphError(f"book needs s >= 1, got {s}")
    edges = chain([(0, 1)], ((u, p) for p in range(2, s + 2) for u in (0, 1)))
    return from_edges(s + 2, edges)  # checks s + 2 before any edge is built


def complete(k: int) -> Graph:
    if k < 1:
        raise GraphError(f"complete needs k >= 1, got {k}")
    # not combinations(range(k), 2), which would copy range(k) up front
    return from_edges(k, ((u, v) for v in range(k) for u in range(v)))


class ConstructionFamily(NamedTuple):
    """A generator with its certified triangle count and freeness claim.

    ``build`` raises GraphError on a parameter outside its range.
    """

    build: Callable[[int], Graph]
    expected_triangles: Callable[[int], int]
    p4hat_free: Callable[[int], bool]
    parameter: str  # meaning of the integer argument


FAMILIES: dict[str, ConstructionFamily] = {
    "bipartite-matching": ConstructionFamily(
        build=bipartite_matching,
        expected_triangles=lambda n: n * n // 8,
        p4hat_free=lambda n: True,
        parameter="vertex count n >= 4",
    ),
    "small-extremal": ConstructionFamily(
        build=small_extremal,
        expected_triangles=lambda n: {4: 4, 5: 4, 6: 5, 7: 8}[n],
        p4hat_free=lambda n: True,
        parameter="vertex count n in 4..7",
    ),
    "sixteen-vertex": ConstructionFamily(
        build=_sixteen_vertex_family,
        expected_triangles=lambda n: 32,
        p4hat_free=lambda n: True,
        parameter="vertex count n = 16",
    ),
    "book": ConstructionFamily(
        build=book,
        expected_triangles=lambda s: s,
        p4hat_free=lambda n: True,
        parameter="page count s >= 1",
    ),
    "complete": ConstructionFamily(
        build=complete,
        expected_triangles=lambda k: comb(k, 3),
        p4hat_free=lambda k: k <= 4,  # the pattern has 5 vertices; K5 contains it
        parameter="clique size k >= 1",
    ),
}
