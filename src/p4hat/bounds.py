"""Arithmetic audits and K4-neighborhood structure analysis.

The induction that extends the small-case searches to every n rests on a
handful of checkable ingredients: floor-difference identities of n^2/8,
two case thresholds whose failure ranges force small n, a Cauchy-Schwarz
floor for four-part compositions, and the structure of the sets
X_i = N(u_i) - S around a K4 on S = {u_0..u_3} in a p4hat-free graph
(pairwise disjoint, each inducing a graph with no 4-vertex path, i.e.
components that are triangles or stars).  The audits check the floor
identities at n = 12..19, case 1 at n = 17 and case 2 at n = 4..16, and
their docstrings argue every larger n.  Cauchy-Schwarz holds for every m
by a polynomial identity, checked on the 81 points of {0,1,2}^4.  Each
field of the K4 report is read off the X_i by the argument that proves it.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple

from .graphs import Graph, GuardError, _bits, _check_int, enumerate_triangles


class K4NeighborhoodReport(NamedTuple):
    """Structure of the punctured neighborhoods around a K4 on S."""

    s_vertices: tuple[int, int, int, int]
    x_sets: tuple[tuple[int, ...], ...]
    x_sizes: tuple[int, int, int, int]
    x_edge_counts: tuple[int, int, int, int]
    disjoint: bool
    component_kinds: tuple[tuple[str, ...], ...]  # per X_i: "triangle"/"star"/"other"
    x_p4_free: tuple[bool, bool, bool, bool]
    triangles_meeting_s: int
    s_block_is_maximal: bool
    # t(S) = sum e(X_i) + 4 is only meaningful when the K4 is its whole block
    ts_identity: str  # "holds" | "violated" | "not_applicable"


def _component_kinds(adj: tuple[int, ...], mask: int) -> tuple[str, ...]:
    """The kind of each component of the subgraph induced on ``mask``."""
    kinds = []
    seen = 0
    for v in _bits(mask):
        vb = 1 << v
        if seen & vb:
            continue
        comp = vb
        frontier = vb
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= adj[u] & mask & ~comp
            comp |= nxt
            frontier = nxt
        seen |= comp
        size = comp.bit_count()
        e = sum((adj[u] & comp).bit_count() for u in _bits(comp)) // 2
        maxdeg = max((adj[u] & comp).bit_count() for u in _bits(comp))
        if size == 3 and e == 3:
            kinds.append("triangle")
        elif e == size - 1 and maxdeg == size - 1:
            kinds.append("star")  # includes single vertices and single edges
        else:
            kinds.append("other")
    return tuple(kinds)


def neighborhood_structure(g: Graph, s: tuple[int, int, int, int]) -> K4NeighborhoodReport:
    """Analyze X_i = N(u_i) - S for the K4 induced on ``s``.

    The block of S grows past its six edges only through a triangle on an
    S-edge u_iu_j whose third vertex x lies outside S, and x is such a
    vertex exactly when x is in X_i and X_j.  So ``s_block_is_maximal`` is
    ``disjoint``.  (In a p4hat-free graph both hold: x in X_i and X_j would
    give apex u_i the path x-u_j-u_k-u_l.)

    A connected graph with no 4-vertex path is a triangle or a star: a
    spanning tree that is not a star holds a 4-vertex path, and so does a
    star with a third leaf d and an edge ab between leaves, as d-c-a-b
    through its centre c; on 3 vertices only the triangle is not a star.
    So ``x_p4_free[i]`` says that no component of X_i is "other".

    ``triangles_meeting_s`` is counted over the whole graph.  When the
    block is maximal, a triangle other than the K4's four meets S in one
    u_i, and its other two vertices are an edge of X_i, so the count must
    equal sum e(X_i) + 4: ``ts_identity`` compares the two.
    """
    s = tuple(s)
    rule = f"S must be 4 distinct vertices of the graph, got {s}"
    for v in s:
        _check_int(f"{rule}: each", v, 0, g.n - 1)
    if len(s) != 4 or len(set(s)) != 4:
        raise GuardError(rule)
    adj = g.adj
    smask = sum(1 << v for v in s)
    for v in s:
        if (adj[v] & smask).bit_count() != 3:
            raise GuardError(f"S = {s} does not induce a K4")

    x_masks = [adj[v] & ~smask for v in s]
    x_sets = tuple(tuple(_bits(m)) for m in x_masks)
    x_sizes = tuple(m.bit_count() for m in x_masks)
    x_edges = tuple(sum((adj[u] & m).bit_count() for u in _bits(m)) // 2 for m in x_masks)
    disjoint = sum(x_sizes) == len(set().union(*x_sets))
    kinds = tuple(_component_kinds(adj, m) for m in x_masks)
    t_s = sum(1 for tri in enumerate_triangles(g) if any(v in s for v in tri))
    verdict = ("not_applicable" if not disjoint
               else "holds" if t_s == sum(x_edges) + 4 else "violated")
    return K4NeighborhoodReport(
        s_vertices=s,
        x_sets=x_sets,
        x_sizes=x_sizes,
        x_edge_counts=x_edges,
        disjoint=disjoint,
        component_kinds=kinds,
        x_p4_free=tuple("other" not in k for k in kinds),
        triangles_meeting_s=t_s,
        s_block_is_maximal=disjoint,
        ts_identity=verdict,
    )


# n_max comes from outside input, so it is guarded even though neither
# audit loops further as n_max grows; check-bounds exits 64 above the cap.
AUDIT_N_MAX = 10**7


class FloorIdentityReport(NamedTuple):
    checked_from: int
    checked_to: int
    ok: bool
    first_violation: int | None


def floor_identity_audit(n_max: int) -> FloorIdentityReport:
    """Check, for 12 <= n <= n_max:

        floor(n^2/8) - floor((n-1)^2/8) >= floor(n/4)
        floor(n^2/8) - floor((n-4)^2/8) == n - 2

    n = 12..19 decide every n.  Since floor((n+8)^2/8) = floor(n^2/8) + 2n + 8,
    moving from n to n + 8 adds 2 to both sides of the first identity and 8
    to both sides of the second, so each holds at n + 8 exactly when it
    holds at n.  The first violation, if there were one, would lie in 12..19.
    """
    _check_int("floor_identity_audit's n_max", n_max, 12, AUDIT_N_MAX)
    for n in range(12, min(n_max, 19) + 1):
        cap = n * n // 8
        if cap - (n - 1) ** 2 // 8 < n // 4 or cap - (n - 4) ** 2 // 8 != n - 2:
            return FloorIdentityReport(12, n_max, False, n)
    return FloorIdentityReport(12, n_max, True, None)


class CaseThresholdReport(NamedTuple):
    checked_to: int
    # 3*(floor(n^2/8) + 1) > (3n^2 + 26n - 61)/12 for n >= 17, n = 2 (mod 3)
    case1_ok: bool
    case1_violations: tuple[int, ...]
    # floor(n^2/8) + 1 > n(n+8)/12 exactly for n >= 15 (within 4..16)
    case2_ok: bool
    case2_violations: tuple[int, ...]
    # 4 * (x0^2+x1^2+x2^2+x3^2) >= (x0+x1+x2+x3)^2 for all integers x_i: the
    # difference is the sum of (x_i - x_j)^2 over i < j
    cauchy_schwarz_ok: bool

    @property
    def passed(self) -> bool:
        return self.case1_ok and self.case2_ok and self.cauchy_schwarz_ok


def case_threshold_audit(n_max: int) -> CaseThresholdReport:
    """Confirm the two numeric thresholds behind the induction cases.

    All comparisons are exact: both sides are scaled by 12 to stay in
    integers.  Only n = 17 and n = 4..16 are checked, because n^2 is 0, 1
    or 4 (mod 8), so (n^2 - 4)/8 <= floor(n^2/8) <= n^2/8.  The lower bound
    reduces case 1 to 3n^2 - 52n + 158 > 0, true for every n >= 14, and
    case 2 to n^2 - 16n + 12 > 0, true for every n >= 16.  By the upper
    bound case 2 needs n^2 - 16n + 24 > 0, false for 2 <= n <= 14.
    """
    _check_int("case_threshold_audit's n_max", n_max, 17, AUDIT_N_MAX)
    case1_bad = [  # 17 = 2 (mod 3); both sides times 12
        n for n in (17,)
        if not 36 * (n * n // 8 + 1) > 3 * n * n + 26 * n - 61
    ]
    case2_bad = [
        n for n in range(4, 17)
        if (12 * (n * n // 8 + 1) > n * (n + 8)) != (n >= 15)
    ]
    return CaseThresholdReport(
        checked_to=n_max,
        case1_ok=not case1_bad,
        case1_violations=tuple(case1_bad),
        case2_ok=not case2_bad,
        case2_violations=tuple(case2_bad),
        cauchy_schwarz_ok=_cauchy_schwarz_ok(),
    )


def _cauchy_schwarz_ok() -> bool:
    """The report's ``cauchy_schwarz_ok``: the identity

        4 * sum x_i^2 - (sum x_i)^2 == sum over i < j of (x_i - x_j)^2

    holds on {0,1,2}^4, so it holds for all x and the left side is never
    negative.  The difference of the two sides has degree <= 2 in each
    variable.  As a polynomial in x_0 whose coefficients are polynomials in
    x_1..x_3, it has the three roots 0, 1, 2 at each point of {0,1,2}^3,
    so each coefficient vanishes there; by induction on the number of
    variables each coefficient, and so the difference, is zero.
    """
    return all(
        4 * sum(v * v for v in x) - sum(x) ** 2
        == sum((a - b) ** 2 for a, b in combinations(x, 2))
        for x in product(range(3), repeat=4)
    )
