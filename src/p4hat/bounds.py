"""Arithmetic audits and K4-neighborhood structure analysis.

The induction that extends the small-case searches to every n rests on a
handful of checkable ingredients: floor-difference identities of n^2/8,
two case thresholds whose failure ranges force small n, a Cauchy-Schwarz
floor for four-part compositions, and the structure of the sets
X_i = N(u_i) - S around a K4 on S = {u_0..u_3} in a p4hat-free graph
(pairwise disjoint, each inducing a graph with no 4-vertex path, i.e.
components that are triangles or stars).  This module verifies each
ingredient over explicit finite ranges; no symbolic algebra is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import decompose
from .graphs import Graph, GuardError, _bits, enumerate_triangles
from .patterns import _mask_has_path4


@dataclass(frozen=True)
class K4NeighborhoodReport:
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


def _component_kinds(adj: tuple[int, ...], members: tuple[int, ...]) -> tuple[str, ...]:
    mask = 0
    for v in members:
        mask |= 1 << v
    kinds = []
    seen = 0
    for v in members:
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
    """Analyze X_i = N(u_i) - S for the K4 induced on ``s``."""
    s = tuple(s)
    if len(set(s)) != 4 or any(not 0 <= v < g.n for v in s):
        raise GuardError(f"S must be 4 distinct vertices of the graph, got {s}")
    adj = g.adj
    smask = 0
    for v in s:
        smask |= 1 << v
    for v in s:
        if (adj[v] & smask).bit_count() != 3:
            raise GuardError(f"S = {s} does not induce a K4")

    x_masks = [adj[v] & ~smask for v in s]
    x_sets = tuple(tuple(_bits(m)) for m in x_masks)
    x_sizes = tuple(m.bit_count() for m in x_masks)
    x_edges = tuple(
        sum((adj[u] & m).bit_count() for u in _bits(m)) // 2 for m in x_masks
    )
    union = 0
    disjoint = True
    for m in x_masks:
        if union & m:
            disjoint = False
        union |= m

    kinds = tuple(_component_kinds(adj, xs) for xs in x_sets)
    p4_free = tuple(not _mask_has_path4(adj, m) for m in x_masks)

    t_s = sum(1 for tri in enumerate_triangles(g) if any(v in s for v in tri))

    s_edges = {tuple(sorted((u, v))) for i, u in enumerate(s) for v in s[i + 1:]}
    maximal = False
    for block in decompose(g).blocks:
        if s_edges & set(block.edges):
            maximal = set(block.edges) == s_edges
            break

    if not maximal:
        verdict = "not_applicable"
    elif t_s == sum(x_edges) + 4:
        verdict = "holds"
    else:
        verdict = "violated"

    return K4NeighborhoodReport(
        s_vertices=s,
        x_sets=x_sets,
        x_sizes=x_sizes,
        x_edge_counts=x_edges,
        disjoint=disjoint,
        component_kinds=kinds,
        x_p4_free=p4_free,
        triangles_meeting_s=t_s,
        s_block_is_maximal=maximal,
        ts_identity=verdict,
    )


# Both audits loop in Python over every n: at this cap they take about 4
# and 5 s (2 vCPUs, Python 3.11).
AUDIT_N_MAX = 10**7


def _check_audit_range(audit: str, n_min: int, n_max: int) -> None:
    if n_max < n_min:
        raise GuardError(f"{audit} needs n_max >= {n_min}, got {n_max}")
    if n_max > AUDIT_N_MAX:
        raise GuardError(f"{audit} needs n_max <= {AUDIT_N_MAX}, got {n_max}")


@dataclass(frozen=True)
class FloorIdentityReport:
    n_min: int
    n_max: int
    ok: bool
    first_violation: int | None


def floor_identity_audit(n_max: int) -> FloorIdentityReport:
    """Check, for 12 <= n <= n_max:

        floor(n^2/8) - floor((n-1)^2/8) >= floor(n/4)
        floor(n^2/8) - floor((n-4)^2/8) == n - 2
    """
    _check_audit_range("floor_identity_audit", 12, n_max)
    # c_j = floor((n-j)^2/8), kept as a window that slides with n
    c4, c3, c2, c1 = (m * m // 8 for m in range(8, 12))
    for n in range(12, n_max + 1):
        c0 = n * n // 8
        if c0 - c1 < n // 4 or c0 - c4 != n - 2:
            return FloorIdentityReport(12, n_max, False, n)
        c4, c3, c2, c1 = c3, c2, c1, c0
    return FloorIdentityReport(12, n_max, True, None)


@dataclass(frozen=True)
class CaseThresholdReport:
    n_max: int
    # 3*(floor(n^2/8) + 1) > (3n^2 + 26n - 61)/12 for n >= 17, n = 2 (mod 3)
    case1_ok: bool
    case1_violations: tuple[int, ...]
    # floor(n^2/8) + 1 > n(n+8)/12 exactly for n >= 15 (within 4..n_max)
    case2_ok: bool
    case2_violations: tuple[int, ...]
    # 4 * (x0^2+x1^2+x2^2+x3^2) >= (x0+x1+x2+x3)^2 over compositions of m <= 32
    cauchy_schwarz_ok: bool

    @property
    def passed(self) -> bool:
        return self.case1_ok and self.case2_ok and self.cauchy_schwarz_ok


def case_threshold_audit(n_max: int = 200) -> CaseThresholdReport:
    """Confirm the two numeric thresholds behind the induction cases.

    All comparisons are exact: both sides are scaled by 12 to stay in
    integers.
    """
    _check_audit_range("case_threshold_audit", 17, n_max)

    case1_bad = []
    for n in range(17, n_max + 1, 3):  # 17 = 2 (mod 3)
        lhs = 36 * (n * n // 8 + 1)  # 12 * 3 * (floor + 1)
        rhs = 3 * n * n + 26 * n - 61
        if not lhs > rhs:
            case1_bad.append(n)

    case2_bad = []
    for n in range(4, n_max + 1):
        holds = 12 * (n * n // 8 + 1) > n * (n + 8)
        if holds != (n >= 15):
            case2_bad.append(n)

    cs_ok = True
    for m in range(33):
        for x0 in range(m + 1):
            for x1 in range(m - x0 + 1):
                for x2 in range(m - x0 - x1 + 1):
                    x3 = m - x0 - x1 - x2
                    if 4 * (x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3) < m * m:
                        cs_ok = False
    return CaseThresholdReport(
        n_max=n_max,
        case1_ok=not case1_bad,
        case1_violations=tuple(case1_bad),
        case2_ok=not case2_bad,
        case2_violations=tuple(case2_bad),
        cauchy_schwarz_ok=cs_ok,
    )
