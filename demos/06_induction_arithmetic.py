"""The arithmetic backbone that lifts small cases to every n.

Extending the base cases upward leans on floor-difference identities of
n^2/8, on two thresholds whose failure forces n into a small range, on a
Cauchy-Schwarz floor for four-part compositions, and on the shape of the
punctured neighborhoods X_i = N(u_i) - S around any K4.  Each ingredient
is audited numerically here.
"""

from p4hat import (
    case_threshold_audit,
    find_k4,
    floor_identity_audit,
    neighborhood_structure,
    sixteen_vertex,
    small_extremal,
)

print("== floor identities ==")
print("floor(n^2/8) - floor((n-1)^2/8) >= floor(n/4)   and")
print("floor(n^2/8) - floor((n-4)^2/8) == n - 2,  for 12 <= n <= 10^6")
report = floor_identity_audit(1_000_000)
print(f"ok = {report.ok}, first violation = {report.first_violation}")

print()
print("== case thresholds ==")
cases = case_threshold_audit(100_000)
print(f"case 1 (n >= 17, n = 2 mod 3): contradiction confirmed, "
      f"violations = {list(cases.case1_violations)}")
print(f"case 2: floor(n^2/8)+1 > n(n+8)/12 exactly from n = 15 on, "
      f"violations = {list(cases.case2_violations)}")
print(f"cauchy-schwarz floor for every composition, 4*sum x_i^2 - m^2 = "
      f"sum (x_i - x_j)^2 >= 0: {cases.cauchy_schwarz_ok}")

print()
print("sample values behind case 2:")
for n in (13, 14, 15, 16):
    lhs = n * n // 8 + 1
    rhs = n * (n + 8) / 12
    mark = ">" if lhs > rhs else "<="
    print(f"  n={n}: floor(n^2/8)+1 = {lhs} {mark} n(n+8)/12 = {rhs:.2f}")

print()
print("== neighborhoods around a K4 ==")
g = sixteen_vertex()
s = find_k4(g)
rep = neighborhood_structure(g, s)
print(f"16-vertex graph, hub K4 at {s}:")
print(f"  |X_i| = {rep.x_sizes}, e(X_i) = {rep.x_edge_counts}, disjoint = {rep.disjoint}")
print(f"  component kinds: {rep.component_kinds}")
print(f"  triangles meeting S = {rep.triangles_meeting_s} "
      f"= sum e(X_i) + 4 -> identity {rep.ts_identity}")

g6 = small_extremal(6)
rep = neighborhood_structure(g6, (0, 1, 2, 3))
print(f"K4 with a pendant triangle: |X_i| = {rep.x_sizes}, "
      f"kinds = {rep.component_kinds}, identity {rep.ts_identity}")
