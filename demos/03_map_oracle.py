"""
Counting periodic points of a zigzag map, exactly
=================================================

The map g_j folds the interval [-j, j] onto itself along a zigzag of integer
breakpoints.  Composing it with itself n times gives a piecewise-linear map
with exponentially many pieces. Every map keeps its breakpoints and values as
integer numerators over one common denominator, so every arithmetic step is
exact and so are the solution counts.  The counts reproduce the phi/psi families, which
is the whole point: the families were built to count these solutions.
"""

from fractions import Fraction

from divseq import (
    build_gj,
    count_antifixed,
    count_fixed,
    iterates,
    make_theorem5_phi,
    make_theorem5_psi,
)

g = build_gj(2)
print("g_2 breakpoints:", list(zip(g.xs, g.ys)))
print("g_2(1/2) =", g(Fraction(1, 2)), "(exact rational, no rounding)")
print()

# iterates() yields g, g^2, g^3, ..., each from the last by one composition;
# each iterate roughly triples the piece count
powers = list(iterates(g, 8))
print("pieces of g_2^n:")
for n, power in enumerate(powers, start=1):
    print(f"  n={n}: {power.pieces} pieces over common denominator {power.den}")
print()

# fixed points of g^n solve g^n(x) = x; antifixed points solve g^n(x) = -x.
# The counters count on the map they are given, here each iterate in turn.
# Both counts match the recurrence families for every n.
phi, psi = make_theorem5_phi(2), make_theorem5_psi(2)
print("n | fixed(g_2^n) phi_2(n) | antifixed(g_2^n) psi_2(n)")
for n, power in enumerate(powers, start=1):
    cf, ca = count_fixed(power), count_antifixed(power)
    print(f"{n} | {cf:>12} {phi(n):>8} | {ca:>16} {psi(n):>8}")
print()

# g_3^6 counted directly agrees with (g_3^2)^3, the third iterate of g_3^2
g3_powers = list(iterates(build_gj(3), 6))
*_, g3_squared_cubed = iterates(g3_powers[1], 3)
six = count_fixed(g3_powers[5])
assert six == count_fixed(g3_squared_cubed)
print("fixed points of g_3^6 == fixed points of (g_3^2)^3 ==", six)
