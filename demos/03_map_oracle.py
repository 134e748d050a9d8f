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
    iterate,
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
print("pieces of g_2^n:")
for n, power in enumerate(iterates(g, 8), start=1):
    print(f"  n={n}: {power.pieces} pieces over common denominator {power.den}")
print()

# fixed points of g^n solve g^n(x) = x; antifixed points solve g^n(x) = -x.
# Both counts match the recurrence families for every n.
phi, psi = make_theorem5_phi(2), make_theorem5_psi(2)
print("n | fixed(g_2^n) phi_2(n) | antifixed(g_2^n) psi_2(n)")
for n in range(1, 9):
    cf, ca = count_fixed(g, n), count_antifixed(g, n)
    print(f"{n} | {cf:>12} {phi(n):>8} | {ca:>16} {psi(n):>8}")
print()

# iterate() is the last map iterates() yields; counting fixed points of the
# composite in one shot agrees with counting via a partial iterate
g3 = build_gj(3)
assert count_fixed(g3, 6) == count_fixed(iterate(g3, 2), 3)
print("count_fixed(g_3, 6) == count_fixed(g_3^2, 3) ==", count_fixed(g3, 6))
