"""
Verifying dividing formulas by inclusion-exclusion
==================================================

phi1(q, n) sums q(n / product) over squarefree products of the distinct
primes of n with alternating signs; phi2 does the same over the odd primes
only.  For the families in this package, phi1 is divisible by n and phi2 by
2n, for every n.  The verifier recomputes the transforms from scratch, so a
passing report is evidence about the sequence, not about the generator.
"""

from divseq import make_theorem4, make_theorem5_psi, phi1, phi2
from divseq.cli import parse_expression, run_divisibility

# a small report, printed by hand to show what the rows mean
seq = make_theorem4(2, 0, 1)   # 1, 3, 7, 15, ... = 2^n - 1
print("phi1 of theorem4(2,0,1), the 2^n - 1 family:")
for n in (1, 2, 6, 12, 30):
    value = phi1(seq, n)
    print(f"  n={n:>2}  phi1={value:>12}  phi1/n={value // n}")
print()

# the same check as report rows (those `divseq verify` prints), over a
# combinator expression
expr = "lin(3, theorem5phi(2), -2, theorem4(3,0,1))"
rows = run_divisibility(parse_expression(expr), "phi1-mod-n", 24)
failed = [row["n"] for row in rows if not row["pass"]]
print(f"{expr}:")
print(f"  checked n=1..{len(rows)}, failures: {len(failed)}")
print(f"  last row: {rows[-1]}")
print()

# the psi families carry the stronger phi2 guarantee: divisible by 2n
psi3 = make_theorem5_psi(3)
print("phi2 of the j=3 antisymmetric family, divided by 2n:")
for n in (1, 2, 8, 9, 24):
    value = phi2(psi3, n)
    print(f"  n={n:>2}  phi2={value:>14}  phi2/(2n)={value // (2 * n)}")
print()

# a non-example: the phi1 guarantee does not upgrade to phi2 for free
rows = run_divisibility(make_theorem4(2, 0, 1), "phi2-mod-2n", 12)
failed = [row["n"] for row in rows if not row["pass"]]
print("phi2 mod 2n applied to a phi1-only family:")
print(f"  failures: {len(failed)} (first at n={failed[0]})")
