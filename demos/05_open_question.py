"""
An open question, scanned but not settled
=========================================

The psi families come with a proved phi2-mod-2n dividing formula.  Whether
phi1(psi_j, n) is also divisible by n for every n is open: the phi1 guarantee
was proved for maps, and psi counts solutions of g^n(x) = -x, which is not a
fixed-point count of any single map in the family.  The scan below looks for
a counterexample; finding none is evidence, not a proof, so the CLI command
for this check always exits 0 and just reports what it saw.
"""

from divseq import make_theorem5_psi, phi1
from divseq.cli import run_divisibility

for j in (2, 3):
    psi = make_theorem5_psi(j)
    rows = run_divisibility(psi, "phi1-mod-n", 36)
    failed = [row["n"] for row in rows if not row["pass"]]
    status = f"counterexample at n={failed[0]}" if failed \
        else "no counterexample"
    print(f"j={j}: scanned n=1..{len(rows)}, {status}")

# a few quotients in full, to show the divisions are exact and nontrivial
psi2 = make_theorem5_psi(2)
print()
print("phi1(psi_2, n) / n for small n:")
for n in (1, 2, 3, 4, 6, 12, 24, 36):
    value = phi1(psi2, n)
    print(f"  n={n:>2}  phi1={value:>16}  quotient={value // n}")
