"""
The edge-count engine: counting solutions without solving anything
==================================================================

The graph of g_j^n can be encoded as a word over a finite alphabet of edge
labels.  A label is a lap of the map, a pair of node values (u, v) such as
(-2, -1), (-j, j) or (j, -1), and the alphabet is what g_j's own laps become
under the rule "a lap splits into the laps between the images of the nodes
from u to v".  The engine keeps only a census: how many times each label
occurs in each bucket, a piece of g_j on the x-axis.  One linear step of the
census corresponds to composing the map once more, so solution counts for
g^n come out of integer bookkeeping with no root finding.
"""

from divseq import (
    build_gj,
    c_count,
    count_antifixed,
    count_fixed,
    d_count,
    expand_word,
    initial_tensor,
    iterates,
    step,
)

# the census of g_3 itself: one edge per monotone lap of the zigzag
t = initial_tensor(3)
print("initial census for j=3 (rows = buckets k=-2..2, cols = labels -2..2):")
for row in t.counts:
    print("  ", row)
print("total edges:", t.total())
print()

# stepping the census: total edge count roughly triples per step, and the
# two weighted tallies c and d track the fixed/antifixed solution counts
print("n | word length | c (fixed) | d (antifixed)")
for n in range(1, 9):
    if n > 1:
        t = step(t)
    print(f"{n} | {t.total():>11} | {c_count(t):>9} | {d_count(t):>13}")
print()

# the tallies agree with the exact-rational oracle, which actually composes
# the map and solves for crossings on g_3^6
*_, g6 = iterates(build_gj(3), 6)
t6 = initial_tensor(3)
for _ in range(5):
    t6 = step(t6)
print("engine c at n=6:", c_count(t6), "| oracle:", count_fixed(g6))
print("engine d at n=6:", d_count(t6), "| oracle:", count_antifixed(g6))
print()

# expand_word builds the word literally, lap by lap, and tallies it; the
# rowwise linear step must reproduce that census entry for entry
literal = expand_word(3, 6)
print("literal word census equals stepped census:", literal.counts == t6.counts)
