"""Edge-count engine for the zigzag maps (j >= 3).

The graph of the n-th iterate of g_j is encoded as a word of integer
symbols, the map's values at the nodes between which it is linear. Each
adjacent symbol pair is a lap; laps come in 2j-1 label classes and fall
into 2j-1 x-position buckets, the pieces of g_j. This module holds the n=1
edge tensor, the linear step advancing it, the c/d aggregates that count
solutions of h^n(x) = x and h^n(x) = -x, and a literal word expander used
only to cross-validate the step.

All of them read one substitution rule, derived once per j from
`build_gj(j)`: a lap (u, v) splits into the laps between the images of the
nodes from u to v (a Markov partition). The closure of g_j's own laps under
it is the alphabet, numbered as in `label_pair`, and a label counts one
solution in a bucket when its levels cover the bucket (its mirror image for
h^n(x) = -x). `step` sums each new entry from the old entries that split
into it, most-used first, computing every shared prefix sum once: 2j-1
big-int additions per row. `expand_word` keeps x-coordinates as integer
numerators over one denominator per depth. The rule also derives for j = 2
and matches the oracle there; the public engine keeps to j >= 3.
Validation runs on every tensor `step` returns.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from operator import itemgetter

from .interval_map import build_gj

__all__ = [
    "EdgeTensor",
    "WordLengthError",
    "DEFAULT_WORD_CAP",
    "initial_tensor",
    "step",
    "c_count",
    "d_count",
    "expand_word",
    "label_pair",
    "pair_label",
    "bucket_interval",
]

DEFAULT_WORD_CAP = 10**6


class WordLengthError(RuntimeError):
    """Literal word expansion would exceed the configured symbol cap."""


def _check_j(j: int):
    if j < 3:
        raise ValueError(f"the edge engine requires j >= 3, got {j}")


def _paper_pairs(j: int) -> list[tuple[int, int]]:
    """The paper's numbering: the lap (u, v) of labels -(j-1), ..., j-1."""
    return [(-j, 1), *((i - 1, i) for i in range(2 - j, 0)), (-j, j),
            *((i, i + 1) for i in range(1, j - 1)), (j, -1)]


class _Rule(namedtuple("_Rule", "nodes laps columns sweeps scale seed advance "
                                "fixed antifixed")):
    """What g_j does to a lap, and what the engine reads from it. Rows are
    buckets (pieces of g_j in x order) and columns are labels, from 0.

    nodes      the x's of g_j's nodes; row r is [nodes[r], nodes[r + 1]]
    laps       g_j's own laps (u, v, x0, x1), one per bucket
    columns    lap (u, v), either orientation -> column
    sweeps     lap (u, v) -> node offsets, lap starts, lap ends
    scale      lcm of the lap widths |v - u|
    seed       the n=1 grid: each bucket's own lap
    advance    one row of the grid, stepped once
    fixed      (row, column) cells whose lap covers the piece
    antifixed  (row, column) cells whose lap covers the piece's mirror image
    """


@cache
def _rule(j: int) -> _Rule:
    """Derive the substitution rule of g_j (j >= 2) from build_gj(j)."""
    g = build_gj(j)
    nodes, values = g.xnum, g.ynum
    image = dict(zip(nodes, values))
    pairs = _paper_pairs(j)
    columns = {}
    for c, (u, v) in enumerate(pairs):
        columns[u, v] = columns[v, u] = c
    scale = lcm(*(abs(v - u) for u, v in pairs))
    sweeps = {}
    for u, v in columns:
        run = nodes[bisect_left(nodes, min(u, v)):bisect_right(nodes, max(u, v))]
        run = run[::-1] if u > v else run  # the nodes from u to v
        ys = [image[s] for s in run]
        sweeps[u, v] = ([(s - u) * (scale // (v - u)) for s in run], ys, ys[1:])
    laps = tuple(zip(values, values[1:], nodes, nodes[1:]))
    closure, todo = set(), [lap[:2] for lap in laps]
    while todo:
        lap = todo.pop()
        if lap not in closure:
            closure.add(lap)
            todo += zip(*sweeps[lap][1:]) if lap in sweeps else ()
    if {frozenset(lap) for lap in closure} != set(map(frozenset, pairs)):
        raise RuntimeError(f"the laps of g_{j} close on {sorted(closure)}, "
                           f"not on its {len(pairs)} labelled pairs")
    seed = tuple(tuple(int(c == columns[u, v]) for c in range(len(pairs)))
                 for u, v, _, _ in laps)

    # new column i sums the old columns whose laps split into a label-i lap,
    # most-used first; each slot past the old row holds one shared prefix sum
    sources = [[] for _ in pairs]
    for c, lap in enumerate(pairs):
        for sub in zip(*sweeps[lap][1:]):
            sources[columns[sub]].append(c)
    uses = Counter(c for src in sources for c in set(src))
    terms = [tuple(sorted(src, key=lambda c: (-uses[c], c))) for src in sources]
    slot = {(c,): c for c in range(len(pairs))}
    for prefix in sorted({t[:m] for t in terms for m in range(2, len(t) + 1)},
                         key=len):
        slot[prefix] = len(slot)
    adds = [(slot[p[:-1]], p[-1]) for p in list(slot)[len(pairs):]]
    pick = itemgetter(*map(slot.__getitem__, terms))

    def advance(row):
        slots = list(row)
        push = slots.append
        for a, b in adds:
            push(slots[a] + slots[b])
        return pick(slots)

    def cells(sign):
        """(row, column) cells whose lap's levels cover sign * the piece."""
        spans = (sorted((sign * u, sign * v)) for u, v in pairs)
        return tuple((r, c) for c, (lo, hi) in enumerate(spans) for r in
                     range(bisect_left(nodes, lo), bisect_right(nodes, hi) - 1))

    return _Rule(nodes, laps, columns, sweeps, scale, seed, advance,
                 cells(1), cells(-1))


@dataclass(frozen=True)
class EdgeTensor:
    """Edge counts a(k, i) at one time step: entry (k, i) is the number of
    label-i edges whose x-extent lies in bucket k. Both indices run over
    [-(j-1), j-1]; counts is the raw (2j-1) x (2j-1) grid with both indices
    shifted by j-1."""

    j: int
    n: int
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_j(self.j)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        size = 2 * self.j - 1
        counts = self.counts
        if len(counts) != size or set(map(len, counts)) != {size}:
            raise ValueError(f"counts grid must be {size}x{size}")
        if min(map(min, counts)) < 0:
            raise ValueError("edge counts must be nonnegative")

    def entry(self, k: int, i: int) -> int:
        w = self.j - 1
        if not (-w <= k <= w and -w <= i <= w):
            raise IndexError(f"indices must lie in [{-w}, {w}], got ({k}, {i})")
        return self.counts[k + w][i + w]

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


def initial_tensor(j: int) -> EdgeTensor:
    """The n=1 tensor: one edge per bucket, read off the seed word."""
    _check_j(j)
    return EdgeTensor(j, 1, _rule(j).seed)


def step(t: EdgeTensor) -> EdgeTensor:
    """Advance the tensor one iterate; rows (fixed bucket k) evolve
    independently. New entry i is the sum of the old entries whose laps
    split into a label-i lap, summed most-used first along shared prefix
    sums: with w = j-1, every entry is s = a(0) + a(-w) or u = a(0) + a(w)
    plus at most one more entry, 2j-1 additions per row."""
    return EdgeTensor(t.j, t.n + 1, tuple(map(_rule(t.j).advance, t.counts)))


def c_count(t: EdgeTensor) -> int:
    """Weighted tally equal to the number of solutions of h^n(x) = x."""
    return sum(t.counts[r][c] for r, c in _rule(t.j).fixed)


def d_count(t: EdgeTensor) -> int:
    """Weighted tally equal to the number of solutions of h^n(x) = -x."""
    return sum(t.counts[r][c] for r, c in _rule(t.j).antifixed)


def label_pair(j: int, i: int) -> tuple[int, int]:
    """Canonical symbol pair (u, v) carrying label i (reversals share it)."""
    _check_j(j)
    w = j - 1
    if not -w <= i <= w:
        raise ValueError(f"label must lie in [{-w}, {w}], got {i}")
    return _paper_pairs(j)[i + w]


def pair_label(j: int, u: int, v: int) -> int:
    """Label of the edge with endpoint symbols u, v, in either order."""
    _check_j(j)
    column = _rule(j).columns.get((u, v))
    if column is None:
        raise ValueError(f"({u}, {v}) is not an edge of the j={j} alphabet")
    return column - (j - 1)


def bucket_interval(j: int, k: int) -> tuple[Fraction, Fraction]:
    """x-interval [s_k, t_k] of position bucket k, the k-th piece of g_j
    counted from the centre: [k-1, k] left of it, the doubled cell [-1, 1]
    at k = 0, [k, k+1] right of it."""
    _check_j(j)
    w = j - 1
    if not -w <= k <= w:
        raise ValueError(f"bucket index must lie in [{-w}, {w}], got {k}")
    nodes = _rule(j).nodes
    return (Fraction(nodes[k + w]), Fraction(nodes[k + w + 1]))


def _bucket_of(j: int, x0, x1, den: int = 1) -> int:
    """Bucket containing the x-extent [x0/den, x1/den]; x0 and x1 may be
    integer numerators over den or, with den = 1, Fractions. Both ends are
    located among the nodes; an extent inside no bucket raises. Edge extents
    never straddle buckets: the n=1 extents each fill exactly one bucket and
    expansion only subdivides."""
    nodes = _rule(j).nodes
    r = bisect_right(nodes, x0 // den) - 1  # last node at or left of x0
    if 0 <= r < len(nodes) - 1 and -(-x1 // den) <= nodes[r + 1]:
        return r - (j - 1)
    if den != 1:
        x0, x1 = Fraction(x0, den), Fraction(x1, den)
    raise RuntimeError(f"edge extent [{x0}, {x1}] straddles a bucket boundary")


def expand_word(j: int, n: int, word_cap: int = DEFAULT_WORD_CAP) -> EdgeTensor:
    """Tally a(k, i) by literal substitution instead of the step.

    Each edge is kept as a lap (u, v, x0, x1): the iterate runs linearly from
    value u at x0 to value v at x1. One expansion pass replaces a lap by the
    laps between consecutive stations s (the nodes of g_j met on the sweep
    from u to v), placing station s at its exact rational x via inverse
    linear interpolation and mapping its value through g_j. Exponential in
    n; guarded by word_cap and used only for cross-validation.

    The x-coordinates are integer numerators over one denominator per depth,
    multiplied at each pass by L, the lcm of the alphabet's lap widths
    |v - u|, so station s lands exactly on x0*L + (s-u)*(x1-x0)*(L/(v-u)).
    """
    _check_j(j)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rule = _rule(j)
    sweeps, scale, laps = rule.sweeps, rule.scale, rule.laps
    den = 1
    for depth in range(2, n + 1):
        new_laps = []
        for (u, v, x0, x1) in laps:
            offsets, starts, ends = sweeps[u, v]
            origin, span = x0 * scale, x1 - x0
            pts = [origin + k * span for k in offsets]
            new_laps += zip(starts, ends, pts, pts[1:])
            if len(new_laps) > word_cap:
                raise WordLengthError(
                    f"expansion at n={depth} exceeds {word_cap} symbols")
        laps = new_laps
        den *= scale
    columns, size = rule.columns, 2 * j - 1
    edges = Counter((_bucket_of(j, x0, x1, den), columns[u, v])
                    for (u, v, x0, x1) in laps)
    return EdgeTensor(j, n, tuple(tuple(edges[k, c] for c in range(size))
                                  for k in range(1 - j, j)))
