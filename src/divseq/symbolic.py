"""Edge-count engine for the zigzag maps (j >= 2).

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
h^n(x) = -x). One step sums each new entry from the old entries that split
into it, most-used first, computing every shared prefix sum once: 2j-1
big-int additions per computed row, in one straight-line function compiled
from that plan. g_j is odd, so reversing a row mirrors it and commutes with
the step (checked when the rule is derived); a read computes the rows up to
the middle one and reverses each mirrored partner's new row for the rest, j
of the 2j-1 rows for g_j's own tensors. `expand_word` needs no
x-coordinates: the laps a lap splits into tile its extent, so every lap
lies in the bucket of its n=1 ancestor. Validation runs on every tensor
built from outside; `step` adds nonnegative counts of a valid tensor, so
its results skip it.

`step` itself computes nothing: it returns an EdgeTensor that shares its
parent's one anchor, the counts and n of the nearest tensor whose counts
are known, and its counts are computed from that anchor when first read.
A short distance d is stepped d times; a long one is jumped:
each row is a row vector v and one step is v*M_j, where row i of M_j is the
step of unit row i, so v*M_j**d is the sum of r[i]*v*M_j**i over i < 2j-1
for r = x**d modulo M_j's characteristic polynomial (Cayley-Hamilton).
That polynomial is computed once per j, on the first jump, and checked on
the unit rows.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from operator import mul

from ._charpoly import _charpoly, _x_power_mod
from ._record import Record
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
    if j < 2:
        raise ValueError(f"the edge engine requires j >= 2, got {j}")


def _paper_pairs(j: int) -> list[tuple[int, int]]:
    """The paper's numbering: the lap (u, v) of labels -(j-1), ..., j-1."""
    return [(-j, 1), *((i - 1, i) for i in range(2 - j, 0)), (-j, j),
            *((i, i + 1) for i in range(1, j - 1)), (j, -1)]


class _Rule(namedtuple("_Rule", "nodes laps columns splits seed advance "
                                "fixed antifixed")):
    """What g_j does to a lap, and what the engine reads from it. Rows are
    buckets (pieces of g_j in x order) and columns are labels, from 0.

    nodes      the x's of g_j's nodes; row r is [nodes[r], nodes[r + 1]]
    laps       g_j's own laps (u, v), one per bucket
    columns    lap (u, v), either orientation -> column
    splits     lap (u, v) -> the laps it splits into, in order from u to v
    seed       the n=1 grid: each bucket's own lap
    advance    one row of the grid, stepped once (compiled straight-line code)
    fixed      (row, column) cells whose lap covers the piece
    antifixed  (row, column) cells whose lap covers the piece's mirror image
    """


def _compile_plan(j: int, size: int, adds, picks):
    """One straight-line function for a prefix-sum plan: unpack the row into
    slots s0..s{size-1}, append slot s_a + s_b for each (a, b) in adds, and
    return the slots named by picks."""
    names = [f"s{i}" for i in range(size + len(adds))]
    lines = ["def advance(row):", f"    {', '.join(names[:size])}, = row"]
    lines += [f"    {names[size + k]} = {names[a]} + {names[b]}"
              for k, (a, b) in enumerate(adds)]
    lines.append(f"    return ({''.join(names[i] + ', ' for i in picks)})")
    namespace = {}
    exec(compile("\n".join(lines), f"<advance g_{j}>", "exec"), namespace)
    return namespace["advance"]


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
    splits = {}
    for u, v in columns:
        run = nodes[bisect_left(nodes, min(u, v)):bisect_right(nodes, max(u, v))]
        run = run[::-1] if u > v else run  # the nodes from u to v
        ys = [image[s] for s in run]
        splits[u, v] = tuple(zip(ys, ys[1:]))
    laps = tuple(zip(values, values[1:]))
    closure, todo = set(), list(laps)
    while todo:
        lap = todo.pop()
        if lap not in closure:
            closure.add(lap)
            todo += splits.get(lap, ())
    if {frozenset(lap) for lap in closure} != set(map(frozenset, pairs)):
        raise RuntimeError(f"the laps of g_{j} close on {sorted(closure)}, "
                           f"not on its {len(pairs)} labelled pairs")
    seed = tuple(tuple(int(c == columns[u, v]) for c in range(len(pairs)))
                 for u, v in laps)

    # new column i sums the old columns whose laps split into a label-i lap,
    # most-used first; each slot past the old row holds one shared prefix sum
    sources = [[] for _ in pairs]
    for c, lap in enumerate(pairs):
        for sub in splits[lap]:
            sources[columns[sub]].append(c)
    uses = Counter(c for src in sources for c in set(src))
    terms = [tuple(sorted(src, key=lambda c: (-uses[c], c))) for src in sources]
    slot = {(c,): c for c in range(len(pairs))}
    for prefix in sorted({t[:m] for t in terms for m in range(2, len(t) + 1)},
                         key=len):
        slot[prefix] = len(slot)
    adds = [(slot[p[:-1]], p[-1]) for p in list(slot)[len(pairs):]]
    advance = _compile_plan(j, len(pairs), adds, [slot[t] for t in terms])
    # reversing a row mirrors its labels; for odd g_j that commutes with the
    # step, which step relies on to share mirrored rows (linear, so unit
    # rows prove it for every row)
    units = [tuple(int(c == i) for c in range(len(pairs)))
             for i in range(len(pairs))]
    if any(advance(e[::-1]) != advance(e)[::-1] for e in units):
        raise RuntimeError(f"the step of g_{j} does not commute with mirroring "
                           "its labels")

    def cells(sign):
        """(row, column) cells whose lap's levels cover sign * the piece."""
        spans = (sorted((sign * u, sign * v)) for u, v in pairs)
        return tuple((r, c) for c, (lo, hi) in enumerate(spans) for r in
                     range(bisect_left(nodes, lo), bisect_right(nodes, hi) - 1))

    return _Rule(nodes, laps, columns, splits, seed, advance,
                 cells(1), cells(-1))


@cache
def _char_coeffs(j: int) -> list[int]:
    """z with det(x*I - M_j) = x**k - z[0]*x**(k-1) - ... - z[k-1], k = 2j-1,
    where row i of M_j is unit row i stepped once. Checked by Cayley-Hamilton
    on every unit row e: e*M_j**k is the sum of z[i-1]*e*M_j**(k-i)."""
    advance, size = _rule(j).advance, 2 * j - 1
    units = [tuple(int(c == i) for c in range(size)) for i in range(size)]
    coeffs = [-c for c in _charpoly(list(map(advance, units)))[1:]]
    for row in units:
        powers = [row]
        for _ in range(size):
            powers.append(advance(powers[-1]))
        if tuple(sum(map(mul, coeffs, column)) for column in
                 zip(*reversed(powers[:-1]))) != powers[-1]:
            raise RuntimeError(f"the step of g_{j} does not satisfy its "
                               "characteristic polynomial")
    return coeffs


def _advanced(j: int, rows, start: int, n: int) -> tuple:
    """The grid rows of g_j's tensor at start, stepped to n > start.

    Each row moves on its own. A distance d = n - start of at most 16 times
    the order k = 2j-1 is stepped d times; a longer one is jumped, row v to
    the sum of r[i]*v*M_j**i for r = x**d modulo M_j's characteristic
    polynomial, k-1 steps and k**2 multiplications a row (the crossover was
    measured at 24 to 384 steps for j = 2..12). Rows up to the middle one
    are computed; a later row that is its mirror partner's reverse gets the
    partner's result reversed (mirroring commutes with the step), any other
    row is computed."""
    d, advance = n - start, _rule(j).advance
    if d <= 16 * (2 * j - 1):
        def row_at(row):
            for _ in range(d):
                row = advance(row)
            return row
    else:
        power = _x_power_mod(d, _char_coeffs(j))

        def row_at(row):
            stepped = [row]
            for _ in power[1:]:
                stepped.append(advance(stepped[-1]))
            return tuple(sum(map(mul, power, column))
                         for column in zip(*stepped))
    new = list(map(row_at, rows[:j]))
    for r in range(j, len(rows)):
        m = len(rows) - 1 - r
        new.append(new[m][::-1] if rows[r] == rows[m][::-1]
                   else row_at(rows[r]))
    return tuple(new)


_set = object.__setattr__


class EdgeTensor(Record):
    """Edge counts a(k, i) at one time step: entry (k, i) is the number of
    label-i edges whose x-extent lies in bucket k. Both indices run over
    [-(j-1), j-1]; counts is the raw (2j-1) x (2j-1) grid with both indices
    shifted by j-1, held as a tuple of tuples. Immutable; building one
    checks j, n, the grid's shape and that no count is negative.

    _anchor holds (counts, start): the counts and n of the nearest tensor
    at or before this one whose counts are known, so start == n once they
    are. A tensor that `step` returned starts anchored where its parent is;
    its first read computes its counts from the anchor (see _advanced) and
    replaces the anchor with (counts, n) in one store, so a concurrent read
    finds one anchor or the other, and a tensor that has been read keeps
    no earlier one alive."""

    __match_args__ = ("j", "n", "counts")
    __slots__ = ("j", "n", "_anchor", "__weakref__")

    def __init__(self, j: int, n: int, counts: tuple[tuple[int, ...], ...]):
        _check_j(j)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        counts = tuple(map(tuple, counts))
        size = 2 * j - 1
        if len(counts) != size or set(map(len, counts)) != {size}:
            raise ValueError(f"counts grid must be {size}x{size}")
        if min(map(min, counts)) < 0:
            raise ValueError("edge counts must be nonnegative")
        _set(self, "j", j)
        _set(self, "n", n)
        _set(self, "_anchor", (counts, n))

    @property
    def counts(self) -> tuple[tuple[int, ...], ...]:
        counts, start = self._anchor
        if start != self.n:
            counts = _advanced(self.j, counts, start, self.n)
            _set(self, "_anchor", (counts, self.n))
        return counts

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
    """Advance the tensor one iterate, in constant time: the result is an
    EdgeTensor with t's anchor, whose counts are computed when first read
    (see _advanced). It reads no counts of t."""
    new = object.__new__(EdgeTensor)
    _set(new, "j", t.j)
    _set(new, "n", t.n + 1)
    _set(new, "_anchor", t._anchor)
    return new


def c_count(t: EdgeTensor) -> int:
    """Weighted tally equal to the number of solutions of h^n(x) = x."""
    counts = t.counts
    return sum(counts[r][c] for r, c in _rule(t.j).fixed)


def d_count(t: EdgeTensor) -> int:
    """Weighted tally equal to the number of solutions of h^n(x) = -x."""
    counts = t.counts
    return sum(counts[r][c] for r, c in _rule(t.j).antifixed)


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


def expand_word(j: int, n: int, word_cap: int = DEFAULT_WORD_CAP) -> EdgeTensor:
    """Tally a(k, i) by literal substitution instead of the step.

    Each edge is kept as (row, lap): the lap (u, v) of the word and the
    bucket row of its n=1 ancestor. One expansion pass replaces a lap by the
    laps it splits into, the laps between the images of the nodes of g_j met
    on the sweep from u to v. Those laps tile the extent of the lap they
    replace, so the row carried down is the bucket every descendant lies
    in. Exponential in n; guarded by word_cap and used only for
    cross-validation.
    """
    _check_j(j)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rule = _rule(j)
    splits = rule.splits
    laps = list(enumerate(rule.laps))
    for depth in range(2, n + 1):
        new_laps = []
        for row, lap in laps:
            new_laps += [(row, sub) for sub in splits[lap]]
            if len(new_laps) > word_cap:
                raise WordLengthError(
                    f"expansion at n={depth} exceeds {word_cap} symbols")
        laps = new_laps
    columns, size = rule.columns, 2 * j - 1
    edges = Counter((row, columns[lap]) for row, lap in laps)
    return EdgeTensor(j, n, tuple(tuple(edges[r, c] for c in range(size))
                                  for r in range(size)))
