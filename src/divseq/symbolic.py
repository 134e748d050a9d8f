"""Edge-count engine for the zigzag maps (j >= 3).

The graph of the n-th iterate of the zigzag map is encoded as a word of
integer symbols: the map's values at sample points between which it is
linear. Each adjacent symbol pair is an edge; edges come in 2j-1 label
classes and fall into 2j-1 x-position buckets. This module holds the n=1
edge tensor, the seven-case linear recurrence advancing it, the c/d
aggregates that count solutions of h^n(x) = x and h^n(x) = -x, and a
literal word-substitution expander used only to cross-validate the
recurrence. j = 2 is excluded: the substitution rules are stated for
j >= 3 only, and j = 2 claims are checked through the interval oracle.

Both paths are exact and cheap per step. `step` shares the two partial sums
a(0) + a(-(j-1)) and a(0) + a(j-1) within each row, so a row costs 2j-1
big-int additions. `expand_word` keeps lap x-coordinates as integer
numerators over one denominator per depth, multiplied by lcm(1, 2j, j+1)
each depth so that every station is an integer numerator, and reads g_j at
the integer stations from a table built once. Validation still runs on every
tensor, each one `step` returns included.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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
    w = j - 1
    grid = [[0] * (2 * j - 1) for _ in range(2 * j - 1)]
    for k in range(-w, -1):
        grid[k + w][k + 1 + w] = 1
    grid[-1 + w][j - 1 + w] = 1
    grid[0 + w][0 + w] = 1
    grid[1 + w][-(j - 1) + w] = 1
    for k in range(2, j):
        grid[k + w][k - 1 + w] = 1
    return EdgeTensor(j, 1, tuple(tuple(r) for r in grid))


def step(t: EdgeTensor) -> EdgeTensor:
    """Advance the tensor one iterate via the seven-case linear recurrence;
    rows (fixed bucket k) evolve independently.

    With w = j-1, every case holds a(0) + a(-w) or a(0) + a(w), so a row
    shares s = a(0) + a(-w) and u = a(0) + a(w): new[-w] = u + a(1),
    new[-(j-2)] = s, new[i] = a(i-1) + s for -(j-3) <= i <= -1,
    new[0] = s + a(w), new[i] = a(i+1) + u for 1 <= i <= j-3,
    new[j-2] = u and new[w] = s + a(-1). That is 2j-1 additions per row.
    Raw column c holds a(c - w)."""
    w = t.j - 1

    def advance(row):
        centre, high = row[w], row[-1]
        s, u = centre + row[0], centre + high
        return (u + row[w + 1], s, *[x + s for x in row[1:w - 1]], s + high,
                *[x + u for x in row[w + 2:-1]], u, s + row[w - 1])

    return EdgeTensor(t.j, t.n + 1, tuple(map(advance, t.counts)))


def c_count(t: EdgeTensor) -> int:
    """Weighted tally equal to the number of solutions of h^n(x) = x."""
    j, w = t.j, t.j - 1
    a = t.entry
    total = sum(a(k, k) for k in range(-w, w + 1))
    total += sum(a(-k, 0) + a(k, 0) for k in range(1, j))
    total += sum(a(-k, -(j - 1)) + a(k, j - 1) for k in range(0, j - 1))
    return total


def d_count(t: EdgeTensor) -> int:
    """Weighted tally equal to the number of solutions of h^n(x) = -x."""
    j, w = t.j, t.j - 1
    a = t.entry
    total = sum(a(k, -k) for k in range(-w, w + 1))
    total += sum(a(-k, 0) + a(k, 0) for k in range(1, j))
    total += sum(a(k, -(j - 1)) + a(-k, j - 1) for k in range(0, j - 1))
    return total


def label_pair(j: int, i: int) -> tuple[int, int]:
    """Canonical symbol pair (u, v) carrying label i (reversals share it)."""
    _check_j(j)
    w = j - 1
    if not -w <= i <= w:
        raise ValueError(f"label must lie in [{-w}, {w}], got {i}")
    if i == -(j - 1):
        return (-j, 1)
    if i <= -1:
        return (i - 1, i)
    if i == 0:
        return (-j, j)
    if i <= j - 2:
        return (i, i + 1)
    return (j, -1)


def pair_label(j: int, u: int, v: int) -> int:
    """Label of the edge with endpoint symbols u, v, in either order."""
    _check_j(j)
    ends = {u, v}
    if ends == {-j, 1}:
        return -(j - 1)
    if ends == {-j, j}:
        return 0
    if ends == {j, -1}:
        return j - 1
    a, b = min(ends), max(ends)
    if b == a + 1 and b <= -1:
        return b
    if b == a + 1 and a >= 1:
        return a
    raise ValueError(f"({u}, {v}) is not an edge of the j={j} alphabet")


def bucket_interval(j: int, k: int) -> tuple[Fraction, Fraction]:
    """x-interval [s_k, t_k] of position bucket k: [k-1, k] left of center,
    the doubled cell [-1, 1] at k = 0, [k, k+1] right of center."""
    _check_j(j)
    w = j - 1
    if not -w <= k <= w:
        raise ValueError(f"bucket index must lie in [{-w}, {w}], got {k}")
    if k <= -1:
        return (Fraction(k - 1), Fraction(k))
    if k == 0:
        return (Fraction(-1), Fraction(1))
    return (Fraction(k), Fraction(k + 1))


def _bucket_of(j: int, x0, x1, den: int = 1) -> int:
    """Bucket containing the x-extent [x0/den, x1/den]; x0 and x1 may be
    integer numerators over den or, with den = 1, Fractions. Edge extents
    never straddle buckets: the n=1 extents each fill exactly one bucket and
    expansion only subdivides."""
    twice, cell = x0 + x1, 2 * den  # the midpoint is twice / cell
    if twice < -cell:
        return -(-twice // cell)  # ceil
    if twice > cell:
        return twice // cell  # floor
    if -cell < twice < cell:
        return 0
    if den != 1:
        x0, x1 = Fraction(x0, den), Fraction(x1, den)
    raise RuntimeError(f"edge extent [{x0}, {x1}] straddles a bucket boundary")


def _tally(j: int, n: int, laps, den: int) -> EdgeTensor:
    w = j - 1
    grid = [[0] * (2 * j - 1) for _ in range(2 * j - 1)]
    edges = Counter((_bucket_of(j, x0, x1, den), u, v)
                    for (u, v, x0, x1) in laps)
    for (k, u, v), count in edges.items():
        grid[k + w][pair_label(j, u, v) + w] += count
    return EdgeTensor(j, n, tuple(tuple(r) for r in grid))


def _stations(u: int, v: int):
    """All nonzero integer levels from u to v inclusive, in sweep order."""
    if u < v:
        return [s for s in range(u, v + 1) if s != 0]
    return [s for s in range(u, v - 1, -1) if s != 0]


def expand_word(j: int, n: int, word_cap: int = DEFAULT_WORD_CAP) -> EdgeTensor:
    """Tally a(k, i) by literal substitution instead of the recurrence.

    Each edge is kept as a lap (u, v, x0, x1): the iterate runs linearly from
    value u at x0 to value v at x1. One expansion pass replaces a lap by the
    laps between consecutive stations s (integer levels met on the sweep from
    u to v), placing station s at its exact rational x via inverse linear
    interpolation and mapping its value through the zigzag map. Exponential
    in n; guarded by word_cap and used only for cross-validation.

    The x-coordinates are integer numerators over one denominator per depth,
    multiplied by L = lcm(1, 2j, j+1) at each pass. Every edge of the alphabet
    has |v - u| in {1, j+1, 2j}, which divides L, so station s lands exactly
    on x0*L + (s-u)*(x1-x0)*(L/(v-u)).
    """
    _check_j(j)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    g = build_gj(j)

    def gi(s: int) -> int:
        out = g(s)
        if out.denominator != 1:
            raise RuntimeError(f"g_{j}({s}) = {out} is not an integer")
        return int(out)

    # seed: values of the map at the nonzero integers, linear in between
    xs = [x for x in range(-j, j + 1) if x != 0]
    image = {x: gi(x) for x in xs}
    laps = [(image[a], image[b], a, b) for a, b in zip(xs, xs[1:])]
    scale = lcm(1, 2 * j, j + 1)
    sweeps = {}  # (u, v) -> station offsets and the images of the stations

    def sweep(u: int, v: int):
        if scale % (v - u):
            raise RuntimeError(
                f"lap ({u}, {v}) is not an edge of the j={j} alphabet")
        stations = _stations(u, v)
        offsets = [(s - u) * (scale // (v - u)) for s in stations]
        values = [image[s] for s in stations]
        return offsets, values, values[1:]

    den = 1
    for depth in range(2, n + 1):
        new_laps = []
        for (u, v, x0, x1) in laps:
            moves = sweeps.get((u, v))
            if moves is None:
                moves = sweeps[u, v] = sweep(u, v)
            offsets, values, next_values = moves
            origin, span = x0 * scale, x1 - x0
            pts = [origin + k * span for k in offsets]
            new_laps += zip(values, next_values, pts, pts[1:])
            if len(new_laps) > word_cap:
                raise WordLengthError(
                    f"expansion at n={depth} exceeds {word_cap} symbols")
        laps = new_laps
        den *= scale
    return _tally(j, n, laps, den)
