"""Exact piecewise-linear self-maps of a compact interval.

This is the brute-force oracle behind everything else: compose maps with
exact rational breakpoints, build f, f^2, ..., f^n with `iterates`, and
count the solutions of f^n(x) = x and g^n(x) = -x by enumerating sign
changes segment by segment on the iterate itself. The counters take the map
to count on; `iterates` is the one place that composes powers. No floats
anywhere. A map keeps its nodes as integer numerators over one common
denominator, so composing and counting run on Python ints; Fractions appear
only where a map is built from or read back as rationals. The per-node work
of composing and counting runs in C-level `map` passes over those lists.

A composition keeps only the nodes where its slope changes. It tests
collinearity only where a slope can fail to change: at the joins between
the inner map's segments and at cuts through the outer map's straight
nodes, which a map built by `compose` has none of. So `iterates` tests a
few nodes per power, not every node.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import compress, count, repeat
from math import gcd, lcm
from operator import add, and_, eq, floordiv, mul, not_, or_, sub

from ._quote import quoted
from ._record import Record

__all__ = [
    "PLMap",
    "PieceCapExceededError",
    "InfiniteSolutionsError",
    "DEFAULT_PIECE_CAP",
    "build_gj",
    "compose",
    "iterates",
    "fixed_point_solutions",
    "antifixed_point_solutions",
    "count_fixed",
    "count_antifixed",
    "is_odd_map",
    "parse_map_file",
    "load_map_file",
]

# Iterates of the zigzag maps grow like 3**n pieces; the cap turns runaway
# composition into a clean error at roughly n = 14 instead of an OOM.
DEFAULT_PIECE_CAP = 10_000_000


class PieceCapExceededError(RuntimeError):
    """Composition would produce more linear pieces than the configured cap.

    When raised by `iterates`, `n` is the iterate that would exceed it.
    """

    n: int | None = None


class InfiniteSolutionsError(ArithmeticError):
    """A linear piece coincides with the line being solved against, so the
    solution set is a whole interval rather than a finite set of points."""


class PLMap(Record):
    """Continuous piecewise-linear self-map of [xs[0], xs[-1]].

    Given as parallel sequences of breakpoints xs (strictly increasing, at
    least two) and values ys, with linear interpolation in between. Every
    value must lie inside the domain, so any PLMap is a self-map and
    iteration is always defined. Instances are immutable records (see
    divseq._record) of the fields den, xnum and ynum.

    The nodes are stored as integer numerators `xnum`, `ynum` over one
    positive common denominator `den`, the lcm of the node denominators.
    That form is canonical, so equality and hashing compare integers. `xs`
    and `ys` are tuples of Fractions, built from the numerators on each read.
    `_straight` lists the interior nodes whose neighbours lie on one line
    with them, ascending; `compose` reads it and leaves it empty, since its
    results keep only the nodes where the slope changes.
    """

    __match_args__ = ("den", "xnum", "ynum")
    __slots__ = ("den", "xnum", "ynum", "_straight")

    def __init__(self, xs, ys):
        xs = tuple(Fraction(x) for x in xs)
        ys = tuple(Fraction(y) for y in ys)
        if len(xs) != len(ys):
            raise ValueError(f"{len(xs)} breakpoints but {len(ys)} values")
        if len(xs) < 2:
            raise ValueError("a map needs at least 2 breakpoints")
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise ValueError(f"breakpoints not strictly increasing at {a}")
        den = lcm(*(v.denominator for v in xs + ys))
        xnum = tuple(v.numerator * (den // v.denominator) for v in xs)
        ynum = tuple(v.numerator * (den // v.denominator) for v in ys)
        _check_self_map(den, xnum, ynum)
        super().__init__(den, xnum, ynum)
        straight = _collinear(xnum, ynum, range(1, len(xnum) - 1))
        object.__setattr__(self, "_straight", tuple(straight))

    @classmethod
    def _trusted(cls, den: int, xnum: tuple, ynum: tuple) -> PLMap:
        """A map from numerators already known to be valid, self-mapping and
        canonical, with no straight interior node; nothing is checked."""
        self = object.__new__(cls)
        Record.__init__(self, den, xnum, ynum)
        object.__setattr__(self, "_straight", ())
        return self

    def __reduce__(self):
        # copies and pickles go through __init__, which refinds _straight
        return PLMap, (self.xs, self.ys)

    @property
    def xs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.xnum)

    @property
    def ys(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(y, self.den) for y in self.ynum)

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (Fraction(self.xnum[0], self.den),
                Fraction(self.xnum[-1], self.den))

    @property
    def pieces(self) -> int:
        return len(self.xnum) - 1

    def __call__(self, x) -> Fraction:
        if type(x) is int:
            p, q = x, 1
        else:
            x = Fraction(x)
            p, q = x.numerator, x.denominator
        xnum, den = self.xnum, self.den
        t = p * den                     # x * den == t / q
        if not xnum[0] * q <= t <= xnum[-1] * q:
            lo, hi = self.domain
            raise ValueError(f"{x} is outside the domain [{lo}, {hi}]")
        i = bisect_right(xnum, t // q) - 1
        x0 = xnum[i]
        if x0 * q == t:
            return Fraction(self.ynum[i], den)
        x1, y0, y1 = xnum[i + 1], self.ynum[i], self.ynum[i + 1]
        return Fraction(y0 * q * (x1 - x0) + (y1 - y0) * (t - x0 * q),
                        den * q * (x1 - x0))

    def __repr__(self):
        lo, hi = self.domain
        return f"<PLMap [{lo}, {hi}] with {self.pieces} pieces>"


def _check_self_map(den: int, xnum, ynum):
    """Raise ValueError naming the first value outside the domain."""
    lo, hi = xnum[0], xnum[-1]
    if lo <= min(ynum) and max(ynum) <= hi:
        return
    for x, y in zip(xnum, ynum):
        if not lo <= y <= hi:
            raise ValueError(
                f"not a self-map: value {Fraction(y, den)} at "
                f"x={Fraction(x, den)} is outside "
                f"[{Fraction(lo, den)}, {Fraction(hi, den)}]")


def build_gj(j: int) -> PLMap:
    """The zigzag map of [-j, j]: x+1 on [-j, -2], -1 -> j, 1 -> -j, x-1 on
    [2, j], linear across [-2, -1], [-1, 1], [1, 2]. Odd by construction."""
    if j < 2:
        raise ValueError(f"build_gj requires j >= 2, got {j}")
    xs = list(range(-j, 0)) + list(range(1, j + 1))
    ys = []
    for x in xs:
        if x == -1:
            ys.append(j)
        elif x == 1:
            ys.append(-j)
        elif x < 0:
            ys.append(x + 1)
        else:
            ys.append(x - 1)
    return PLMap(xs, ys)


def _collinear(xs, ys, at) -> list[int]:
    """The positions p in `at` (interior, ascending) where the nodes p-1, p
    and p+1 lie on one line, tested in C-level map passes."""
    at = list(at)
    before, after = list(map((-1).__add__, at)), list(map((1).__add__, at))
    x0, x1, x2 = (list(map(xs.__getitem__, p)) for p in (before, at, after))
    y0, y1, y2 = (list(map(ys.__getitem__, p)) for p in (before, at, after))
    # collinear iff the slopes match, cross-multiplied
    left = map(mul, map(sub, y1, y0), map(sub, x2, x1))
    right = map(mul, map(sub, y2, y1), map(sub, x1, x0))
    return list(compress(at, map(eq, left, right)))


def _affine(num: int, slope: int, den: int):
    """v -> (num + slope*v) / den as (num, slope, den) in lowest common
    terms with den > 0."""
    if den < 0:
        num, slope, den = -num, -slope, -den
    g = gcd(den, num, slope)
    return num // g, slope // g, den // g


def compose(outer: PLMap, inner: PLMap,
            piece_cap: int = DEFAULT_PIECE_CAP) -> PLMap:
    """Exact composition outer(inner(x)) on inner's domain.

    Breakpoints are inner's nodes plus, on every non-constant inner segment,
    the preimages of outer's breakpoints whose levels fall strictly between
    the segment's endpoint values. The result is linear on each cell, so its
    node values determine it. On one inner segment a preimage is an affine
    function of the level's numerator, and the value there is outer's node
    value, so each one costs a few integer operations. Either argument order
    works; it is cheapest with the map of fewer pieces inside, as `iterates`
    does.

    The result keeps only the nodes where its slope changes. Inside one
    inner segment of slope s, the cell on outer's piece k has slope
    s * (slope of piece k), so two neighbouring cells there can share a
    slope only at a cut through a straight node of outer (none when outer
    came from compose). Collinearity is tested only at those cuts and at
    inner's interior nodes, the joins between inner segments; every other
    node is a kink by construction.
    """
    do, xo, yo = outer.den, outer.xnum, outer.ynum
    di, xi, yi = inner.den, inner.xnum, inner.ynum
    # An inner value y/di meets outer's level xo[k]/do where y*do == xo[k]*di,
    # so the floor and ceiling of y*do/di locate levels by bisection on xo.
    scaled = [y * do for y in yi]
    if min(scaled) < xo[0] * di or max(scaled) > xo[-1] * di:
        raise ValueError("range of inner map exceeds domain of outer map")
    floor = [s // di for s in scaled]
    ceil = [-(-s // di) for s in scaled]
    segments = len(xi) - 1
    cuts = {}       # segment -> (first, stop, x at level xo[k] as affine in xo[k])
    needed = segments
    for i in range(segments):
        if yi[i] < yi[i + 1]:
            first, stop = bisect_right(xo, floor[i]), bisect_left(xo, ceil[i + 1])
        elif yi[i] > yi[i + 1]:
            first, stop = bisect_right(xo, floor[i + 1]), bisect_left(xo, ceil[i])
        else:       # constant segments contribute no cuts
            continue
        if first < stop:
            # x = x0 + (b - y0) * dx / dy at b = xo[k]/do, over di*do*dy
            dx, dy = xi[i + 1] - xi[i], yi[i + 1] - yi[i]
            cuts[i] = (first, stop, _affine(do * (xi[i] * dy - yi[i] * dx),
                                            di * dx, di * do * dy))
            needed += stop - first
    if needed > piece_cap:
        raise PieceCapExceededError(
            f"composition needs {needed} pieces; cap is {piece_cap}")
    # outer at inner's node value y/di, on outer's piece k, as affine in y
    last = len(xo) - 2
    branches = {}
    node_values = []
    for f in floor:
        k = min(bisect_right(xo, f) - 1, last)
        if k not in branches:
            dx, dy = xo[k + 1] - xo[k], yo[k + 1] - yo[k]
            branches[k] = _affine(di * (yo[k] * dx - dy * xo[k]), do * dy,
                                  di * do * dx)
        node_values.append(branches[k])
    den = lcm(di, do, *(e for _, _, (_, _, e) in cuts.values()),
              *(e for _, _, e in branches.values()))

    scale_i, scale_o, straight = den // di, den // do, outer._straight
    new_x, new_y = [], []
    tested = []     # output positions where collinearity must be tested
    for i in range(segments + 1):
        if 0 < i < segments:
            tested.append(len(new_x))
        a, c, e = node_values[i]
        new_x.append(xi[i] * scale_i)
        new_y.append((a + c * yi[i]) * (den // e))
        if i in cuts:
            first, stop, (a, c, e) = cuts[i]
            a, c = a * (den // e), c * (den // e)
            levels, values = xo[first:stop], yo[first:stop]
            # outer's straight nodes among the levels cut, as positions
            base = len(new_x)
            cut_straight = straight[bisect_left(straight, first):
                                    bisect_left(straight, stop)]
            if yi[i] > yi[i + 1]:
                levels, values = levels[::-1], values[::-1]
                tested += [base + stop - 1 - k
                           for k in reversed(cut_straight)]
            else:
                tested += [base + k - first for k in cut_straight]
            new_x += map(a.__add__, map(c.__mul__, levels))
            new_y += values if scale_o == 1 else map(scale_o.__mul__, values)
    drop = _collinear(new_x, new_y, tested)
    if drop:
        keep = bytearray([1]) * len(new_x)
        for p in drop:
            keep[p] = 0
        new_x, new_y = list(compress(new_x, keep)), list(compress(new_y, keep))
    g = gcd(den, *new_x, *new_y)
    if g > 1:
        den //= g
        new_x = map(floordiv, new_x, repeat(g))
        new_y = map(floordiv, new_y, repeat(g))
    new_x, new_y = tuple(new_x), tuple(new_y)
    _check_self_map(den, new_x, new_y)
    return PLMap._trusted(den, new_x, new_y)


def iterates(f: PLMap, n_max: int, piece_cap: int = DEFAULT_PIECE_CAP):
    """Yield f, f^2, ..., f^n_max.

    Each f^n is compose(f^(n-1), f): every new breakpoint is then a
    pull-back of a breakpoint of f^(n-1) through one of f's few branches.
    A PieceCapExceededError carries the failing iterate in its `n`.
    """
    if n_max < 1:
        return
    power = f
    yield power
    for n in range(2, n_max + 1):
        try:
            power = compose(power, f, piece_cap)
        except PieceCapExceededError as exc:
            exc.n = n
            raise
        yield power


def _line_crossings(f: PLMap, sign: int):
    """Where f meets the line y = sign*x, as (d, crossings); the one pass
    behind both the counters and the solvers.

    d lists the integer differences y - sign*x at f's nodes, so a zero of d
    is a root at that node; crossings lists, ascending, each k where d
    changes sign strictly between nodes k and k+1, which hides one root
    inside that segment. Both come from C-level passes over sign masks.
    sign = -1 requires a domain symmetric about 0, so that -x stays inside
    it.
    """
    if sign < 0:
        lo, hi = f.domain
        if lo != -hi:
            raise ValueError(f"domain [{lo}, {hi}] is not symmetric about 0")
    d = list(map(sub if sign > 0 else add, f.ynum, f.xnum))
    if d.count(0) > 1:
        zero = list(map(not_, d))
        on_line = next(compress(count(), map(and_, zero, zero[1:])), None)
        if on_line is not None:
            den, xnum = f.den, f.xnum
            line = "x" if sign > 0 else "-x"
            raise InfiniteSolutionsError(
                f"segment [{Fraction(xnum[on_line], den)}, "
                f"{Fraction(xnum[on_line + 1], den)}] coincides with "
                f"y = {line}")
    above = list(map((0).__lt__, d))
    below = list(map((0).__gt__, d))
    crossings = list(compress(count(), map(or_, map(and_, above, below[1:]),
                                           map(and_, below, above[1:]))))
    return d, crossings


def _solutions(f: PLMap, sign: int) -> tuple[Fraction, ...]:
    """Sorted exact solutions of f(x) = sign*x."""
    d, crossings = _line_crossings(f, sign)
    den, xnum = f.den, f.xnum
    # a root at node k sorts as 2k, one inside segment k as 2k+1
    roots = [(2 * k, Fraction(xnum[k], den))
             for k in compress(count(), map(not_, d))]
    # the zero of the difference, linear from d0 at x0 to d1 at x1
    roots += [(2 * k + 1, Fraction(xnum[k + 1] * d[k] - xnum[k] * d[k + 1],
                                   den * (d[k] - d[k + 1])))
              for k in crossings]
    return tuple(root for _, root in sorted(roots))


def fixed_point_solutions(f: PLMap):
    """Sorted exact solutions of f(x) = x."""
    return _solutions(f, 1)


def antifixed_point_solutions(g: PLMap):
    """Sorted exact solutions of g(x) = -x; requires a domain symmetric about
    0 so that -x stays inside it."""
    return _solutions(g, -1)


def count_fixed(f: PLMap) -> int:
    """Number of distinct solutions of f(x) = x."""
    d, crossings = _line_crossings(f, 1)
    return d.count(0) + len(crossings)


def count_antifixed(g: PLMap) -> int:
    """Number of distinct solutions of g(x) = -x."""
    d, crossings = _line_crossings(g, -1)
    return d.count(0) + len(crossings)


def is_odd_map(f: PLMap) -> bool:
    """True iff the domain is symmetric about 0 and f(-x) = -f(x) everywhere.

    Checking on the union of f's nodes and their negations suffices: between
    adjacent points of that set both f(x) and -f(-x) are linear, so agreement
    at the points forces agreement on the intervals.
    """
    lo, hi = f.domain
    if lo != -hi:
        return False
    nodes = set(f.xs)
    return all(f(-x) == -f(x) for x in nodes | {-x for x in nodes})


# a map-file coordinate: an integer or p/q in ASCII digits; Fraction alone
# would also take exponents, so that 1e3000000 asks for millions of digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_map_file(text: str, source: str = "<map>") -> PLMap:
    """Parse the map file format: a header line `domain lo hi`, then one
    `x y` pair per line with rationals written as p/q or plain integers
    (an optional sign, ASCII digits), strictly increasing x from lo to hi.
    Blank lines and # comments are ignored."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise ValueError(f"{source}: empty map file")

    def rational(token, lineno):
        if _RATIONAL.fullmatch(token):
            try:
                return Fraction(token)
            except (ValueError, ZeroDivisionError):
                pass
        raise ValueError(f"{source}:{lineno}: bad rational {quoted(token)}")

    headno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "domain":
        raise ValueError(f"{source}:{headno}: expected header 'domain lo hi'")
    lo, hi = rational(parts[1], headno), rational(parts[2], headno)

    xs, ys = [], []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                f"{source}:{lineno}: expected 'x y', got {quoted(line)}")
        xs.append(rational(parts[0], lineno))
        ys.append(rational(parts[1], lineno))
    if not xs or xs[0] != lo or xs[-1] != hi:
        raise ValueError(
            f"{source}: node list must start at x={lo} and end at x={hi}")
    try:
        return PLMap(xs, ys)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_map_file(path) -> PLMap:
    with open(path, encoding="utf-8") as fh:
        return parse_map_file(fh.read(), source=str(path))
