"""Memoized integer sequences: recurrence families and divisibility-preserving
combinators.

Every sequence is defined on n >= 1 and carries a provenance flag saying
which divisibility guarantee (if any) it inherits. Verification code uses the
flags purely as report labels; it never skips a check because of them.

A sequence's values are exact ints, from `eval(n)` (and `seq(n)`), which
reads the sequence's one cache, or integral `decimal.Decimal`s, from
`_stream(stop)`, computed under `divseq.arith.exact_context()` and cached
nowhere. `str` of a Decimal is linear in its length, where `str` of an int
is quadratic, so the command line prints values from a stream.

A sequence computes values in one place only, its `_tail(num)`: an
iterator of q(1), q(2), ... in number type num, read from fresh tails of
the sequences a value reads, or from the Decimals a table parsed. The
cache, when short of n, is extended from the one int tail the sequence
keeps between fills, so a combinator fills no cache of its parts; a stream
reads a tail of its own. Whether q(1..n) can be computed at all, and which
error it meets, `_reach()` and `_refusal(n)` decide from the expression
alone, before any value is computed. The one other route is a
LinearRecurrence's `eval` of a far n (see its docstring): it jumps,
computing x**(n-1) modulo the characteristic polynomial, and caches
nothing.
"""

from __future__ import annotations

import sys
import threading
from bisect import bisect_left
from contextlib import contextmanager
from decimal import Decimal
from functools import partial, reduce
from itertools import islice
from operator import mul

from ._charpoly import _x_power_mod
from ._quote import quoted
from .arith import exact_context

__all__ = [
    "Sequence",
    "LinearRecurrence",
    "TableRangeError",
    "FillCapExceededError",
    "FILL_CAP",
    "make_theorem4",
    "make_theorem5_phi",
    "make_theorem5_psi",
    "constant",
    "linear_combine",
    "dilate",
    "dilate_odd",
    "product",
    "parse_table",
    "load_table",
    "MAP_DERIVED_PHI",
    "ODD_MAP_DERIVED_PSI",
    "PHI1_CLOSURE",
    "NO_GUARANTEE",
]

# largest n a sequence fills its cache to
FILL_CAP = 10**7

# Provenance flags. MAP_DERIVED_PHI marks fixed-point counts of some self-map
# (phi1 values divisible by n); ODD_MAP_DERIVED_PSI marks g^n(x) = -x counts
# of some odd self-map (phi2 values divisible by 2n); PHI1_CLOSURE marks
# sequences whose phi1 divisibility survives via linear-combination closure
# but which are not known to count anything.
MAP_DERIVED_PHI = "map-derived-phi"
ODD_MAP_DERIVED_PSI = "odd-map-derived-psi"
PHI1_CLOSURE = "phi1-closure"
NO_GUARANTEE = "no-guarantee"

_PHI1_SAFE = (MAP_DERIVED_PHI, PHI1_CLOSURE)


class TableRangeError(LookupError):
    """Evaluation past the end of an external value table."""


class FillCapExceededError(RuntimeError):
    """A fill or a stream past n = FILL_CAP."""


class Sequence:
    """Integer-valued function on n >= 1 with one memoized, append-only int
    cache, _values, extended bottom-up (never by recursion on n) from one
    int tail, _ints, which a fill leaves where it stopped, so an ascending
    scan is linear in n and safe at any depth; eval() may instead jump to a
    far n without filling (see LinearRecurrence). The cache is guarded by
    a lock; concurrent eval() calls return identical values. Decimal values
    come only from _stream, which caches nothing.

    A subclass computes its values in _tail(num), from q(1) on. One that
    reaches less far than FILL_CAP says so in _reach, and names the error
    below the cap in _shortfall; one whose values read other sequences at
    the same n lists them in _parts.
    """

    _parts = ()

    def __init__(self, seq_id: str, guarantee: str = NO_GUARANTEE):
        self.id = seq_id
        self.guarantee = guarantee
        self._lock = threading.Lock()
        self._values: list[int] = []
        # the int tail that _fill extends _values from, at q(len + 1)
        self._ints = None

    def eval(self, n: int) -> int:
        """The value at n as an int: read from the cache, jumped to (see
        LinearRecurrence) or, failing that, filled up to n."""
        if not 0 < n <= len(self._values):
            value = self._jump(n)
            if value is not None:
                return value
            with self._lock:
                self._fill(n)
        return self._values[n - 1]

    def __call__(self, n: int) -> int:
        return self.eval(n)

    def _jump(self, n: int):
        """The int value at n computed without touching the cache, or None
        where eval should fill instead; only a LinearRecurrence jumps."""
        return None

    def _fill(self, n: int):
        """Extend _values to q(1..n) from the int tail kept in _ints; past
        _reach() refuse, before any value is computed."""
        if n < 1:
            raise ValueError(f"sequence domain is n >= 1, got {n}")
        if n > self._reach():
            raise self._refusal(n)
        # a fill that waited for the lock may find values already past n
        if n > len(self._values):
            # off the sequence while it runs: a tail that an exception ended
            # is dropped, and the next fill starts anew past the cached values
            tail, self._ints = self._ints, None
            if tail is None:
                tail = islice(self._tail(int), len(self._values), None)
            self._values.extend(islice(tail, n - len(self._values)))
            self._ints = tail

    def _reach(self) -> int:
        """The largest N for which q(1), ..., q(N) can all be computed,
        decided without filling: for a recurrence, FILL_CAP, read when
        called."""
        return FILL_CAP

    def _refusal(self, n: int) -> Exception:
        """The error a fill to n > _reach() raises, found from the
        expression: past FILL_CAP, for every sequence, the fill cap, naming
        n; below it, _shortfall(n)."""
        if n > FILL_CAP:
            return FillCapExceededError(
                f"n={n} is past the fill cap of {FILL_CAP} values")
        return self._shortfall(n)

    def _shortfall(self, n: int) -> Exception:
        """The error a fill to n, _reach() < n <= FILL_CAP, raises; a
        recurrence reaches FILL_CAP, so it has none."""
        raise NotImplementedError

    def _check_reach(self, n_max: int):
        """Raise the first error that q(1..n_max) meets past _reach() and
        that is not a TableRangeError, before any value is computed; a
        report leaves those to the rows they name.

        Whether _refusal(n) is a TableRangeError changes at most once as n
        grows, from yes to no: up to FILL_CAP a table refuses every n
        alike, a pointwise sequence as its first short part does at one n
        and a dilation as its base at k*n, and past FILL_CAP every sequence
        meets the fill cap. So the first other error is found by bisection
        of the first FILL_CAP + 1 n past the reach."""
        past = range(self._reach() + 1, n_max + 1)[:FILL_CAP + 1]
        i = bisect_left(past, True, key=lambda n: not isinstance(
            self._refusal(n), TableRangeError))
        if i < len(past):
            raise self._refusal(past[i])

    def _stream(self, stop: int):
        """An iterator of q(1), ..., q(stop) as integral Decimals, each
        computed when it is asked for, inside exact_context(), and cached
        nowhere.

        Where q(1..stop) cannot all be computed, it refuses at once with
        the error at _reach() + 1, the first n an ascent cannot compute."""
        if stop > self._reach():
            raise self._refusal(self._reach() + 1)
        return _in_exact_context(islice(self._tail(Decimal), stop))

    def __repr__(self):
        return f"<{type(self).__name__} {self.id}>"


class LinearRecurrence(Sequence):
    """q(n) = head(n) for n <= order, the number of coeffs, then
    q(n) = coeffs[0]*q(n-1) + ... + coeffs[order-1]*q(n-order) + constant.

    head is called only for the n being computed, so a family with a large
    order computes none of its seed values before they are asked for. It
    returns an int, converted to the number type being computed. coeffs is
    any iterable, read into a tuple, or the theorem families' lazy view,
    kept as given, with its order. A tail reads each entry once, on its
    first step past the head (a Decimal tail converts them and the
    constant), so a fill or stream that stays in the head reads none.

    eval(n) has two routes. A jump makes about order**2 * log2(n)
    multiplications where a fill makes order additions per value, and
    multiplying grows faster with the values' size than adding. So a jump
    to n is reckoned to cost as much as filling order * b * max(1, b - 9)
    values, b = n.bit_length(). eval jumps when 0 < order and the int cache
    is short of n by more than that plus the reckoned cost of the earlier
    jumps that went past every jump before them, the ones a fill would
    have made unneeded. The jump reads the coefficients and the head
    afresh, takes no lock and caches nothing. Otherwise, and always past
    FILL_CAP (which the fill refuses), eval fills as every Sequence does.
    An ascending scan is short by 1 at each step, so it never jumps; a
    strided one jumps while its values are small, then fills once its
    jumps would have paid for the fill. Evaluations at or below the
    farthest jump (a report's divisors, the same n again) add nothing.
    """

    def __init__(self, seq_id: str, guarantee: str, head, coeffs,
                 constant: int):
        super().__init__(seq_id, guarantee)
        self.head = head
        if isinstance(coeffs, _FamilyCoeffs):
            self.coeffs, self.order = coeffs, coeffs.order
        else:
            self.coeffs = tuple(coeffs)
            self.order = len(self.coeffs)
        self.constant = constant
        # the farthest n jumped to, and the reckoned cost, in values filled,
        # of the jumps that went past every one before them; an update that
        # concurrent jumps lose only moves a fill
        self._farthest = self._jumped = 0

    def _tail(self, num: type):
        # a value reads only the order values before it, so a sliding window
        # of them, in num, stands in for the cache
        window = []
        for n in range(1, self.order + 1):
            value = num(self.head(n))
            window.append(value)
            yield value
        # from here on the window holds order values, so each new one
        # pushes out the oldest. q(n-i) is window[-i]: terms with
        # coefficient 1 are added without a multiplication, and terms with
        # coefficient 0 are dropped
        terms = [(-i, c) for i, c in enumerate(self.coeffs, 1) if c]
        units = tuple(i for i, c in terms if c == 1)
        lags = tuple(i for i, c in terms if c != 1)
        factors = tuple(c for _, c in terms if c != 1)
        constant = self.constant
        if num is not int:
            factors, constant = tuple(map(num, factors)), num(constant)
        at = window.__getitem__
        while True:
            value = sum(map(mul, factors, map(at, lags)),
                        sum(map(at, units), constant))
            window.append(value)
            del window[0]
            yield value

    def _jump(self, n: int):
        b = n.bit_length()
        cost = self.order * b * max(1, b - 9)
        if not 0 < cost + self._jumped < n - len(self._values) \
                or n > FILL_CAP:
            return None
        if n > self._farthest:
            self._farthest = n
            self._jumped += cost
        coeffs = list(self.coeffs)
        seed = [self.head(i) for i in range(1, self.order + 1)]
        if self.constant:
            # subtracting the recurrence at n-1 from the one at n drops the
            # constant: from n = order+2 on, q follows the recurrence of
            # (x - 1)*P(x), of order + 1, whose head gains q(order+1)
            seed.append(sum(map(mul, coeffs, reversed(seed)), self.constant))
            coeffs = [a - b for a, b in zip(coeffs + [0], [-1] + coeffs)]
        return sum(map(mul, _x_power_mod(n - 1, coeffs), seed))


class _FamilyCoeffs:
    """The coefficients of a theorem family's recurrence, computed when
    read, so a family of any order costs nothing to build: j ones for
    theorem4, and for the theorem5 families 2*min(i, 2j-i) - 1 for lags
    i = 1..2j-1 (so 2i-1 up to lag j, then 4j-2i-1; 2j is order + 1). It
    has no len(), which fails past sys.maxsize: the order is an attribute."""

    __slots__ = ("order", "zigzag")

    def __init__(self, j: int, zigzag: bool):
        self.order = 2 * j - 1 if zigzag else j
        self.zigzag = zigzag

    def __getitem__(self, index: int) -> int:
        i = range(1, self.order + 1)[index]  # the lag; IndexError past the end
        return 2 * min(i, self.order + 1 - i) - 1 if self.zigzag else 1


class TableSequence(Sequence):
    """Values loaded from an external table, held once, as integral
    Decimals: the Decimal tail yields them as they are and the int tail
    converts them, so the int cache starts empty and _fill extends it as
    for any sequence. Evaluation past the end is an error, never an
    extrapolation. It reaches its length, up to FILL_CAP, and a refusal
    names the n it was asked for."""

    def __init__(self, decimals, source: str = "<table>"):
        super().__init__(f"table({source})")
        self._decimals = list(decimals)

    def _reach(self) -> int:
        return min(FILL_CAP, len(self._decimals))

    def _shortfall(self, n: int) -> Exception:
        return TableRangeError(f"{self.id} holds {len(self._decimals)} "
                               f"values; n={n} is out of range")

    def _tail(self, num: type):
        # Decimal() of a Decimal is the value itself
        return map(num, self._decimals)


class PointwiseSequence(Sequence):
    """n -> combine(num, a(n), b(n), ...) of its parts' values in number
    type num. It reaches as far as its shortest part, so up to FILL_CAP as
    its parts do; below the cap, any n gets the error that the first part
    short of _reach() + 1 gives there, where an ascent stops."""

    def __init__(self, seq_id: str, guarantee: str, parts, combine):
        super().__init__(seq_id, guarantee)
        self._parts = tuple(parts)
        self._combine = combine
        # once: a reach found anew on each call walks the whole expression
        self._reach_n = min(s._reach() for s in self._parts)

    def _reach(self) -> int:
        return self._reach_n

    def _shortfall(self, n: int) -> Exception:
        m = self._reach_n + 1
        return next(s._refusal(m) for s in self._parts if s._reach() < m)

    def _tail(self, num: type):
        return map(partial(self._combine, num),
                   *[s._tail(num) for s in self._parts])


class DilationSequence(Sequence):
    """n -> seq(k*n), with its base's label for every k >= 1. (g^k)^n =
    g^(kn), so seq(k*n) counts for g^k what seq(n) counts for g: fixed
    points of any map, antifixed points of an odd map, and g^k is odd when
    g is (g^k(-x) = -g^k(x) by induction on k). A phi1-closure sequence is
    an integer combination of such counts (theorem4 is m*T + k*1, const(v)
    is v*1, where 1 counts the fixed point of a one-point map, and lin
    combines them), and dilation maps each term to the count for the
    iterate; no-guarantee stays no-guarantee. It reaches its base's
    reach // k, so up to FILL_CAP as its base does; below the cap, n gets
    the base's error at k*n."""

    def __init__(self, seq: Sequence, k: int, seq_id: str):
        super().__init__(seq_id, seq.guarantee)
        self.base = seq
        self.k = k
        # once, as a PointwiseSequence finds its reach
        self._reach_n = seq._reach() // k

    def _reach(self) -> int:
        return self._reach_n

    def _shortfall(self, n: int) -> Exception:
        return self.base._refusal(self.k * n)

    def _tail(self, num: type):
        # every k-th value of the base
        return islice(self.base._tail(num), self.k - 1, None, self.k)


def _in_exact_context(values):
    """Yield the items of the iterator values, each computed inside
    exact_context() and handed out in the caller's context, a negative zero
    (0 times a negative number, or -0 in a table) as 0, which prints as the
    int 0 does."""
    while True:
        with exact_context():
            value = next(values, None)
        if value is None:
            return
        yield value or Decimal()


@contextmanager
def unlimited_int_digits():
    """Lift Python's limit on int<->str conversion (4300 digits by default,
    Python >= 3.11) inside the block and restore it afterwards; values gain
    digits linearly in n and soon pass it. The factories below run inside
    it, since their ids print parameters of any size."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@unlimited_int_digits()
def make_theorem4(j: int, k: int, m: int) -> Sequence:
    """Sequence with base values m*(2**n - 1) + k for n <= j and recurrence
    sum of the previous j values minus (j-1)*k afterwards. j >= 2."""
    if j < 2:
        raise ValueError(f"theorem4 requires j >= 2, got {j}")
    # k=0, m=1 is the plain 2**n - 1 family, which counts fixed points of
    # an interval map; any other offset is a linear-combination closure.
    guarantee = MAP_DERIVED_PHI if (k == 0 and m == 1) else PHI1_CLOSURE
    return LinearRecurrence(f"theorem4(j={j},k={k},m={m})", guarantee,
                            lambda n: m * (2**n - 1) + k,
                            _FamilyCoeffs(j, zigzag=False), -(j - 1) * k)


@unlimited_int_digits()
def make_theorem5_phi(j: int) -> Sequence:
    """The theorem5-phi family for j >= 2: 3**n - 2 up to n = j, a middle band
    3**n - 2 - 4n*3**(n-j-1), then the order-(2j-1) recurrence. It counts
    solutions of h^n(x) = x for the zigzag map of [-j, j] (see
    divseq.interval_map.build_gj)."""
    if j < 2:
        raise ValueError(f"theorem5-phi requires j >= 2, got {j}")

    def head(n):
        if n <= j:
            return 3**n - 2
        return 3**n - 2 - 4 * n * 3 ** (n - j - 1)

    return LinearRecurrence(f"theorem5phi(j={j})", MAP_DERIVED_PHI, head,
                            _FamilyCoeffs(j, zigzag=True), 0)


@unlimited_int_digits()
def make_theorem5_psi(j: int) -> Sequence:
    """The theorem5-psi family for j >= 2: 3**n up to n = j-1, 3**j - 2j at
    n = j, a middle band 3**n - 4n*3**(n-j-1), then the shared recurrence.
    It counts solutions of h^n(x) = -x for the same zigzag map."""
    if j < 2:
        raise ValueError(f"theorem5-psi requires j >= 2, got {j}")

    def head(n):
        if n < j:
            return 3**n
        if n == j:
            return 3**j - 2 * j
        return 3**n - 4 * n * 3 ** (n - j - 1)

    return LinearRecurrence(f"theorem5psi(j={j})", ODD_MAP_DERIVED_PSI, head,
                            _FamilyCoeffs(j, zigzag=True), 0)


@unlimited_int_digits()
def constant(value: int) -> Sequence:
    """The order-0 recurrence q(n) = value."""
    return LinearRecurrence(f"const({value})", PHI1_CLOSURE, None, (), value)


@unlimited_int_digits()
def linear_combine(k: int, seq1: Sequence, m: int, seq2: Sequence) -> Sequence:
    """Pointwise k*seq1(n) + m*seq2(n). phi1 is linear, so phi1
    divisibility survives any integer combination; phi2 is not linear (its
    power-of-two branch subtracts 1), so no psi guarantee ever propagates
    here."""
    ok = seq1.guarantee in _PHI1_SAFE and seq2.guarantee in _PHI1_SAFE
    seq_id = f"lin({k},{seq1.id},{m},{seq2.id})"
    weights = {int: (k, m), Decimal: (Decimal(k), Decimal(m))}

    def combine(num: type, a, b):
        k, m = weights[num]
        return k * a + m * b

    return PointwiseSequence(seq_id, PHI1_CLOSURE if ok else NO_GUARANTEE,
                             (seq1, seq2), combine)


@unlimited_int_digits()
def dilate(seq: Sequence, k: int) -> Sequence:
    """n -> seq(k*n) for k >= 1, with seq's label (see DilationSequence)."""
    if k < 1:
        raise ValueError(f"dilate requires k >= 1, got {k}")
    return DilationSequence(seq, k, f"dilate({seq.id},{k})")


@unlimited_int_digits()
def dilate_odd(seq: Sequence, k: int) -> Sequence:
    """dilate for odd k, under the name dilateodd."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"dilate_odd requires odd k >= 1, got {k}")
    return DilationSequence(seq, k, f"dilateodd({seq.id},{k})")


def product(seqs) -> Sequence:
    """Pointwise product of a nonempty list of sequences."""
    seqs = tuple(seqs)
    if not seqs:
        raise ValueError("product requires at least one sequence")
    # counts multiply: the product map on the product space has this many
    # n-periodic points, so a map-derived flag that every factor has stays
    flags = {s.guarantee for s in seqs}
    if len(seqs) > 1 and flags not in ({MAP_DERIVED_PHI},
                                       {ODD_MAP_DERIVED_PSI}):
        flags = {NO_GUARANTEE}
    return PointwiseSequence(
        "prod(%s)" % ",".join(s.id for s in seqs), flags.pop(), seqs,
        lambda num, *values: reduce(mul, values))


def parse_table(text: str, source: str = "<table>") -> Sequence:
    """Parse an external table: one decimal signed integer per line, line i
    holding the value at n = i; blank lines and # comments are ignored.
    A value is what int() reads: an optional sign, then runs of decimal
    digits (any Unicode Nd digit) joined by single underscores. Values may
    have any number of digits; each is read once, into a Decimal."""
    decimals = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # Decimal() alone would also read points, exponents, NaN and stray
        # underscores; "".isdecimal() is False, so "", "+" and "1__2" fail
        digits = line[1:] if line[0] in "+-" else line
        if not all(map(str.isdecimal, digits.split("_"))):
            raise ValueError(
                f"{source}:{lineno}: not a decimal integer: {quoted(line)}")
        decimals.append(Decimal(line))
    return TableSequence(decimals, source)


def load_table(path) -> Sequence:
    with open(path, encoding="utf-8") as fh:
        return parse_table(fh.read(), source=str(path))
