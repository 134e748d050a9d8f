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

A sequence computes values in one place only, its `_tail(start, num)`: an
iterator of q(start), q(start+1), ... in number type num, read from the
tails of the sequences a value reads. The cache, when short of n, is
extended from it, and a stream reads it from q(1) on. Whether q(1..n) can
be computed at all, and which error it meets, `_reach()` and `_refusal(n)`
decide from the expression alone, before any value is computed. The one
other route is a LinearRecurrence's `eval` of a far n (see its
docstring): it jumps, computing x**(n-1) modulo the characteristic
polynomial, and caches nothing.
"""

from __future__ import annotations

import math
import sys
import threading
from contextlib import contextmanager
from decimal import Decimal
from functools import partial, reduce
from itertools import islice
from operator import mul

from ._charpoly import _x_power_mod
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

# longest bad table token quoted in full in an error message
_QUOTE_CAP = 40

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
    cache, _values, extended from _tail bottom-up (never by recursion on
    n), so a fill is linear in n and safe at any depth; eval() may instead
    jump to a far n without filling (see LinearRecurrence). The cache is
    guarded by a lock; concurrent eval() calls return identical values.
    Decimal values come only from _stream, which caches nothing.

    A subclass whose values read other sequences at the same n lists them in
    _parts, in the order _refusal asks them, sets _scale and _length from
    theirs (_reach reads both) and combines their values in _combine.
    """

    _parts = ()
    # the largest product of dilation factors on the way from this sequence
    # to one that fills (so FILL_CAP // _scale bounds the n it can serve),
    # and the fewest values the tables below allow, in units of n
    _scale = 1
    _length = math.inf

    def __init__(self, seq_id: str, guarantee: str = NO_GUARANTEE):
        self.id = seq_id
        self.guarantee = guarantee
        self._lock = threading.Lock()
        self._values: list[int] = []

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
        """Extend _values to q(1..n) from _tail; past _reach() refuse,
        before any value is computed."""
        if n < 1:
            raise ValueError(f"sequence domain is n >= 1, got {n}")
        if n > self._reach():
            raise self._refusal(n)
        # a fill that waited for the lock may find values already past n
        start = len(self._values) + 1
        if start <= n:
            self._values.extend(islice(self._tail(start, int), n - start + 1))

    def _reach(self) -> int:
        """The largest N for which q(1), ..., q(N) can all be computed,
        decided without filling: the fill cap bounds each sequence that
        fills at its dilation multiple of n, and each table its length."""
        return min(FILL_CAP // self._scale, self._length)

    def _refusal(self, n: int) -> Exception:
        """The error a fill to n raises past _reach(): the one an ascent
        n = 1, 2, ... meets first, found from the expression."""
        if n > FILL_CAP:
            return _past_the_cap(n)
        # the ascent stops at the first value it cannot compute, and asks
        # the parts in order
        m = self._reach() + 1
        return next(s._refusal(m) for s in self._parts if s._reach() < m)

    def _stream(self, stop: int):
        """An iterator of q(1), ..., q(stop) as integral Decimals, each
        computed when it is asked for, inside exact_context(), and cached
        nowhere.

        Where q(1..stop) cannot all be computed, it refuses at once with
        the error that an ascent meets first, as a fill would."""
        if stop > self._reach():
            raise self._refusal(self._reach() + 1)
        return _in_exact_context(islice(self._tail(1, Decimal), stop))

    def _tail(self, start: int, num: type):
        """q(start), q(start+1), ... in number type num, without end: the
        one place a value is computed. This one combines the tails of the
        parts. A Decimal tail is advanced inside exact_context()."""
        return map(partial(self._combine, num),
                   *[s._tail(start, num) for s in self._parts])

    def __repr__(self):
        return f"<{type(self).__name__} {self.id}>"


class LinearRecurrence(Sequence):
    """q(n) = head(n) for n <= order, the number of coeffs, then
    q(n) = coeffs[0]*q(n-1) + ... + coeffs[order-1]*q(n-order) + constant.

    head is called only for the n being computed, so a family with a large
    order computes none of its seed values before they are asked for. It
    returns an int, converted to the number type being computed. coeffs is
    any iterable, read into a tuple, or the theorem families' lazy view,
    kept as given, with its order. Its entries are read once, into the int
    terms _terms, on the first step past the head of any tail (a Decimal
    tail converts those terms and the constant when it gets there); a fill
    or stream that stays in the head reads none. Otherwise only the order
    is used.

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
        # (unit lags, other lags, their factors) as ints, built by _tail on
        # the first step past the head
        self._terms = None
        # the farthest n jumped to, and the reckoned cost, in values filled,
        # of the jumps that went past every one before them; an update that
        # concurrent jumps lose only moves a fill
        self._farthest = self._jumped = 0

    def _tail(self, start: int, num: type):
        # a value reads only the order values before it, so a sliding window
        # of them, in num, stands in for the cache (empty for a Decimal
        # tail, which starts at 1). The cache is filled to start - 1 first,
        # by _fill: eval may jump and cache nothing
        if len(self._values) < start - 1:
            with self._lock:
                self._fill(start - 1)
        order = self.order
        lo = max(start - 1 - order, 0)
        window = list(map(num, self._values[lo:start - 1]))
        for n in range(start, order + 1):
            value = num(self.head(n))
            window.append(value)
            yield value
        # from here on the window holds order values, so each new one
        # pushes out the oldest. q(n-i) is window[-i]: terms with
        # coefficient 1 are added without a multiplication, and terms with
        # coefficient 0 are dropped
        if self._terms is None:
            terms = [(-i, c) for i, c in enumerate(self.coeffs, 1) if c]
            self._terms = (tuple(i for i, c in terms if c == 1),
                           tuple(i for i, c in terms if c != 1),
                           tuple(c for _, c in terms if c != 1))
        units, lags, factors = self._terms
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
    """Values loaded from an external table, given once per number type: the
    ints as the filled cache, the Decimals for the Decimal tail. Evaluation
    past the end is an error, never an extrapolation."""

    _scale = 0  # a table fills nothing, so the fill cap does not bound it

    def __init__(self, values, decimals, source: str = "<table>"):
        super().__init__(f"table({source})")
        self._values, self._decimals = list(values), list(decimals)
        self._length = len(self._decimals)

    def _reach(self) -> int:
        return self._length

    def _refusal(self, n: int) -> Exception:
        return TableRangeError(f"{self.id} holds {self._length} values; "
                               f"n={n} is out of range")

    def _tail(self, start: int, num: type):
        # by index: islice would step over the first start - 1 values
        values = self._values if num is int else self._decimals
        return map(values.__getitem__, range(start - 1, self._length))


class LinearCombinationSequence(Sequence):
    def __init__(self, k: int, a: Sequence, m: int, b: Sequence):
        # phi1 is linear, so phi1 divisibility survives any integer
        # combination; phi2 is not linear (its power-of-two branch subtracts
        # 1), so no psi guarantee ever propagates here.
        ok = a.guarantee in _PHI1_SAFE and b.guarantee in _PHI1_SAFE
        with unlimited_int_digits():
            seq_id = f"lin({k},{a.id},{m},{b.id})"
        super().__init__(seq_id, PHI1_CLOSURE if ok else NO_GUARANTEE)
        self._parts = a, b
        self._scale = max(a._scale, b._scale, 1)
        self._length = min(a._length, b._length)
        self._weights = {int: (k, m), Decimal: (Decimal(k), Decimal(m))}

    def _combine(self, num: type, a, b):
        k, m = self._weights[num]
        # `or num()` turns Decimal('-0'), the product of 0 and a negative
        # number, into 0, which prints as the int 0 does
        return k * a + m * b or num()


class DilationSequence(Sequence):
    """n -> seq(k*n). Divisibility transfers only from map-derived input:
    sampling a map's count sequence at multiples of k is the count sequence
    of the k-th iterate of the same map (an odd map when k is odd)."""

    def __init__(self, seq: Sequence, k: int, seq_id: str, guarantee: str):
        super().__init__(seq_id, guarantee)
        self.base = seq
        self.k = k
        self._scale = max(k * seq._scale, 1)
        # inf // k is nan, not inf
        self._length = seq._length // k if seq._length < math.inf else math.inf

    def _refusal(self, n: int) -> Exception:
        if n > FILL_CAP:
            return _past_the_cap(n)
        return self.base._refusal(self.k * n)

    def _tail(self, start: int, num: type):
        # every k-th value of the base, from k*start on
        k = self.k
        return islice(self.base._tail(k * (start - 1) + 1, num), k - 1, None,
                      k)


class ProductSequence(Sequence):
    def __init__(self, seqs):
        seqs = tuple(seqs)
        if not seqs:
            raise ValueError("product requires at least one sequence")
        if len(seqs) == 1:
            guarantee = seqs[0].guarantee
        elif all(s.guarantee == MAP_DERIVED_PHI for s in seqs):
            # counts multiply: the product map on the product space has this
            # many n-periodic points
            guarantee = MAP_DERIVED_PHI
        elif all(s.guarantee == ODD_MAP_DERIVED_PSI for s in seqs):
            guarantee = ODD_MAP_DERIVED_PSI
        else:
            guarantee = NO_GUARANTEE
        super().__init__("prod(%s)" % ",".join(s.id for s in seqs), guarantee)
        self._parts = seqs
        self._scale = max(1, *(s._scale for s in seqs))
        self._length = min(s._length for s in seqs)

    def _combine(self, num: type, *values):
        return reduce(mul, values) or num()  # Decimal('-0') made 0


def _past_the_cap(n: int) -> FillCapExceededError:
    return FillCapExceededError(
        f"n={n} is past the fill cap of {FILL_CAP} values")


def _in_exact_context(values):
    """Yield the items of the iterator values, each computed inside
    exact_context() and handed out in the caller's context."""
    while True:
        with exact_context():
            value = next(values, None)
        if value is None:
            return
        yield value


def make_theorem4(j: int, k: int, m: int) -> Sequence:
    """Sequence with base values m*(2**n - 1) + k for n <= j and recurrence
    sum of the previous j values minus (j-1)*k afterwards. j >= 2."""
    if j < 2:
        raise ValueError(f"theorem4 requires j >= 2, got {j}")
    # k=0, m=1 is the plain 2**n - 1 family, which counts fixed points of
    # an interval map; any other offset is a linear-combination closure.
    guarantee = MAP_DERIVED_PHI if (k == 0 and m == 1) else PHI1_CLOSURE
    with unlimited_int_digits():  # k and m may have any number of digits
        seq_id = f"theorem4(j={j},k={k},m={m})"
    return LinearRecurrence(seq_id, guarantee, lambda n: m * (2**n - 1) + k,
                            _FamilyCoeffs(j, zigzag=False), -(j - 1) * k)


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


def constant(value: int) -> Sequence:
    """The order-0 recurrence q(n) = value."""
    with unlimited_int_digits():
        seq_id = f"const({value})"
    return LinearRecurrence(seq_id, PHI1_CLOSURE, None, (), value)


def linear_combine(k: int, seq1: Sequence, m: int, seq2: Sequence) -> Sequence:
    """Pointwise k*seq1(n) + m*seq2(n)."""
    return LinearCombinationSequence(k, seq1, m, seq2)


def dilate(seq: Sequence, k: int) -> Sequence:
    """n -> seq(k*n) for k >= 1; keeps the map-derived-phi flag when present."""
    if k < 1:
        raise ValueError(f"dilate requires k >= 1, got {k}")
    guarantee = MAP_DERIVED_PHI if seq.guarantee == MAP_DERIVED_PHI else NO_GUARANTEE
    return DilationSequence(seq, k, f"dilate({seq.id},{k})", guarantee)


def dilate_odd(seq: Sequence, k: int) -> Sequence:
    """n -> seq(k*n) for odd k >= 1; keeps the odd-map-derived-psi flag when
    present: where seq(n) counts the x with g^n(x) = -x for an odd map g,
    seq(k*n) counts them for g^k, which is odd too. g^k is odd for even k
    as well; whether even k may keep the flag is ROADMAP.md item 2."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"dilate_odd requires odd k >= 1, got {k}")
    guarantee = (ODD_MAP_DERIVED_PSI if seq.guarantee == ODD_MAP_DERIVED_PSI
                 else NO_GUARANTEE)
    return DilationSequence(seq, k, f"dilateodd({seq.id},{k})", guarantee)


def product(seqs) -> Sequence:
    """Pointwise product of a nonempty list of sequences."""
    return ProductSequence(seqs)


@contextmanager
def unlimited_int_digits():
    """Lift Python's limit on int<->str conversion (4300 digits by default,
    Python >= 3.11) inside the block and restore it afterwards; values gain
    digits linearly in n and soon pass it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def parse_table(text: str, source: str = "<table>") -> Sequence:
    """Parse an external table: one decimal signed integer per line, line i
    holding the value at n = i; blank lines and # comments are ignored.
    Values may have any number of digits."""
    values, decimals = [], []
    with unlimited_int_digits():
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                shown = repr(line) if len(line) <= _QUOTE_CAP else (
                    f"{line[:_QUOTE_CAP]!r}... ({len(line)} characters)")
                raise ValueError(
                    f"{source}:{lineno}: not a decimal integer: {shown}")
            # int() accepted it, so it has no point, exponent or NaN, and
            # Decimal(str) reads it exactly in linear time; `or` turns -0
            # into 0, which prints as the int 0 does
            decimals.append(Decimal(line) or Decimal(0))
    return TableSequence(values, decimals, source)


def load_table(path) -> Sequence:
    with open(path, encoding="utf-8") as fh:
        return parse_table(fh.read(), source=str(path))
