"""Memoized integer sequences: recurrence families and divisibility-preserving
combinators.

Every sequence is defined on n >= 1 and carries a provenance flag saying
which divisibility guarantee (if any) it inherits. Verification code uses the
flags purely as report labels; it never skips a check because of them.

A sequence computes its values exactly in two number types, each with its own
cache: `eval(n)` (and `seq(n)`) returns a Python int, and `exact(n)` returns
the same value as an integral `decimal.Decimal`, computed under
`divseq.arith.exact_context()`. `str` of a Decimal is linear in its length,
where `str` of an int is quadratic, so the command line prints values from
`exact`.

`eval` reaches n by one of two routes. It fills the int cache bottom-up to
n, or, for a LinearRecurrence whose cache is short of n by more than
order * n.bit_length() values, it jumps: it computes x**(n-1) modulo the
characteristic polynomial and caches nothing. `exact` always fills, as the
reports read every n.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from decimal import Decimal
from functools import reduce
from operator import mul

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

# largest n a sequence fills its caches to
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
    """Evaluation at an n past FILL_CAP, which would fill a cache that
    long."""


class Sequence:
    """Integer-valued function on n >= 1 with memoized, append-only caches,
    one per number type (int for eval, Decimal for exact).

    Values are filled bottom-up (never by recursion on n), so a fill is
    linear in n and safe at any depth; eval() may instead jump to a far n
    without filling (see LinearRecurrence). The caches are guarded by a
    lock; concurrent eval() or exact() calls return identical values.
    """

    def __init__(self, seq_id: str, guarantee: str = NO_GUARANTEE):
        self.id = seq_id
        self.guarantee = guarantee
        self._lock = threading.Lock()
        self._values: list[int] = []
        self._exact: list[Decimal] = []

    def eval(self, n: int) -> int:
        """The value at n as an int: read from the cache, jumped to (see
        LinearRecurrence) or, failing that, filled up to n."""
        if not 0 < n <= len(self._values):
            value = self._jump(n)
            if value is not None:
                return value
            with self._lock:
                self._fill(self._values, n, int)
        return self._values[n - 1]

    def exact(self, n: int) -> Decimal:
        """The value at n as an integral Decimal; equal to eval(n)."""
        if not 0 < n <= len(self._exact):
            with self._lock, exact_context():
                self._fill(self._exact, n, Decimal)
        return self._exact[n - 1]

    def filled_exact(self, n_max: int) -> list[Decimal]:
        """The exact values already cached, q(1)..q(k) for the largest
        k <= n_max the cache reaches, as a new list (q(n) at index n - 1);
        nothing is filled."""
        return self._exact[:n_max]

    def __call__(self, n: int) -> int:
        return self.eval(n)

    def _at(self, n: int, num: type):
        """The value at n in number type num (int or Decimal)."""
        return self.eval(n) if num is int else self.exact(n)

    def _jump(self, n: int):
        """The int value at n computed without touching the caches, or None
        where eval should fill instead; only a LinearRecurrence jumps."""
        return None

    def _fill(self, values: list, n: int, num: type):
        if n < 1:
            raise ValueError(f"sequence domain is n >= 1, got {n}")
        if n > FILL_CAP:
            raise FillCapExceededError(
                f"n={n} is past the fill cap of {FILL_CAP} values")
        while len(values) < n:
            # `or num()` turns Decimal('-0'), the product of 0 and a
            # negative number, into 0, which prints as the int 0 does
            values.append(self._compute(len(values) + 1, values, num)
                          or num())

    def _compute(self, n: int, values: list, num: type):
        """Value at n in number type num; may read values[:n-1], the cache
        of that type, which is already filled."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.id}>"


class LinearRecurrence(Sequence):
    """q(n) = head(n) for n <= order = len(coeffs), then
    q(n) = coeffs[0]*q(n-1) + ... + coeffs[order-1]*q(n-order) + constant.

    head is called only for the n being filled, so a family with a large
    order computes none of its seed values before they are asked for. It
    returns an int, converted to the number type being filled. coeffs is
    any iterable, read into a tuple, or the zigzag families' lazy view,
    kept as given; the fill reads its entries once, on its first step past
    the head, and otherwise uses only the order.

    eval(n) has two routes. When 0 < order and the int cache is short of n
    by more than order * n.bit_length() values, it jumps: about order**2 *
    log2(n) multiplications against the order additions per value that a
    fill would make. The jump reads the coefficients and the head afresh,
    takes no lock and caches nothing. Otherwise, and always past FILL_CAP
    (which the fill refuses), eval fills as every Sequence does. An
    ascending scan is short by 1 at each step, so it never jumps.
    """

    def __init__(self, seq_id: str, guarantee: str, head, coeffs,
                 constant: int):
        super().__init__(seq_id, guarantee)
        self.head = head
        self.coeffs = (coeffs if isinstance(coeffs, _ZigzagCoeffs)
                       else tuple(coeffs))
        self.order = len(self.coeffs)
        self.constant = constant
        self._terms = _Terms(self.coeffs, constant)

    def _compute(self, n: int, values: list, num: type):
        if n <= self.order:
            return num(self.head(n))
        units, lags, factors, constant = self._terms[num]
        at = values.__getitem__
        total = sum(map(at, units), constant)
        return sum(map(mul, factors, map(at, lags)), total)

    def _jump(self, n: int):
        if not 0 < self.order * n.bit_length() < n - len(self._values) \
                or n > FILL_CAP:
            return None
        coeffs = list(self.coeffs)
        seed = [self.head(i) for i in range(1, self.order + 1)]
        if self.constant:
            # subtracting the recurrence at n-1 from the one at n drops the
            # constant: from n = order+2 on, q follows the recurrence of
            # (x - 1)*P(x), of order + 1, whose head gains q(order+1)
            seed.append(sum(map(mul, coeffs, reversed(seed)), self.constant))
            coeffs = [a - b for a, b in zip(coeffs + [0], [-1] + coeffs)]
        return sum(map(mul, _x_power_mod(n - 1, coeffs), seed))


def _x_power_mod(m: int, coeffs: list[int]) -> list[int]:
    """x**m modulo P(x) = x**k - coeffs[0]*x**(k-1) - ... - coeffs[k-1], for
    k = len(coeffs) >= 1, as its k coefficients, constant term first.

    If q(n) = coeffs[0]*q(n-1) + ... + coeffs[k-1]*q(n-k) for n > k, then
    q(m+1) is the sum of r[i]*q(i+1) for r = _x_power_mod(m, coeffs).
    Square and multiply over the bits of m, one schoolbook square and one
    reduction per bit (Fiduccia, SIAM J. Comput. 1985): O(k**2 log m)
    multiplications."""
    k = len(coeffs)
    lags = [(i, c) for i, c in enumerate(coeffs, 1) if c]
    power = [1] + [0] * (k - 1)
    for bit in bin(m)[2:]:
        square = [0] * (2 * k)  # degree <= 2k-2, so the top entry stays 0
        for i, a in enumerate(power):
            if a:
                square[2 * i] += a * a
                a += a
                for d, b in enumerate(power[i + 1:], 2 * i + 1):
                    square[d] += a * b
        if bit == "1":  # times x: the zero top entry moves to the bottom
            square.insert(0, square.pop())
        for d in range(2 * k - 1, k - 1, -1):
            top = square.pop()  # x**d = x**(d-k) * x**k, then x**k = P's tail
            if top:
                for i, c in lags:
                    square[d - i] += c * top
        power = square
    return power


class _Terms(dict):
    """Number type -> a recurrence's terms in that type, built on the first
    fill past the head: (unit lags, other lags, their factors, constant).

    q(n-i) is values[-i], as the cache holds q(1)..q(n-1) when q(n) is
    computed. Terms with coefficient 1 are added without a multiplication,
    and terms with coefficient 0 are dropped. The coefficients are read
    once, for the int terms; another type converts those. A dict, so a
    filled entry is read at the cost of a plain lookup."""

    def __init__(self, coeffs, constant: int):
        super().__init__()
        self.coeffs, self.constant = coeffs, constant

    def __missing__(self, num: type):
        if num is int:
            terms = [(-i, c) for i, c in enumerate(self.coeffs, 1) if c]
            entry = (tuple(i for i, c in terms if c == 1),
                     tuple(i for i, c in terms if c != 1),
                     tuple(c for _, c in terms if c != 1), self.constant)
        else:
            units, lags, factors, constant = self[int]
            entry = units, lags, tuple(map(num, factors)), num(constant)
        self[num] = entry
        return entry


class _ZigzagCoeffs:
    """The coefficients of the order-(2j-1) recurrence shared by the
    theorem5 families, 2*min(i, 2j-i) - 1 for lags i = 1..2j-1 (so 2i-1 up
    to lag j, then 4j-2i-1), computed when read: a family of order 2*10**6
    costs nothing to build."""

    __slots__ = ("j",)

    def __init__(self, j: int):
        self.j = j

    def __len__(self):
        return 2 * self.j - 1

    def __getitem__(self, index: int) -> int:
        i = range(1, 2 * self.j)[index]  # the lag; IndexError past the end
        return 2 * min(i, 2 * self.j - i) - 1


class TableSequence(Sequence):
    """Values loaded from an external table, given once per number type as
    the filled caches; evaluation past the end is an error, never an
    extrapolation."""

    def __init__(self, values, decimals, source: str = "<table>"):
        super().__init__(f"table({source})")
        self._values, self._exact = list(values), list(decimals)

    def _fill(self, values: list, n: int, num: type):
        if n > len(values):
            raise TableRangeError(f"{self.id} holds {len(values)} "
                                  f"values; n={n} is out of range")
        super()._fill(values, n, num)


class LinearCombinationSequence(Sequence):
    def __init__(self, k: int, a: Sequence, m: int, b: Sequence):
        # phi1 is linear, so phi1 divisibility survives any integer
        # combination; phi2 is not linear (its power-of-two branch subtracts
        # 1), so no psi guarantee ever propagates here.
        ok = a.guarantee in _PHI1_SAFE and b.guarantee in _PHI1_SAFE
        with unlimited_int_digits():
            seq_id = f"lin({k},{a.id},{m},{b.id})"
        super().__init__(seq_id, PHI1_CLOSURE if ok else NO_GUARANTEE)
        self.a, self.b = a, b
        self._weights = {int: (k, m), Decimal: (Decimal(k), Decimal(m))}

    def _compute(self, n: int, values: list, num: type):
        k, m = self._weights[num]
        return k * self.a._at(n, num) + m * self.b._at(n, num)


class DilationSequence(Sequence):
    """n -> seq(k*n). Divisibility transfers only from map-derived input:
    sampling a map's count sequence at multiples of k is the count sequence
    of the k-th iterate of the same map (an odd map when k is odd)."""

    def __init__(self, seq: Sequence, k: int, seq_id: str, guarantee: str):
        super().__init__(seq_id, guarantee)
        self.base = seq
        self.k = k

    def _fill(self, values: list, n: int, num: type):
        if 0 < n <= FILL_CAP:
            # the base first, to k*n: nested dilations ask for k**depth * n,
            # and a base past the cap refuses before any value is computed.
            # Its int cache is filled, not jumped past: the values below
            # read it at k, 2k, ..., k*n, each of which a jump would compute
            # afresh. The Decimal cache is read through _at, as the values
            # are: the depth of these calls sets which nestings the command
            # line refuses as "nested too deeply"
            base = self.base
            if num is int:
                with base._lock:
                    base._fill(base._values, self.k * n, int)
            else:
                base._at(self.k * n, num)
        super()._fill(values, n, num)

    def _compute(self, n: int, values: list, num: type):
        return self.base._at(self.k * n, num)


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
        self.factors = seqs

    def _compute(self, n: int, values: list, num: type):
        return reduce(mul, (s._at(n, num) for s in self.factors))


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
                            (1,) * j, -(j - 1) * k)


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
                            _ZigzagCoeffs(j), 0)


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
                            _ZigzagCoeffs(j), 0)


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
    present (even k would break the symmetric-orbit structure)."""
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
