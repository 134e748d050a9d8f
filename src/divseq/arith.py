"""Prime factorization and the inclusion-exclusion operators phi1 and phi2.

All arithmetic is exact: values are Python ints, or integral Decimals under
`exact_context()`, so magnitudes like 3**100 are handled without overflow or
rounding.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)
from math import isqrt

from ._record import Record

__all__ = [
    "Factorization",
    "IntSequence",
    "factorize",
    "phi1",
    "phi2",
    "divisibility_check",
    "exact_context",
]

# Any integer-valued function on n >= 1; divseq.sequences.Sequence qualifies,
# and so does a lookup of integral Decimals, such as a report's list of the
# values it streamed.
IntSequence = Callable[[int], int]

# Integers of up to MAX_PREC digits are exact in this context, and any
# operation that would round raises instead.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded, InvalidOperation, DivisionByZero,
                        Overflow])


def exact_context():
    """A decimal.localcontext (a copy of one shared exact context) in which
    +, -, * and % on integral Decimals are exact; the caller's own decimal
    context is restored on exit.

    phi1, phi2 and divisibility_check enter it on every call. Their
    context-free cores, _alternating_sum, _odd_alternating_sum and
    _remainder, and Sequence._stream compute in whatever context is
    current, so the command line enters this once per command (see
    divseq.cli.main and run_divisibility) and calls them inside it."""
    return localcontext(_EXACT)


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray(2) + bytearray([1]) * (limit - 1)  # 0, 1: not prime
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i, f in enumerate(flags) if f)


# Enough to fully factor anything below 1024**2 ~ 1.05e6 by trial division;
# larger inputs fall back to odd-candidate stepping past the table.
_SMALL_PRIMES = _sieve(1024)


class Factorization(Record):
    """Prime-power decomposition n = p1**k1 * ... * pr**kr, primes ascending:
    the fields n and factors, a tuple of (prime, exponent) pairs."""

    __slots__ = __match_args__ = ("n", "factors")

    def __init__(self, n: int, factors: tuple[tuple[int, int], ...]):
        super().__init__(n, factors)

    @property
    def primes(self) -> tuple[int, ...]:
        """The distinct prime divisors, ascending."""
        return tuple(p for p, _ in self.factors)


def factorize(n: int) -> Factorization:
    """Unique prime factorization of n >= 1; factorize(1) has no factors."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors = []
    rem = n
    # the table's primes, then every odd number past it
    for p in itertools.chain(_SMALL_PRIMES,
                             itertools.count(_SMALL_PRIMES[-1] + 2, 2)):
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            factors.append((p, e))
    if rem > 1:
        factors.append((rem, 1))
    return Factorization(n, tuple(factors))


class PrimeTable:
    """The distinct primes of every n <= limit, read from a
    smallest-prime-factor sieve built once: one 2-byte array entry per n,
    filled by slice assignments over the primes up to sqrt(limit), in
    O(limit log log limit). A report builds one for its n_max and reads each
    row's primes from it instead of factorizing every n. Not in __all__: it
    serves the reports, not library callers."""

    __slots__ = ("limit", "_spf")

    def __init__(self, limit: int):
        if not 0 <= limit < 1 << 32:
            raise ValueError(f"PrimeTable needs 0 <= limit < 2**32, "
                             f"got {limit}")
        # imported here, so that a command without a report skips it
        from array import array
        self.limit = limit
        # _spf[n] is the smallest prime factor of a composite n, 0 for
        # n < 2 and for the primes: no composite n <= limit has a smallest
        # prime above sqrt(limit) < 2**16. The smaller primes come last,
        # so their entries are the ones that stay.
        spf = self._spf = array("H", bytes(2 * (limit + 1)))
        for p in reversed(_sieve(isqrt(limit))):
            spf[p * p::p] = array("H", [p]) * len(range(p * p, limit + 1, p))

    def primes(self, n: int) -> tuple[int, ...]:
        """The distinct primes of n, ascending, as factorize(n).primes,
        for 1 <= n <= limit."""
        if not 0 < n <= self.limit:
            raise ValueError(f"PrimeTable.primes requires 1 <= n <= "
                             f"{self.limit}, got {n}")
        spf = self._spf
        found = []
        p = spf[n]
        while p:
            found.append(p)
            n //= p
            while n % p == 0:
                n //= p
            p = spf[n]
        if n > 1:  # what is left is prime
            found.append(n)
        return tuple(found)


def _alternating_sum(seq: IntSequence, n: int, primes) -> int:
    """phi1 without its checks, in whatever decimal context is current: the
    signed sum of seq(n // d) over the squarefree divisors d of the product
    of primes (distinct primes of n), with sign (-1)**(number of primes in
    d). The quotients n // d of each sign are built by doubling: each prime
    p adds m // p, of the other sign, for every quotient m so far."""
    plus, minus = [n], []
    for p in primes:
        plus, minus = (plus + [m // p for m in minus],
                       minus + [m // p for m in plus])
    return sum(map(seq, plus)) - sum(map(seq, minus))


def _odd_alternating_sum(seq: IntSequence, n: int, primes) -> int:
    """phi2 without its checks, in whatever decimal context is current:
    seq(n) - 1 where primes (distinct primes of n) holds no odd prime, else
    _alternating_sum over the odd ones."""
    odd_primes = [p for p in primes if p != 2]
    if not odd_primes:
        return seq(n) - 1
    return _alternating_sum(seq, n, odd_primes)


def _remainder(value, modulus: int) -> int:
    """divisibility_check's remainder without its checks, in whatever
    decimal context is current. Decimal % truncates toward zero, so its
    remainder takes the sign of value; the int % afterwards moves it into
    [0, modulus)."""
    return int(value % modulus) % modulus


def phi1(seq: IntSequence, n: int) -> int:
    """Alternating inclusion-exclusion of seq over the distinct primes of n.

    phi1(seq, 1) = seq(1); for n with distinct primes p1..pr it is the signed
    sum of seq(n / d) over all 2**r squarefree divisors d of p1*...*pr, the
    sign being (-1)**(number of primes in d).
    """
    if n < 1:
        raise ValueError(f"phi1 requires n >= 1, got {n}")
    primes = factorize(n).primes
    with exact_context():
        return _alternating_sum(seq, n, primes)


def phi2(seq: IntSequence, n: int) -> int:
    """Variant of phi1 that ranges over the distinct *odd* primes of n.

    When the odd part of n is 1 (n a power of two, including n = 1) the value
    is seq(n) - 1; otherwise it is the alternating sum over subsets of the
    odd primes, so the prime 2 never appears in a denominator.
    """
    if n < 1:
        raise ValueError(f"phi2 requires n >= 1, got {n}")
    primes = factorize(n).primes
    with exact_context():
        return _odd_alternating_sum(seq, n, primes)


def divisibility_check(value, modulus: int) -> tuple[bool, int]:
    """Whether modulus divides value (an int or an integral Decimal), plus
    the remainder as an int normalized to [0, modulus)."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    with exact_context():
        r = _remainder(value, modulus)
    return (r == 0, r)
