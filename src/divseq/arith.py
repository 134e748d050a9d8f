"""Prime factorization and the inclusion-exclusion operators phi1 and phi2.

All arithmetic is exact: values are Python ints, or integral Decimals under
`exact_context()`, so magnitudes like 3**100 are handled without overflow or
rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
from typing import Callable

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
# and so does its exact method, which returns integral Decimals.
IntSequence = Callable[[int], int]

# Integers of up to MAX_PREC digits are exact in this context, and any
# operation that would round raises instead.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded, InvalidOperation, DivisionByZero,
                        Overflow])


def exact_context():
    """A decimal.localcontext (a copy of one shared exact context) in which
    +, -, * and % on integral Decimals are exact; the caller's own decimal
    context is restored on exit."""
    return localcontext(_EXACT)


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i, f in enumerate(flags) if f)


# Enough to fully factor anything below 1024**2 ~ 1.05e6 by trial division;
# larger inputs fall back to odd-candidate stepping past the table.
_SMALL_PRIMES = _sieve(1024)


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition n = p1**k1 * ... * pr**kr, primes ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        """The distinct prime divisors, ascending."""
        return tuple(p for p, _ in self.factors)

    @property
    def odd_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors if p != 2)


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


def _alternating_sum(seq: IntSequence, n: int, primes: tuple[int, ...]) -> int:
    total = 0
    with exact_context():
        for size in range(len(primes) + 1):
            sign = -1 if size % 2 else 1
            for subset in itertools.combinations(primes, size):
                d = 1
                for p in subset:
                    d *= p
                total += sign * seq(n // d)
    return total


def phi1(seq: IntSequence, n: int) -> int:
    """Alternating inclusion-exclusion of seq over the distinct primes of n.

    phi1(seq, 1) = seq(1); for n with distinct primes p1..pr it is the signed
    sum of seq(n / d) over all 2**r squarefree divisors d of p1*...*pr, the
    sign being (-1)**(number of primes in d).
    """
    if n < 1:
        raise ValueError(f"phi1 requires n >= 1, got {n}")
    return _alternating_sum(seq, n, factorize(n).primes)


def phi2(seq: IntSequence, n: int) -> int:
    """Variant of phi1 that ranges over the distinct *odd* primes of n.

    When the odd part of n is 1 (n a power of two, including n = 1) the value
    is seq(n) - 1; otherwise it is the alternating sum over subsets of the
    odd primes, so the prime 2 never appears in a denominator.
    """
    if n < 1:
        raise ValueError(f"phi2 requires n >= 1, got {n}")
    fac = factorize(n)
    if not fac.odd_primes:
        with exact_context():
            return seq(n) - 1
    return _alternating_sum(seq, n, fac.odd_primes)


def divisibility_check(value, modulus: int) -> tuple[bool, int]:
    """Whether modulus divides value (an int or an integral Decimal), plus
    the remainder as an int normalized to [0, modulus)."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    # Decimal % truncates toward zero, so its remainder takes the sign of
    # value; the int % afterwards moves it into [0, modulus)
    with exact_context():
        r = int(value % modulus) % modulus
    return (r == 0, r)
