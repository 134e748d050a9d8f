"""Factorization and the phi1/phi2 inclusion-exclusion operators."""

from __future__ import annotations

import random
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_FLOOR,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    getcontext,
    localcontext,
)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divseq.arith import (
    Factorization,
    PrimeTable,
    divisibility_check,
    exact_context,
    factorize,
    phi1,
    phi2,
)
from divseq.sequences import make_theorem5_psi


def mersenne(n: int) -> int:
    return 2**n - 1


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))


def test_factorize_rejects_nonpositive():
    for bad in (0, -1, -360):
        with pytest.raises(ValueError):
            factorize(bad)


def test_factorize_prime_beyond_sieve_table():
    # 1048583 is prime and larger than the precomputed sieve bound
    assert factorize(1048583).factors == ((1048583, 1),)
    assert factorize(1048583 * 4).factors == ((2, 2), (1048583, 1))


def test_factorization_is_an_immutable_record():
    fac = factorize(12)
    assert repr(fac) == "Factorization(n=12, factors=((2, 2), (3, 1)))"
    assert fac == Factorization(n=12, factors=((2, 2), (3, 1)))
    assert hash(fac) == hash(Factorization(12, ((2, 2), (3, 1))))
    assert fac != factorize(24) and fac != (12, ((2, 2), (3, 1)))
    with pytest.raises(AttributeError):
        fac.n = 13
    with pytest.raises(AttributeError):
        del fac.factors
    assert not hasattr(fac, "__dict__")
    match fac:
        case Factorization(n, ((p, k), *_)):
            assert (n, p, k) == (12, 2, 2)


def test_factorization_accessors():
    fac = factorize(360)
    assert fac.primes == (2, 3, 5)
    assert factorize(1).primes == ()


def test_factorize_multiply_back_is_identity_to_one_million():
    for n in range(1, 10**6 + 1):
        prod = 1
        for p, k in factorize(n).factors:
            prod *= p**k
        if prod != n:
            pytest.fail(f"factorize({n}) multiplies back to {prod}")


def test_phi1_hand_expanded_example():
    # distinct primes of 6 are {2, 3}: 63 - 7 - 3 + 1 = 54
    assert phi1(mersenne, 6) == 54
    assert divisibility_check(phi1(mersenne, 6), 6) == (True, 0)


def test_phi1_at_one_returns_seq_of_one():
    assert phi1(mersenne, 1) == 1
    assert phi1(lambda n: -42, 1) == -42


def test_phi1_of_constant_vanishes_for_n_above_one():
    for n in (2, 6, 12, 30, 64, 97):
        assert phi1(lambda _: 7, n) == 0
    assert phi1(lambda _: 7, 1) == 7


def test_phi2_power_of_two_branch():
    square = lambda n: n * n
    assert phi2(square, 8) == 63
    assert phi2(square, 1) == 0
    assert phi2(square, 2) == 3
    assert phi2(square, 16) == 255


def test_phi2_on_theorem5_psi_examples():
    psi2 = make_theorem5_psi(2)
    assert phi2(psi2, 3) == 15 - 3
    assert phi2(psi2, 2) == 5 - 1


def test_phi2_equals_phi1_on_odd_arguments():
    psi2 = make_theorem5_psi(2)
    for n in range(3, 100, 2):
        assert phi2(psi2, n) == phi1(psi2, n)
    # n = 1 takes the "minus one" branch instead
    assert phi2(psi2, 1) == phi1(psi2, 1) - 1


def test_phi2_never_divides_by_two():
    # n = 12 has odd primes {3}: seq is only consulted at 12 and 4,
    # so a sequence undefined elsewhere must still work
    table = {12: 100, 4: 11}
    assert phi2(table.__getitem__, 12) == 89


def _mobius(m: int) -> int:
    fac = factorize(m)
    if any(k > 1 for _, k in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def test_phi1_matches_mobius_sum_oracle():
    """Second route to the same number: sum mu(d)*seq(n/d) over divisors d
    of the squarefree radical of n."""
    rng = random.Random(7)
    cache: dict[int, int] = {}

    def seq(n: int) -> int:
        return cache.setdefault(n, rng.randrange(-999, 1000))

    for n in range(1, 200):
        rad = 1
        for p, _ in factorize(n).factors:
            rad *= p
        expected = sum(_mobius(d) * seq(n // d)
                       for d in range(1, rad + 1) if rad % d == 0)
        assert phi1(seq, n) == expected, n


def test_phi1_squarefree_kernel():
    """phi1(seq, n) only reads seq at n over squarefree divisors; values
    elsewhere are irrelevant."""
    n = 360
    kernel = {360 // d for d in (1, 2, 3, 5, 6, 10, 15, 30)}
    base = lambda i: i * i - 5

    def tampered(i):
        return base(i) if i in kernel else 10**9 + i

    assert phi1(base, n) == phi1(tampered, n)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(-50, 50), m=st.integers(-50, 50),
       vals1=st.lists(st.integers(-10**6, 10**6), min_size=30, max_size=30),
       vals2=st.lists(st.integers(-10**6, 10**6), min_size=30, max_size=30),
       n=st.integers(1, 30))
def test_phi1_is_linear(k, m, vals1, vals2, n):
    a = lambda i: vals1[i - 1]
    b = lambda i: vals2[i - 1]
    combo = lambda i: k * a(i) + m * b(i)
    assert phi1(combo, n) == k * phi1(a, n) + m * phi1(b, n)


def test_divisibility_check_mathematical_remainder():
    assert divisibility_check(0, 17) == (True, 0)
    assert divisibility_check(-7, 5) == (False, 3)
    assert divisibility_check(54, 6) == (True, 0)
    assert divisibility_check(-12, 6) == (True, 0)


def test_divisibility_check_rejects_bad_modulus():
    with pytest.raises(ValueError):
        divisibility_check(5, 0)


def test_phi_of_exact_values_ignores_the_callers_decimal_context():
    # phi1/phi2 of Decimal values run in the exact context; the caller's
    # five-digit, trap-free context would round them silently
    seq = make_theorem5_psi(3)
    with localcontext(Context(prec=5, traps=[])):
        # q(n) at index n, as Decimals, as a report reads them
        exact = [None, *seq._stream(210)].__getitem__
        for n in (1, 2, 8, 30, 210):
            assert phi1(exact, n) == phi1(seq, n), n
            assert phi2(exact, n) == phi2(seq, n), n


def test_divisibility_check_accepts_decimals():
    # Decimal % truncates toward zero; the remainder is still the
    # mathematical one, as an int
    assert divisibility_check(Decimal(-7), 5) == (False, 3)
    assert divisibility_check(Decimal(-12), 6) == (True, 0)
    assert divisibility_check(Decimal("-0"), 4) == (True, 0)
    assert type(divisibility_check(Decimal(-7), 5)[1]) is int


def test_divisibility_check_on_a_4000_digit_decimal():
    digits = "7" * 4000
    modulus = 9973
    want = int(digits) % modulus
    assert divisibility_check(Decimal(digits), modulus) == (want == 0, want)
    assert divisibility_check(Decimal("-" + digits), modulus) \
        == (want == 0, -int(digits) % modulus)
    # outside the exact context the same remainder cannot be formed
    with localcontext(Context()):
        with pytest.raises(InvalidOperation):
            Decimal(digits) % modulus


# -- the prime table a report reads its primes from ---------------------------

def test_prime_table_matches_factorize_to_20000():
    table = PrimeTable(20000)
    for n in range(1, 20001):
        assert table.primes(n) == factorize(n).primes, n


def test_prime_table_smallest_limits():
    assert PrimeTable(1).primes(1) == ()
    assert [PrimeTable(2).primes(n) for n in (1, 2)] == [(), (2,)]
    assert [PrimeTable(4).primes(n) for n in (3, 4)] == [(3,), (2,)]


@pytest.mark.parametrize("limit, n", [(0, 1), (1, 0), (5, 6), (5, -1)])
def test_prime_table_rejects_n_outside_its_range(limit, n):
    with pytest.raises(ValueError):
        PrimeTable(limit).primes(n)


def test_phi_with_supplied_primes_equals_phi_that_factorizes():
    rng = random.Random(11)
    cache: dict[int, int] = {}

    def seq(n: int) -> int:
        return cache.setdefault(n, rng.choice((0, rng.randrange(-10**9,
                                                                10**9))))

    psi = make_theorem5_psi(3)
    exact = [None, *psi._stream(2310)].__getitem__  # Decimals, as reports read
    table = PrimeTable(2310)
    for n in (*range(1, 300), 512, 1024, 2048, 1155, 2310):
        primes = table.primes(n)
        for values in (seq, psi, exact):
            assert phi1(values, n, primes) == phi1(values, n), n
            assert phi2(values, n, primes) == phi2(values, n), n


@pytest.mark.parametrize("phi", [phi1, phi2])
@pytest.mark.parametrize("primes", [None, ()])
def test_phi_rejects_n_below_one(phi, primes):
    for bad in (0, -4):
        with pytest.raises(ValueError):
            phi(mersenne, bad, primes)


def _wide(**settings) -> Context:
    """A context with the exact context's precision and exponent range."""
    return Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, **settings)


@pytest.mark.parametrize("caller", [
    _wide(rounding=ROUND_FLOOR),  # rounds an exact zero to -0
    _wide(traps=[]),              # would round instead of raising
    _wide(traps=[InvalidOperation, Inexact]),
], ids=["round-floor", "no-traps", "some-traps"])
def test_phi_ignores_a_wide_caller_context_that_is_not_exact(caller):
    with localcontext(caller) as caller:
        with exact_context():
            assert getcontext() is not caller
        assert getcontext() is caller
        # an exact zero from equal sums stays 0, where ROUND_FLOOR gives -0
        assert str(phi1(lambda n: Decimal(5), 6)) == "0"
        assert str(phi2(lambda n: Decimal(-5), 9)) == "0"
