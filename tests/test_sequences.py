"""Recurrence families, combinators, guarantee flags, and table loading."""

from __future__ import annotations

import math
import os
import sys
import threading
import time
import tracemalloc
from decimal import Context, Decimal, getcontext, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divseq import sequences
from divseq.arith import exact_context, phi1, phi2
from divseq.sequences import (
    FILL_CAP,
    MAP_DERIVED_PHI,
    NO_GUARANTEE,
    ODD_MAP_DERIVED_PSI,
    PHI1_CLOSURE,
    FillCapExceededError,
    LinearRecurrence,
    TableRangeError,
    constant,
    dilate,
    dilate_odd,
    linear_combine,
    load_table,
    make_theorem4,
    make_theorem5_phi,
    make_theorem5_psi,
    parse_table,
    product,
    unlimited_int_digits,
)
from divseq.symbolic import c_count, d_count, initial_tensor, step


def values(seq, n_max):
    return [seq(n) for n in range(1, n_max + 1)]


def decimals(seq, n_max):
    # a stream computes in the current context, so it is read inside
    # exact arithmetic, as the command line reads it
    with exact_context():
        return list(seq._stream(n_max))


# -- theorem4 family --------------------------------------------------------

def test_theorem4_basic_family():
    assert values(make_theorem4(2, 0, 1), 6) == [1, 3, 4, 7, 11, 18]


def test_theorem4_zero_m_is_constant():
    assert values(make_theorem4(3, 5, 0), 10) == [5] * 10


def test_theorem4_mixed_offsets():
    assert values(make_theorem4(2, 1, 2), 3) == [3, 7, 9]


def test_theorem4_rejects_small_j():
    with pytest.raises(ValueError):
        make_theorem4(1, 0, 1)


# -- theorem5 families -------------------------------------------------------

def test_theorem5_phi_branches():
    phi_2 = make_theorem5_phi(2)
    assert values(phi_2, 5) == [1, 7, 13, 35, 81]
    assert make_theorem5_phi(3)(3) == 25
    assert phi_2(1) == 1


def test_theorem5_psi_branches():
    psi_2 = make_theorem5_psi(2)
    assert values(psi_2, 6) == [3, 5, 15, 33, 83, 197]
    assert make_theorem5_psi(3)(2) == 9
    assert psi_2(2) == 5
    assert psi_2(4) == 15 + 3 * 5 + 3


def test_theorem5_middle_branch_values():
    # 3**n - 2 - 4n*3**(n-j-1) and 3**n - 4n*3**(n-j-1) in j+1 <= n <= 2j-1
    assert make_theorem5_phi(3)(4) == 3**4 - 2 - 16
    assert make_theorem5_phi(3)(5) == 3**5 - 2 - 60
    assert make_theorem5_psi(3)(4) == 3**4 - 16
    assert make_theorem5_psi(4)(5) == 3**5 - 20


def test_theorem5_rejects_small_j():
    with pytest.raises(ValueError):
        make_theorem5_phi(1)
    with pytest.raises(ValueError):
        make_theorem5_psi(0)


def test_eval_rejects_nonpositive_n():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            make_theorem5_phi(2)(n)
    # also once the cache holds values
    seq = make_theorem5_phi(2)
    seq(5)
    with pytest.raises(ValueError):
        seq(0)


def test_values_grow_past_machine_words():
    # geometric growth (ratio 1+sqrt(2) for j=2) leaves 64-bit range near n=50
    phi_2 = make_theorem5_phi(2)
    assert phi_2(120) > 2**63


# -- the recurrence core -------------------------------------------------------

def test_linear_recurrence_head_coeffs_and_constant():
    fib = LinearRecurrence("fib", NO_GUARANTEE, lambda n: 1, (1, 1), 0)
    assert values(fib, 8) == [1, 1, 2, 3, 5, 8, 13, 21]
    # coeffs[0] weights q(n-1): q(n) = 2q(n-1) + 0q(n-2) + 1
    lopsided = LinearRecurrence("x", NO_GUARANTEE, lambda n: n, (2, 0), 1)
    assert values(lopsided, 5) == [1, 2, 5, 11, 23]


def theorem4_by_definition(j, k, m, n_max):
    q = {}
    for n in range(1, n_max + 1):
        if n <= j:
            q[n] = m * (2**n - 1) + k
        else:
            q[n] = sum(q[n - i] for i in range(1, j + 1)) - (j - 1) * k
    return [q[n] for n in range(1, n_max + 1)]


def test_theorem4_matches_its_definition():
    for j in range(2, 7):
        for k, m in ((0, 1), (1, 1), (-3, 2), (5, 0), (2, -7)):
            assert values(make_theorem4(j, k, m), 80) \
                == theorem4_by_definition(j, k, m, 80), (j, k, m)


def test_theorem5_matches_the_edge_engine():
    for j in range(3, 7):
        phi, psi = make_theorem5_phi(j), make_theorem5_psi(j)
        t = initial_tensor(j)
        for n in range(1, 61):
            assert (phi(n), psi(n)) == (c_count(t), d_count(t)), (j, n)
            t = step(t)


def test_constant_negative_and_zero():
    assert values(constant(-12), 5) == [-12] * 5
    assert values(constant(0), 5) == [0] * 5
    assert constant(-12).id == "const(-12)"


def test_seed_values_are_computed_only_when_filled():
    calls = []

    def head(n):
        calls.append(n)
        return n

    seq = LinearRecurrence("x", NO_GUARANTEE, head, (1,) * 10**5, 0)
    assert values(seq, 3) == [1, 2, 3]
    assert calls == [1, 2, 3]
    # nor may the factories: an order-10**5 family has 10**5 seed values,
    # powers of 2 or 3 with up to ~10**5 digits
    start = time.perf_counter()
    assert values(make_theorem4(10**5, 0, 1), 3) == [1, 3, 7]
    assert values(make_theorem5_phi(10**5), 3) == [1, 7, 25]
    assert values(make_theorem5_psi(10**5), 3) == [3, 9, 27]
    assert time.perf_counter() - start < 2.0


def test_zigzag_coefficients_are_computed_when_read():
    assert tuple(make_theorem5_phi(4).coeffs) == (1, 3, 5, 7, 5, 3, 1)
    assert tuple(make_theorem5_psi(2).coeffs) == (1, 3, 1)
    assert tuple(make_theorem4(4, 0, 1).coeffs) == (1, 1, 1, 1)
    # an order-(2*10**6 - 1) family holds no coefficient tuple: building it
    # and filling its head allocates well under the 16 MB of such a tuple
    # (8 MB for theorem4 of order 10**6)
    tracemalloc.start()
    try:
        assert values(make_theorem4(10**6, 0, 1), 3) == [1, 3, 7]
        seq = make_theorem5_phi(10**6)
        assert values(seq, 3) == [1, 7, 25]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    coeffs = seq.coeffs
    assert coeffs.order == seq.order == 2 * 10**6 - 1
    assert (coeffs[0], coeffs[10**6 - 1], coeffs[-1]) == (1, 2 * 10**6 - 1, 1)
    with pytest.raises(IndexError):
        coeffs[2 * 10**6 - 1]


class MulCountingInt(int):
    """An int coefficient that counts the multiplications made with it."""

    muls = 0

    def __mul__(self, other):
        MulCountingInt.muls += 1
        return int(self) * other

    __rmul__ = __mul__


def multiplications_per_value(seq, n_max):
    """Multiplications a fill of seq's recurrence makes per value past the
    head, with seq's own head, coefficients and constant."""
    counted = LinearRecurrence("counted", NO_GUARANTEE, seq.head,
                               map(MulCountingInt, seq.coeffs), seq.constant)
    order = seq.order
    assert values(counted, order) == values(seq, order)
    MulCountingInt.muls = 0
    assert values(counted, n_max) == values(seq, n_max)
    return MulCountingInt.muls / (n_max - order)


def test_unit_coefficients_are_added_without_multiplying():
    for j in range(2, 7):
        assert multiplications_per_value(make_theorem4(j, -2, 5), 60) == 0
    # coefficients 1, 3, 5, 3, 1
    assert multiplications_per_value(make_theorem5_phi(3), 60) == 3
    assert multiplications_per_value(make_theorem5_psi(3), 60) == 3
    # 1, 3, ..., 2j-1, ..., 3, 1: all but the two unit ends multiply
    assert multiplications_per_value(make_theorem5_phi(6), 60) == 9


def test_recurrence_terms_are_built_on_the_first_fill_past_the_head(
        monkeypatch):
    reads = []
    read = sequences._FamilyCoeffs.__getitem__

    def counted(coeffs, index):
        value = read(coeffs, index)  # IndexError past the end, not counted
        reads.append(index)
        return value

    monkeypatch.setattr(sequences._FamilyCoeffs, "__getitem__", counted)
    # a head-only fill or stream of an order-(2*10**5 - 1) family reads none
    big = make_theorem5_phi(10**5)
    assert decimals(big, 3) == values(big, 3) == [1, 7, 25]
    assert reads == []
    seq = make_theorem5_phi(3)  # order 5
    assert values(seq, 5) == decimals(seq, 5)
    assert reads == []
    # the fill past the head reads each coefficient once, and the fills
    # after it continue the same tail
    assert seq(9) == 1 * seq(8) + 3 * seq(7) + 5 * seq(6) + 3 * seq(5) + seq(4)
    values(seq, 40)
    assert reads == [0, 1, 2, 3, 4]
    # a stream past the head reads them once more, in a tail of its own
    assert decimals(seq, 6)[-1] == seq(6)
    assert reads == [0, 1, 2, 3, 4] * 2


def test_ids_of_parameters_past_the_int_digit_limit():
    big, digits = 10**5000, "1" + "0" * 5000
    limit = _digit_limit()
    assert constant(big).id == f"const({digits})"
    assert decimals(constant(-big), 2)[-1] == -big
    seq = make_theorem4(3, big, 1)
    assert seq.id == f"theorem4(j=3,k={digits},m=1)"
    assert (seq(4), decimals(seq, 4)[-1]) == (11 + big, 11 + big)
    assert make_theorem4(3, 0, -big).id == f"theorem4(j=3,k=0,m=-{digits})"
    combined = linear_combine(big, constant(1), -1, constant(2))
    assert combined.id == f"lin({digits},const(1),-1,const(2))"
    assert make_theorem5_phi(big).id == f"theorem5phi(j={digits})"
    assert make_theorem5_psi(big).id == f"theorem5psi(j={digits})"
    assert dilate(constant(1), big).id == f"dilate(const(1),{digits})"
    assert dilate_odd(constant(1), big + 1).id \
        == f"dilateodd(const(1),{digits[:-1]}1)"
    assert _digit_limit() == limit  # restored after each id


# -- the jump: eval at a far n without filling ---------------------------------

def filled(seq, n):
    """q(n) by an ascending scan of a fresh copy of seq, which never jumps."""
    copy = LinearRecurrence("copy", NO_GUARANTEE, seq.head, seq.coeffs,
                            seq.constant)
    return values(copy, n)[-1]


def jumps(seq, n):
    """Whether eval(n) on seq, as it is now, takes the jump: the reckoned
    cost of this jump and of the earlier ones past every jump before them
    stays below what the cache lacks."""
    b = n.bit_length()
    cost = seq.order * b * max(1, b - 9)
    return 0 < cost + seq._jumped < n - len(seq._values)


# (head value, coefficient) pairs of orders 1..8, coefficients zero or
# negative too, the last one included
recurrences = st.lists(st.tuples(st.integers(-10**6, 10**6),
                                 st.integers(-3, 3)), min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(terms=recurrences, constant_=st.integers(-5, 5),
       n=st.integers(1, 3000))
@example(terms=[(1, -2)], constant_=0, n=3000)
@example(terms=[(4, 0)], constant_=3, n=3000)
@example(terms=[(1, 1), (2, 0)], constant_=-1, n=2999)
def test_jump_equals_fill(terms, constant_, n):
    head, coeffs = zip(*terms)
    seq = LinearRecurrence("x", NO_GUARANTEE, lambda i: head[i - 1], coeffs,
                           constant_)
    jumped = jumps(seq, n)
    assert seq(n) == filled(seq, n)
    assert (seq._values == []) == jumped


@pytest.mark.parametrize("j", range(2, 9))
def test_jump_equals_fill_for_every_family(j):
    factories = [lambda: make_theorem5_phi(j), lambda: make_theorem5_psi(j),
                 lambda: make_theorem4(j, 0, 1),
                 lambda: make_theorem4(j, 3, -2)]
    for factory in factories:
        seq = factory()
        for n in (150, 577, 1000):
            fresh = factory()
            assert jumps(fresh, n), (seq.id, n)
            assert fresh(n) == filled(seq, n), (seq.id, n)
            assert fresh._values == []


def test_ascending_eval_fills_and_never_jumps(monkeypatch):
    def no_jump(m, coeffs):
        raise AssertionError("jumped")

    expected = values(make_theorem5_phi(3), 600)
    monkeypatch.setattr(sequences, "_x_power_mod", no_jump)
    seq = make_theorem5_phi(3)
    assert values(seq, 600) == expected
    assert len(seq._values) == 600
    # a dilation reads its base at k, 2k, ...: filled, not jumped to
    base = values(make_theorem5_phi(2), 64 * 40)
    assert values(dilate(make_theorem5_phi(2), 64), 40) == base[63::64]
    # neither does the head, nor an order-0 recurrence
    big = make_theorem5_phi(10**5)
    assert big(5000) == 3**5000 - 2
    assert constant(7)(10**5) == 7


def test_strided_scan_jumps_while_values_are_small_then_fills(monkeypatch):
    # each n = 64*i lies past every earlier jump, so the jumps' reckoned
    # cost adds up: order 5, b = n.bit_length(), 5*b each while b <= 10 and
    # 5*b*(b - 9) past that; at i = 21 the 20 jumps (1 245 values) and this
    # one (110) reach the 1 344 values the cache lacks, and eval fills
    calls = []

    def counted(m, coeffs):
        calls.append(m)
        return x_power_mod(m, coeffs)

    x_power_mod = sequences._x_power_mod
    monkeypatch.setattr(sequences, "_x_power_mod", counted)
    seq = make_theorem5_phi(3)
    scanned = [seq(64 * i) for i in range(1, 301)]
    assert calls == [64 * i - 1 for i in range(1, 21)]
    assert len(seq._values) == 64 * 300
    assert scanned == values(make_theorem5_phi(3), 64 * 300)[63::64]
    # a single far eval still jumps, and evaluations below the farthest
    # jump (a report's divisors) put no fill nearer
    far = make_theorem5_phi(3)
    for n in (10**5, 5 * 10**4, 2 * 10**4, 10**4, 10**5):
        far(n)
    assert far._values == [] and len(calls) == 25


def test_far_eval_past_the_cap_is_refused():
    seq = make_theorem5_phi(3)
    with pytest.raises(FillCapExceededError, match=f"n={FILL_CAP + 1} .*"
                                                   f"fill cap of {FILL_CAP}"):
        seq(FILL_CAP + 1)
    assert seq._values == []


def test_concurrent_far_eval_returns_identical_values():
    seq = make_theorem5_psi(5)
    far = (3000, 2500, 4096, 3001)
    results = []
    barrier = threading.Barrier(6)

    def worker():
        barrier.wait()
        results.append([seq(n) for n in far])

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    expected = values(make_theorem5_psi(5), 4096)
    assert results == [[expected[n - 1] for n in far]] * 6
    assert seq._values == []


# -- exact values as Decimals, streamed ---------------------------------------

def check_stream(seq, n_max):
    """The stream of q(1..k), k = min(n_max, seq._reach()), and eval agree:
    each value is a Decimal with exponent 0, never a negative zero, equal
    to the int, and its str is the int's. Past k, where a table ran out,
    the stream to n_max and eval(k + 1) raise the same TableRangeError."""
    k = min(n_max, seq._reach())
    streamed = decimals(seq, k)
    assert len(streamed) == k
    for n, got in enumerate(streamed, 1):
        want = seq.eval(n)
        assert type(want) is int and type(got) is Decimal
        assert got == want
        assert got.as_tuple().exponent == 0
        assert not (got.is_zero() and got.is_signed())
        with unlimited_int_digits():
            assert str(got) == str(want)
    if k < n_max:
        with pytest.raises(TableRangeError) as exc:
            seq.eval(k + 1)
        with pytest.raises(TableRangeError) as got:
            seq._stream(n_max)
        assert str(got.value) == str(exc.value)


BIG = "9" * 5001  # past Python's 4300-digit int<->str limit
table_tokens = st.one_of(st.integers(-10**6, 10**6).map(str),
                         st.sampled_from([BIG, "-" + BIG, "-0"]))
table_free_leaves = st.one_of(
    st.builds(make_theorem4, st.integers(2, 4), st.integers(-5, 5),
              st.integers(-5, 5)),
    st.builds(make_theorem5_phi, st.integers(2, 4)),
    st.builds(make_theorem5_psi, st.integers(2, 4)),
    st.builds(constant, st.integers(-5, 5)),
)
leaves = st.one_of(
    table_free_leaves,
    st.lists(table_tokens, min_size=1, max_size=40).map(
        lambda tokens: parse_table("\n".join(tokens))),
)


def trees_of(leaves):
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(linear_combine, st.integers(-5, 5), kids,
                  st.integers(-5, 5), kids),
        st.builds(dilate, kids, st.integers(1, 3)),
        st.builds(dilate_odd, kids, st.sampled_from([1, 3])),
        st.lists(kids, min_size=1, max_size=3).map(product),
    ), max_leaves=5)


trees = trees_of(leaves)

# forms a random draw can miss: negative table values of 5001 digits under
# negative weights, nested odd dilations, products, and zeros made negative
EXAMPLES = [
    linear_combine(-2, parse_table(f"-3\n{BIG}\n-{BIG}\n0\n7"), -3,
                   make_theorem5_psi(3)),
    product([dilate_odd(dilate_odd(make_theorem5_psi(2), 3), 5),
             linear_combine(-1, make_theorem4(3, -2, 5), -4,
                            dilate(make_theorem5_phi(2), 2))]),
    product([constant(-3), linear_combine(-1, constant(0), -1, constant(0))]),
    product([parse_table("-0\n-5\n0"), constant(-2)]),
]


@settings(max_examples=60, deadline=None)
@given(seq=trees, n_max=st.integers(1, 200))
@example(seq=EXAMPLES[0], n_max=200)
@example(seq=EXAMPLES[1], n_max=200)
@example(seq=EXAMPLES[2], n_max=5)
@example(seq=EXAMPLES[3], n_max=5)
def test_exact_equals_eval(seq, n_max):
    check_stream(seq, n_max)
    assert all(type(v) is int for v in seq._values)


def test_exact_prints_as_eval_does():
    seq = EXAMPLES[0]
    with unlimited_int_digits():
        assert list(map(str, decimals(seq, 5))) \
            == [str(seq(n)) for n in range(1, 6)]
    assert str(decimals(EXAMPLES[2], 1)[0]) == "0"
    assert str(decimals(EXAMPLES[3], 1)[0]) == "0"


# -- combinators -------------------------------------------------------------

def test_linear_combine_pointwise():
    combo = linear_combine(3, make_theorem5_phi(2), -1, constant(2))
    assert combo(2) == 3 * 7 - 2 == 19


def test_linear_combine_identity_and_zero():
    base = make_theorem4(2, 0, 1)
    ident = linear_combine(1, base, 0, constant(0))
    zero = linear_combine(0, base, 0, base)
    assert values(ident, 8) == values(base, 8)
    assert values(zero, 8) == [0] * 8


def test_dilate_samples_multiples():
    d = dilate(make_theorem5_phi(2), 2)
    assert d(1) == 7
    assert d(2) == 35
    same = dilate(make_theorem5_phi(2), 1)
    assert values(same, 6) == values(make_theorem5_phi(2), 6)


def test_dilate_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        dilate(constant(1), 0)


def test_dilate_odd_requires_odd_k():
    d = dilate_odd(make_theorem5_psi(2), 3)
    assert d(1) == 15
    with pytest.raises(ValueError):
        dilate_odd(make_theorem5_psi(2), 2)
    with pytest.raises(ValueError):
        dilate_odd(make_theorem5_psi(2), -1)


def test_product_pointwise():
    p = product([make_theorem5_phi(2), make_theorem5_phi(3)])
    assert p(1) == 1
    q = product([make_theorem5_psi(2), make_theorem5_psi(2)])
    assert q(2) == 25
    single = product([make_theorem4(2, 0, 1)])
    assert values(single, 5) == values(make_theorem4(2, 0, 1), 5)


def test_product_rejects_empty():
    with pytest.raises(ValueError):
        product([])


@pytest.mark.parametrize("at", [lambda s, n: s(n), lambda s, n: s._stream(n)],
                         ids=["eval", "stream"])
def test_fill_past_the_cap_is_refused(at):
    seq = constant(1)
    with pytest.raises(FillCapExceededError, match=f"n={FILL_CAP + 1} .*"
                                                   f"fill cap of {FILL_CAP}"):
        at(seq, FILL_CAP + 1)
    assert seq._values == []


def test_nested_dilation_past_the_cap_fills_nothing():
    # the first level asked for 2**24 > FILL_CAP refuses before any level
    # computes a value
    levels = [constant(1)]
    for _ in range(30):
        levels.append(dilate(levels[-1], 2))
    with pytest.raises(FillCapExceededError, match="n=16777216 "):
        levels[-1]._stream(1)
    assert all(s._values == [] for s in levels)
    assert values(dilate(dilate(levels[0], 2), 3), 4) == [1] * 4


# -- values, refusals and streams against a reference -------------------------

# a recipe is a nested tuple that build() turns into a fresh sequence, so a
# test can compare sequences of one shape whose caches differ
RECIPE_LEAVES = st.one_of(
    st.tuples(st.just("theorem4"), st.integers(2, 3), st.integers(-2, 2),
              st.integers(-2, 2)),
    st.tuples(st.just("theorem5phi"), st.integers(2, 3)),
    st.tuples(st.just("const"), st.integers(-2, 2)),
    st.tuples(st.just("table"), st.lists(st.integers(-9, 9), max_size=30)),
)
RECIPES = st.recursive(RECIPE_LEAVES, lambda sub: st.one_of(
    st.tuples(st.just("lin"), st.integers(-2, 2), sub, st.integers(-2, 2),
              sub),
    st.tuples(st.just("dilate"), sub, st.integers(1, 4)),
    st.tuples(st.just("prod"), st.lists(sub, min_size=1, max_size=3)),
), max_leaves=5)


def build(recipe):
    kind, *args = recipe
    if kind == "table":
        return parse_table("\n".join(map(str, args[0])))
    if kind == "lin":
        k, a, m, b = args
        return linear_combine(k, build(a), m, build(b))
    if kind == "dilate":
        return dilate(build(args[0]), args[1])
    if kind == "prod":
        return product(map(build, args[0]))
    return {"theorem4": make_theorem4, "theorem5phi": make_theorem5_phi,
            "const": constant}[kind](*args)


def past_the_cap(n: int):
    if n > sequences.FILL_CAP:
        raise FillCapExceededError(f"n={n} is past the fill cap of "
                                   f"{sequences.FILL_CAP} values")


def reference(recipe):
    """q of a recipe as a plain-int function of n, written from the
    definitions and sharing no code with divseq.sequences. Every recipe
    refuses an n past the fill cap. Below it a table returns its value or
    raises TableRangeError; anything else, a dilation after asking its base
    for k*n, fills a list of its own ascending n = 1, 2, ..., each value
    read from the parts at once, and raises the first error it meets."""
    kind, *args = recipe
    if kind == "table":
        table = args[0]

        def q(n):
            past_the_cap(n)
            if n > len(table):
                raise TableRangeError(f"table(<table>) holds {len(table)} "
                                      f"values; n={n} is out of range")
            return table[n - 1]
        return q
    if kind == "theorem4":
        j, k, m = args

        def value(n):
            if n <= j:
                return m * (2**n - 1) + k
            return sum(done[-j:]) - (j - 1) * k
    elif kind == "theorem5phi":
        j = args[0]

        def value(n):
            if n <= j:
                return 3**n - 2
            if n < 2 * j:
                return 3**n - 2 - 4 * n * 3 ** (n - j - 1)
            return sum((2 * min(i, 2 * j - i) - 1) * done[-i]
                       for i in range(1, 2 * j))
    elif kind == "const":
        def value(n):
            return args[0]
    elif kind == "lin":
        k, a, m, b = args[0], reference(args[1]), args[2], reference(args[3])

        def value(n):
            return k * a(n) + m * b(n)
    elif kind == "dilate":
        base, factor = reference(args[0]), args[1]

        def value(n):
            return base(factor * n)
    else:
        parts = list(map(reference, args[0]))

        def value(n):
            return math.prod(part(n) for part in parts)
    done = []

    def q(n):
        past_the_cap(n)
        if kind == "dilate":
            base(factor * n)
        while len(done) < n:
            done.append(value(len(done) + 1))
        return done[n - 1]
    return q


def caches_within(seq, bound: int) -> bool:
    """No cache below seq holds more than bound values, times the dilation
    factors on the way to it."""
    if len(seq._values) > bound:
        return False
    if isinstance(seq, sequences.DilationSequence):
        return caches_within(seq.base, seq.k * bound)
    return all(caches_within(part, bound) for part in seq._parts)


@settings(max_examples=150, deadline=None)
@example(recipe=("dilate", ("lin", 1, ("table", [1] * 30), 1, ("const", 1)),
                 4))
@example(recipe=("table", list(range(45))))  # longer than the fill cap
@example(recipe=("dilate", ("table", list(range(45))), 2))
@example(recipe=("lin", 1, ("table", [1, 2]), 1, ("dilate", ("const", 1), 4)))
@example(recipe=("dilate", ("prod", [("theorem4", 2, 1, -1),
                                     ("theorem5phi", 3)]), 3))
@given(recipe=RECIPES)
def test_reach_and_refusal_match_the_fill(recipe):
    # eval, _reach and _refusal against the reference fill (the stream is
    # checked against it below). With a fill cap of 40, both errors occur,
    # in any order along n
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "FILL_CAP", 40)
        ascent, want = build(recipe), reference(recipe)
        reach = ascent._reach()
        for n in range(1, 60):
            # one sequence evaluated as far as an ascent gets, one fresh
            seqs = (ascent, build(recipe))
            try:
                value = want(n)
            except (TableRangeError, FillCapExceededError) as exc:
                assert n > reach
                refused = ascent._refusal(n)
                assert (type(refused), str(refused)) == (type(exc), str(exc))
                for seq in seqs:
                    with pytest.raises(type(exc)) as got:
                        seq.eval(n)
                    assert str(got.value) == str(exc)
                continue
            assert n <= reach
            for seq in seqs:
                got = seq.eval(n)
                assert type(got) is int and got == value


def test_refusal_reads_each_reach_without_recursion():
    # a combinator's reach is computed once, when it is built, so one
    # refusal past a 100-deep chain asks the table's reach once, not once
    # per level
    table = parse_table("1\n2\n")
    seq = table
    for _ in range(100):
        seq = linear_combine(1, seq, 1, constant(0))
    reach, asked = table._reach, []
    table._reach = lambda: asked.append(1) or reach()
    error = seq._refusal(seq._reach() + 1)
    assert str(error) == "table(<table>) holds 2 values; n=3 is out of range"
    assert 0 < len(asked) <= 2


@settings(max_examples=150, deadline=None)
@example(recipe=("lin", -1, ("const", 0), -1, ("const", 0)), stop=3)
@given(recipe=RECIPES, stop=st.integers(0, 60))
def test_stream_yields_the_filled_values_and_caches_nothing(recipe, stop):
    # with a fill cap of 40, both errors occur, in any order along n
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "FILL_CAP", 40)
        seq, want = build(recipe), reference(recipe)
        try:
            values = [want(n) for n in range(1, stop + 1)]
        except (TableRangeError, FillCapExceededError) as exc:
            # refused at once, with the error the ascent meets first
            with pytest.raises(type(exc)) as got:
                seq._stream(stop)
            assert str(got.value) == str(exc)
        else:
            streamed = decimals(seq, stop)
            assert all(type(v) is Decimal for v in streamed)
            # str tells a negative zero apart
            assert list(map(str, streamed)) == list(map(str, values))
        assert caches_within(seq, 0)


def below(seq):
    """Every sequence that seq reads, at any depth."""
    if isinstance(seq, sequences.DilationSequence):
        parts = (seq.base,)
    else:
        parts = seq._parts
    for part in parts:
        yield part
        yield from below(part)


# -- one int tail per sequence: a fill fills no cache of its parts ------------

@settings(max_examples=100, deadline=None)
@example(recipe=("dilate", ("theorem5phi", 2), 4), far=200)
@example(recipe=("lin", 3, ("theorem5phi", 2), -2, ("theorem4", 3, 0, 1)),
         far=200)
@example(recipe=("prod", [("theorem5phi", 2), ("dilate", ("const", 2), 3)]),
         far=200)
@given(recipe=RECIPES, far=st.integers(1, 200))
def test_a_fill_leaves_the_caches_of_its_parts_empty(recipe, far):
    ascent, far_off, want = build(recipe), build(recipe), reference(recipe)
    n_max = min(far, ascent._reach())
    assert values(ascent, n_max) == [want(n) for n in range(1, n_max + 1)]
    if n_max:
        assert far_off(n_max) == want(n_max)
    for seq in (ascent, far_off):
        assert all(part._values == [] for part in below(seq))


def test_no_combinator_fills_the_cache_of_a_part():
    combinators = [
        lambda: linear_combine(3, make_theorem5_phi(2), -2,
                               make_theorem4(3, 0, 1)),
        lambda: product([make_theorem5_phi(2), make_theorem5_psi(3)]),
        lambda: dilate(make_theorem5_phi(2), 16),
        lambda: dilate_odd(make_theorem5_psi(3), 3),
        lambda: linear_combine(1, dilate(product([make_theorem5_phi(2),
                                                  constant(-3)]), 2),
                               1, dilate_odd(make_theorem5_psi(2), 5)),
    ]
    for factory in combinators:
        ascent, far_off = factory(), factory()
        scanned = values(ascent, 300)
        assert far_off(300) == scanned[-1]
        assert far_off(150) == scanned[149]  # read from its own cache
        for seq in (ascent, far_off):
            assert all(part._values == [] for part in below(seq)), seq.id


@pytest.mark.parametrize("recipe", [
    ("theorem5phi", 3),
    ("lin", 2, ("theorem5phi", 3), -1, ("dilate", ("theorem4", 2, 1, 1), 2)),
    ("dilate", ("prod", [("theorem5phi", 3), ("const", -2)]), 3),
], ids=["recurrence", "lin", "dilate-prod"])
def test_a_fill_that_raised_is_followed_by_correct_values(recipe):
    # the head of the one theorem5phi(3) (order 5) raises once, at n = 4,
    # in the middle of a fill that started where an earlier fill stopped
    seq, want = build(recipe), reference(recipe)
    family = next(s for s in [seq, *below(seq)] if s.id == "theorem5phi(j=3)")
    head, raised = family.head, []

    def flaky(n):
        if n == 4 and not raised:
            raised.append(n)
            raise RuntimeError("flaky head")
        return head(n)

    family.head = flaky
    assert seq(1) == want(1)
    with pytest.raises(RuntimeError, match="flaky head"):
        seq(10)
    assert raised == [4]
    assert values(seq, 60) == [want(n) for n in range(1, 61)]


def test_an_ascending_scan_builds_one_int_tail():
    seq = linear_combine(1, dilate(make_theorem5_phi(2), 3), -1,
                         product([make_theorem4(3, 1, 2), parse_table(
                             "\n".join(map(str, range(200))))]))
    tails = {}
    for s in [seq, *below(seq)]:
        def counted(*args, s=s, tail=s._tail):
            if args[-1] is int:  # the number type comes last
                tails[s.id] = tails.get(s.id, 0) + 1
            return tail(*args)
        s._tail = counted
    scanned = values(seq, 200)
    assert tails == {s.id: 1 for s in [seq, *below(seq)]}
    assert decimals(seq, 200) == scanned
    assert tails == {s.id: 1 for s in [seq, *below(seq)]}


def test_stream_values_are_computed_in_the_exact_context():
    # 40-digit values, which a five-digit caller context would round; the
    # stream computes in the exact context it is read in, and switches to
    # no context of its own
    seq = linear_combine(1, make_theorem5_phi(2), 10**40, constant(1))
    want = list(map(Decimal, values(seq, 20)))
    with localcontext(Context(prec=5, traps=[])), exact_context() as exact:
        streamed = []
        for value in linear_combine(1, make_theorem5_phi(2), 10**40,
                                    constant(1))._stream(20):
            assert getcontext() is exact
            streamed.append(value)
    assert streamed == want


# -- guarantee flags ---------------------------------------------------------

def test_generator_flags():
    assert make_theorem4(2, 0, 1).guarantee == MAP_DERIVED_PHI
    assert make_theorem4(2, 1, 1).guarantee == PHI1_CLOSURE
    assert make_theorem5_phi(3).guarantee == MAP_DERIVED_PHI
    assert make_theorem5_psi(3).guarantee == ODD_MAP_DERIVED_PSI
    assert constant(9).guarantee == PHI1_CLOSURE


def test_linear_combine_flag_propagation():
    phi_a, phi_b = make_theorem5_phi(2), make_theorem4(3, 2, -1)
    psi = make_theorem5_psi(2)
    assert linear_combine(3, phi_a, -2, phi_b).guarantee == PHI1_CLOSURE
    # phi2 is not linear, so psi inputs yield no guarantee
    assert linear_combine(1, psi, 1, phi_a).guarantee == NO_GUARANTEE


def test_dilate_flag_propagation():
    # a dilation keeps its base's label, for every k
    phi = make_theorem5_phi(2)
    psi = make_theorem5_psi(2)
    assert dilate(phi, 3).guarantee == MAP_DERIVED_PHI
    assert dilate(constant(5), 3).guarantee == PHI1_CLOSURE
    assert dilate(psi, 2).guarantee == ODD_MAP_DERIVED_PSI
    assert dilate(parse_table("1\n3\n7\n15"), 2).guarantee == NO_GUARANTEE
    assert dilate_odd(psi, 5).guarantee == ODD_MAP_DERIVED_PSI
    assert dilate_odd(phi, 3).guarantee == MAP_DERIVED_PHI
    assert dilate_odd(constant(5), 3).guarantee == PHI1_CLOSURE


@settings(max_examples=60, deadline=None)
@given(seq=trees, k=st.sampled_from([1, 3, 5]))
def test_dilate_odd_is_dilate_for_odd_k(seq, k):
    odd, plain = dilate_odd(seq, k), dilate(seq, k)
    assert odd.id == f"dilateodd({seq.id},{k})"
    assert plain.id == f"dilate({seq.id},{k})"
    assert odd.guarantee == plain.guarantee == seq.guarantee
    assert odd._reach() == plain._reach()
    reach = odd._reach()
    for n in (reach + 1, FILL_CAP + 1):
        a, b = odd._refusal(n), plain._refusal(n)
        assert (type(a), str(a)) == (type(b), str(b))
    n_max = min(reach, 12)
    assert values(odd, n_max) == values(plain, n_max)


@settings(max_examples=60, deadline=None)
@given(seq=trees_of(table_free_leaves))
@example(seq=dilate(make_theorem5_psi(3), 2))
@example(seq=dilate_odd(make_theorem5_phi(3), 3))
@example(seq=linear_combine(1, make_theorem5_psi(2), 1, make_theorem5_psi(3)))
def test_no_label_is_too_strong(seq):
    # each label is a claim about every n; none may fail at any n <= 30
    for n in range(1, 31):
        if seq.guarantee in (MAP_DERIVED_PHI, PHI1_CLOSURE):
            assert phi1(seq, n) % n == 0
        elif seq.guarantee == ODD_MAP_DERIVED_PSI:
            assert phi2(seq, n) % (2 * n) == 0


def test_product_flag_propagation():
    phi_a, phi_b = make_theorem5_phi(2), make_theorem5_phi(3)
    psi_a, psi_b = make_theorem5_psi(2), make_theorem5_psi(3)
    assert product([phi_a, phi_b]).guarantee == MAP_DERIVED_PHI
    assert product([psi_a, psi_b]).guarantee == ODD_MAP_DERIVED_PSI
    assert product([phi_a, psi_a]).guarantee == NO_GUARANTEE
    # one factor keeps any flag; several keep only a map-derived one
    assert product([constant(1)]).guarantee == PHI1_CLOSURE
    assert product([constant(1), constant(2)]).guarantee == NO_GUARANTEE


# -- memoization and concurrency ---------------------------------------------

def test_cache_warming_order_is_irrelevant():
    fresh = make_theorem5_phi(3)
    warmed = make_theorem5_phi(3)
    warmed(50)
    warmed(7)
    assert values(warmed, 50) == values(fresh, 50)


def test_concurrent_eval_returns_identical_values():
    seq = make_theorem5_psi(4)
    results = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        results.append([seq(n) for n in range(1, 301)])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = values(make_theorem5_psi(4), 300)
    assert all(r == expected for r in results)


def test_concurrent_exact_returns_identical_values():
    seq = linear_combine(3, dilate_odd(make_theorem5_psi(4), 3), -2,
                         product([make_theorem5_phi(2), make_theorem4(3, 1, 2)]))
    results = []
    workers = min(os.cpu_count() or 1, 32) + 6  # more threads than cores
    barrier = threading.Barrier(workers)

    def worker():
        barrier.wait()
        results.append([seq(n) for n in range(1, 301)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == workers
    assert all(r == results[0] for r in results)
    fresh = linear_combine(3, dilate_odd(make_theorem5_psi(4), 3), -2,
                           product([make_theorem5_phi(2),
                                    make_theorem4(3, 1, 2)]))
    assert results[0] == values(fresh, 300)


# -- external tables ---------------------------------------------------------

def test_parse_table_skips_blanks_and_comments():
    seq = parse_table("1\n\n# header comment\n3 # trailing\n-7\n")
    assert values(seq, 3) == [1, 3, -7]


def test_parse_table_rejects_garbage_with_line_number():
    with pytest.raises(ValueError, match=":2:"):
        parse_table("1\ntwo\n3\n", source="vals.txt")


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_parse_table_accepts_values_past_int_digit_limit(tmp_path):
    # 5001 digits, over Python's default int<->str limit of 4300 digits
    big = "1" + "0" * 5000
    limit = _digit_limit()
    seq = parse_table(f"{big}\n-{big}2\n", source="big.txt")
    assert seq(1) == 10**5000
    assert seq(2) == -(10**5001 + 2)
    path = tmp_path / "big.txt"
    path.write_text(f"7\n{big}\n")
    assert load_table(path)(2) == 10**5000
    assert _digit_limit() == limit  # restored after parsing


def test_parse_table_quotes_a_bounded_prefix_of_a_bad_token():
    limit = _digit_limit()
    with pytest.raises(ValueError) as exc:
        parse_table("1\n" + "9" * 5000 + "x\n", source="big.txt")
    message = str(exc.value)
    assert message.startswith("big.txt:2: not a decimal integer: '9999")
    assert "(5001 characters)" in message
    assert len(message) < 120
    assert _digit_limit() == limit


# signs, underscores, what a float or a Decimal would also read, spaces, and
# ASCII and Arabic-Indic decimal digits
TOKEN_CHARS = "+-_.e " + "0123456789" + "\u0660\u0661\u0662\u0663\u0669"


@settings(max_examples=300, deadline=None)
@example(token="1__0")
@example(token="_1")
@example(token="1_")
@example(token="+_1")
@example(token="+")
@example(token="- 1")
@example(token=" -\u0663_\u06610 ")
@example(token="1e5")
@example(token="-0")
@given(token=st.text(TOKEN_CHARS, max_size=8))
def test_parse_table_reads_a_token_exactly_when_int_does(token):
    try:
        want = int(token)
    except ValueError:
        want = None
    if not token.strip():  # a blank line, which a table skips
        assert want is None and parse_table(token)._reach() == 0
        return
    try:
        seq = parse_table(token)
    except ValueError as exc:
        assert want is None, token
        assert str(exc) == (f"<table>:1: not a decimal integer: "
                            f"{token.strip()!r}")
        return
    assert want is not None, token
    assert seq(1) == want and type(seq(1)) is int
    assert [str(v) for v in seq._stream(1)] == [str(want)]


def test_a_table_holds_one_list_and_fills_its_cache_as_any_sequence():
    seq = parse_table("3\n-0\n1_000\n\u0664\u0662\n")
    assert seq._values == []
    assert [str(v) for v in seq._stream(4)] == ["3", "0", "1000", "42"]
    assert seq._values == []
    # seq(n) fills exactly q(1..n), from the one list of Decimals
    assert seq(2) == 0 and seq._values == [3, 0]
    assert seq(4) == 42 and seq._values == [3, 0, 1000, 42]
    assert all(type(v) is int for v in seq._values)


def test_parse_table_converts_no_value_to_int(monkeypatch):
    # values past the int<->str digit limit (where Python has one), parsed
    # with the limit in place and int() out of reach
    def no_int(*args):
        raise AssertionError("parse_table called int()")

    monkeypatch.setattr(sequences, "int", no_int, raising=False)
    monkeypatch.setattr(sequences, "unlimited_int_digits", None)
    big = "1" + "0" * 5000
    seq = parse_table(f"{big}\n-{big}\n")
    assert [str(v) for v in seq._stream(2)] == [big, "-" + big]
    assert seq._values == []


def test_table_range_error_names_requested_n():
    seq = parse_table("5\n10\n")
    assert seq(2) == 10
    with pytest.raises(TableRangeError, match="n=9"):
        seq(9)


def test_load_table_roundtrip(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("2\n4\n8\n16\n")
    seq = load_table(path)
    assert values(seq, 4) == [2, 4, 8, 16]
    assert str(path) in seq.id


# -- divisibility properties (the theorems behind the combinators) -----------

@settings(max_examples=60, deadline=None)
@given(j=st.integers(2, 6), k=st.integers(-9, 9), m=st.integers(-9, 9),
       n=st.integers(1, 24))
def test_theorem4_divisibility_randomized(j, k, m, n):
    seq = make_theorem4(j, k, m)
    assert phi1(seq, n) % n == 0
