"""The edge-count engine: the substitution rule derived from g_j, the
initial tensor, the column-sum step, the aggregates and the literal
word-substitution cross-check, checked against the seven-case step and the
Fraction expansion written out below."""

from __future__ import annotations

import copy
import pickle
import random
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divseq.symbolic
from divseq._charpoly import _charpoly
from divseq.arith import factorize
from divseq.interval_map import (
    DEFAULT_PIECE_CAP,
    PLMap,
    PieceCapExceededError,
    build_gj,
    compose,
    count_antifixed,
    count_fixed,
    iterates,
    parse_map_file,
)
from divseq.sequences import make_theorem5_phi, make_theorem5_psi
from divseq.symbolic import (
    EdgeTensor,
    WordLengthError,
    _char_coeffs,
    _rule,
    bucket_interval,
    c_count,
    d_count,
    expand_word,
    initial_tensor,
    label_pair,
    pair_label,
    step,
)


def zero_tensor(j: int, n: int = 1) -> EdgeTensor:
    size = 2 * j - 1
    return EdgeTensor(j, n, tuple(tuple(0 for _ in range(size))
                                  for _ in range(size)))


def random_tensor(j: int, rng: random.Random) -> EdgeTensor:
    size = 2 * j - 1
    return EdgeTensor(j, 1, tuple(tuple(rng.randrange(0, 50)
                                        for _ in range(size))
                                  for _ in range(size)))


# -- initial tensor -----------------------------------------------------------

def test_initial_tensor_j3_entries():
    t = initial_tensor(3)
    assert t.n == 1
    assert t.entry(0, 0) == 1
    assert t.entry(1, -2) == 1
    assert t.entry(-1, 2) == 1
    assert t.entry(-2, -1) == 1
    assert t.entry(2, 1) == 1
    assert t.total() == 5


def test_initial_tensor_row_sums_are_one():
    for j in (2, 3, 4, 5, 6):
        t = initial_tensor(j)
        assert [sum(row) for row in t.counts] == [1] * (2 * j - 1)


def test_engine_rejects_j1():
    with pytest.raises(ValueError, match="j >= 2"):
        initial_tensor(1)
    with pytest.raises(ValueError, match="j >= 2"):
        expand_word(1, 1)


def test_engine_refuses_an_edge_tensor_past_the_cap_first(monkeypatch):
    # j = 1582 has (2j - 1)**2 = 10 004 569 cells, past DEFAULT_PIECE_CAP:
    # every entry into the rule refuses before g_j is built
    def no_map(j):
        raise AssertionError("build_gj was called")

    monkeypatch.setattr(divseq.symbolic, "build_gj", no_map)
    message = ("the edge tensor of g_1582 has 10004569 cells; "
               f"cap is {DEFAULT_PIECE_CAP}")
    for call in (lambda: initial_tensor(1582), lambda: expand_word(1582, 1),
                 lambda: pair_label(1582, -1582, 1),
                 lambda: bucket_interval(1582, 0)):
        with pytest.raises(PieceCapExceededError) as info:
            call()
        assert str(info.value) == message


def test_edge_tensor_validation():
    with pytest.raises(ValueError):
        EdgeTensor(3, 1, ((1,),))
    with pytest.raises(ValueError):
        zero_tensor(1)
    with pytest.raises(ValueError):
        EdgeTensor(3, 0, zero_tensor(3).counts)
    bad = [[0] * 5 for _ in range(5)]
    bad[0][0] = -1
    with pytest.raises(ValueError):
        EdgeTensor(3, 1, tuple(tuple(r) for r in bad))
    with pytest.raises(IndexError):
        initial_tensor(3).entry(3, 0)


def test_edge_tensor_is_an_immutable_record():
    t = initial_tensor(2)
    assert repr(t) == ("EdgeTensor(j=2, n=1, counts=((0, 0, 1), (0, 1, 0), "
                       "(1, 0, 0)))")
    assert t == EdgeTensor(j=2, n=1, counts=t.counts)
    assert hash(t) == hash(EdgeTensor(2, 1, t.counts))
    assert t != step(t) and t != EdgeTensor(2, 2, t.counts)
    with pytest.raises(AttributeError):
        t.n = 2
    with pytest.raises(AttributeError):
        del t.counts
    assert not hasattr(t, "__dict__")


def test_a_tensor_owns_its_grid():
    rows = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    t = EdgeTensor(2, 1, rows)
    assert t == initial_tensor(2) and hash(t) == hash(initial_tensor(2))
    rows[0][0] = -5
    assert t.counts == initial_tensor(2).counts
    assert step(t).counts == step(initial_tensor(2)).counts
    # a tuple row is kept as it is
    grid = initial_tensor(3).counts
    assert all(a is b for a, b in zip(EdgeTensor(3, 1, grid).counts, grid))


# -- the step ----------------------------------------------------------------

def test_step_j3_center_row():
    t2 = step(initial_tensor(3))
    assert t2.n == 2
    center = tuple(t2.entry(0, i) for i in range(-2, 3))
    assert center == (1, 1, 1, 1, 1)


def test_step_is_linear():
    rng = random.Random(99)
    for j in (3, 4):
        t1, t2 = random_tensor(j, rng), random_tensor(j, rng)
        summed = EdgeTensor(j, 1, tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(t1.counts, t2.counts)))
        lhs = step(summed)
        rhs_rows = tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(step(t1).counts, step(t2).counts))
        assert lhs.counts == rhs_rows


def test_total_strictly_increases():
    t = initial_tensor(3)
    totals = [t.total()]
    for _ in range(9):
        t = step(t)
        totals.append(t.total())
    assert all(b > a for a, b in zip(totals, totals[1:]))


# -- aggregates ----------------------------------------------------------------

def test_aggregates_at_small_n():
    t1 = initial_tensor(3)
    assert (c_count(t1), d_count(t1)) == (1, 3)
    t2 = step(t1)
    assert (c_count(t2), d_count(t2)) == (7, 9)
    t3 = step(t2)
    assert d_count(t3) == 27 - 2 * 3 == 21


def test_aggregates_of_zero_tensor_vanish():
    z = zero_tensor(4)
    assert c_count(z) == 0
    assert d_count(z) == 0


def test_aggregates_match_closed_forms():
    for j in (3, 4, 5):
        phi, psi = make_theorem5_phi(j), make_theorem5_psi(j)
        t = initial_tensor(j)
        for m in range(1, 2 * j):
            assert c_count(t) == phi(m), (j, m)
            assert d_count(t) == psi(m), (j, m)
            t = step(t)


def test_aggregate_sequences_satisfy_recurrence():
    # beyond 2j-1 the aggregates must obey the order-(2j-1) recurrence
    for j in (3, 4):
        coeffs = [2 * i - 1 for i in range(1, j + 1)]
        coeffs += [4 * j - 2 * i - 1 for i in range(j + 1, 2 * j)]
        t = initial_tensor(j)
        cs, ds = [c_count(t)], [d_count(t)]
        for _ in range(2 * j + 4):
            t = step(t)
            cs.append(c_count(t))
            ds.append(d_count(t))
        for n in range(2 * j, len(cs) + 1):
            assert cs[n - 1] == sum(c * cs[n - 1 - i]
                                    for i, c in enumerate(coeffs, start=1))
            assert ds[n - 1] == sum(c * ds[n - 1 - i]
                                    for i, c in enumerate(coeffs, start=1))


def test_tensor_recurrence_entrywise_j3():
    coeffs = (1, 3, 5, 3, 1)
    tensors = [initial_tensor(3)]
    for _ in range(9):
        tensors.append(step(tensors[-1]))
    for n in range(6, 11):
        grid = tensors[n - 1].counts
        for r in range(5):
            for c in range(5):
                want = sum(coeffs[m - 1] * tensors[n - 1 - m].counts[r][c]
                           for m in range(1, 6))
                assert grid[r][c] == want, (n, r, c)


# -- literal word expansion -----------------------------------------------------

def test_expand_word_seed_equals_initial_tensor():
    for j in (2, 3, 4, 5):
        assert expand_word(j, 1).counts == initial_tensor(j).counts


def test_expand_word_matches_step():
    for j in range(2, 7):
        t = initial_tensor(j)
        for n in range(1, 7):
            word_tensor = expand_word(j, n)
            assert word_tensor.counts == t.counts, (j, n)
            assert word_tensor.n == n
            t = step(t)


def test_expand_word_cap():
    with pytest.raises(WordLengthError):
        expand_word(3, 12, word_cap=1000)


def test_expand_word_rejects_bad_n():
    with pytest.raises(ValueError):
        expand_word(3, 0)


# -- labels and buckets -----------------------------------------------------------

def test_label_pair_round_trips():
    for j in (3, 4, 5):
        seen = set()
        for i in range(-(j - 1), j):
            u, v = label_pair(j, i)
            assert pair_label(j, u, v) == i
            assert pair_label(j, v, u) == i
            seen.add((min(u, v), max(u, v)))
        assert len(seen) == 2 * j - 1  # labels name distinct edges


def test_label_pair_special_edges():
    assert label_pair(4, -3) == (-4, 1)
    assert label_pair(4, 0) == (-4, 4)
    assert label_pair(4, 3) == (4, -1)
    assert label_pair(4, -2) == (-3, -2)
    assert label_pair(4, 2) == (2, 3)


def test_pair_label_rejects_non_edges():
    with pytest.raises(ValueError):
        pair_label(3, -1, 1)
    with pytest.raises(ValueError):
        pair_label(4, 1, 3)


def test_bucket_intervals():
    assert bucket_interval(3, 0) == (-1, 1)
    assert bucket_interval(3, -2) == (-3, -2)
    assert bucket_interval(3, 2) == (2, 3)
    assert bucket_interval(5, 1) == (1, 2)
    with pytest.raises(ValueError):
        bucket_interval(3, 3)
    with pytest.raises(ValueError):
        label_pair(3, 5)


# -- references: the seven-case step and the Fraction expansion, written out --

def reference_step(t: EdgeTensor) -> EdgeTensor:
    """The seven cases of the recurrence, three terms each, as first stated.
    At j = 2 they overlap and are written out as the three cases of g_2."""
    j, w = t.j, t.j - 1

    def advance(row):
        def a(i):
            return row[i + w]

        if j == 2:
            return (a(0) + a(1), a(-1) + a(0) + a(1), a(-1) + a(0))
        new = [0] * (2 * j - 1)
        new[-(j - 1) + w] = a(0) + a(1) + a(j - 1)
        new[-(j - 2) + w] = a(0) + a(-(j - 1))
        for i in range(-(j - 3), 0):
            new[i + w] = a(i - 1) + a(0) + a(-(j - 1))
        new[0 + w] = a(-(j - 1)) + a(0) + a(j - 1)
        for i in range(1, j - 2):
            new[i + w] = a(0) + a(i + 1) + a(j - 1)
        new[j - 2 + w] = a(0) + a(j - 1)
        new[j - 1 + w] = a(-(j - 1)) + a(-1) + a(0)
        return tuple(new)

    return EdgeTensor(j, t.n + 1, tuple(advance(row) for row in t.counts))


def reference_bucket(x0: Fraction, x1: Fraction) -> int:
    mid = (x0 + x1) / 2
    if mid < -1:
        return -((-mid.numerator) // mid.denominator)
    if mid > 1:
        return mid.numerator // mid.denominator
    if -1 < mid < 1:
        return 0
    raise RuntimeError(f"edge extent [{x0}, {x1}] straddles a bucket boundary")


def reference_expand(j: int, n: int, word_cap: int) -> EdgeTensor:
    """Literal substitution with every station x built as a Fraction."""
    g = build_gj(j)
    xs = [x for x in range(-j, j + 1) if x != 0]
    vals = [int(g(x)) for x in xs]
    laps = [(vals[m], vals[m + 1], Fraction(xs[m]), Fraction(xs[m + 1]))
            for m in range(len(vals) - 1)]
    for depth in range(2, n + 1):
        new_laps = []
        for (u, v, x0, x1) in laps:
            step_ = 1 if v > u else -1
            stations = [s for s in range(u, v + step_, step_) if s != 0]
            pts = [(x0 + (s - u) * (x1 - x0) / (v - u), int(g(s)))
                   for s in stations]
            for m in range(len(pts) - 1):
                new_laps.append((pts[m][1], pts[m + 1][1],
                                 pts[m][0], pts[m + 1][0]))
            if len(new_laps) > word_cap:
                raise WordLengthError(
                    f"expansion at n={depth} exceeds {word_cap} symbols")
        laps = new_laps
    w = j - 1
    grid = [[0] * (2 * j - 1) for _ in range(2 * j - 1)]
    for (u, v, x0, x1) in laps:
        grid[reference_bucket(x0, x1) + w][pair_label(j, u, v) + w] += 1
    return EdgeTensor(j, n, tuple(tuple(r) for r in grid))


@st.composite
def big_tensors(draw):
    j = draw(st.integers(2, 12))
    size = 2 * j - 1
    row = st.tuples(*[st.integers(0, 10**60)] * size)
    counts = draw(st.tuples(*[row] * size))
    return EdgeTensor(j, draw(st.integers(1, 10**4)), counts)


@settings(max_examples=150, deadline=None)
@given(big_tensors())
def test_step_equals_seven_case_reference(t):
    got, want = step(t), reference_step(t)
    assert (got.j, got.n) == (want.j, want.n) == (t.j, t.n + 1)
    assert got.counts == want.counts


def test_step_validates_its_output():
    # a grid that skipped validation must not pass through step unchecked
    bad = object.__new__(EdgeTensor)
    counts = [[0] * 5 for _ in range(5)]
    counts[2][2] = -5
    grid = tuple(map(tuple, counts))
    for name, value in (("j", 3), ("n", 1), ("_anchor", (grid, 1))):
        object.__setattr__(bad, name, value)
    with pytest.raises(ValueError, match="nonnegative"):
        step(bad)


def test_edge_tensor_rejects_one_ragged_row():
    rows = [(0,) * 5] * 5
    rows[3] = (0,) * 6
    with pytest.raises(ValueError, match="5x5"):
        EdgeTensor(3, 1, tuple(rows))


def test_expand_word_equals_fraction_reference():
    for j in range(2, 7):
        for n in range(1, 7):
            got = expand_word(j, n)
            want = reference_expand(j, n, 10**6)
            assert (got.n, got.counts) == (want.n, want.counts), (j, n)


@pytest.mark.parametrize("j", [3, 4, 5])
@pytest.mark.parametrize("cap", [1, 20, 100, 700, 3000])
def test_expand_word_cap_trips_at_the_reference_depth(j, cap):
    with pytest.raises(WordLengthError) as want:
        reference_expand(j, 8, cap)
    with pytest.raises(WordLengthError) as got:
        expand_word(j, 8, word_cap=cap)
    assert str(got.value) == str(want.value)


def test_pair_label_rejects_level_pairs_outside_the_alphabet():
    # adjacent levels at the ends of [-j, j] are no lap of g_j
    for j in (3, 4, 7):
        for u, v in ((-j, -(j - 1)), (j - 1, j), (j + 1, j + 2)):
            with pytest.raises(ValueError, match="not an edge"):
                pair_label(j, u, v)
            with pytest.raises(ValueError, match="not an edge"):
                pair_label(j, v, u)


# -- the derived rule ------------------------------------------------------------

class CountedInt(int):
    """An int that counts every addition made with it."""

    adds = 0

    def __add__(self, other):
        CountedInt.adds += 1
        return CountedInt(int(self) + int(other))


@pytest.mark.parametrize("j", range(2, 13))
def test_step_makes_4j_minus_4_additions_per_row(j):
    # each of the 2j - 1 new entries starts from the first of its two or
    # three sources and adds the rest: 6j - 5 sources, 4j - 4 additions
    size = 2 * j - 1
    row = tuple(map(CountedInt, range(1, size + 1)))
    CountedInt.adds = 0
    got = step(EdgeTensor(j, 1, (row,) * size))
    assert CountedInt.adds == size * (4 * j - 4)
    assert got.counts == reference_step(EdgeTensor(j, 1, (row,) * size)).counts


def test_rule_at_j2_counts_the_oracle_solutions():
    # the rule's own seed, step and cells, read without the public engine
    rule = _rule(2)
    phi, psi = make_theorem5_phi(2), make_theorem5_psi(2)
    counts = rule.seed
    for n, power in enumerate(iterates(build_gj(2), 8), start=1):
        fixed = sum(counts[r][c] for r, c in rule.fixed)
        antifixed = sum(counts[r][c] for r, c in rule.antifixed)
        assert fixed == count_fixed(power) == phi(n), n
        assert antifixed == count_antifixed(power) == psi(n), n
        counts = tuple(map(rule.advance, counts))


def test_rule_rejects_a_table_the_laps_do_not_close_on(monkeypatch):
    pairs = divseq.symbolic._paper_pairs(4)
    pairs[1] = (-4, -3)  # in place of (-3, -2)
    monkeypatch.setattr(divseq.symbolic, "_paper_pairs", lambda j: pairs)
    with pytest.raises(RuntimeError, match="labelled pairs"):
        _rule.__wrapped__(4)


# -- mirrored rows ---------------------------------------------------------------

def mirrored(upper, half):
    """The grid whose rows are `upper`, then the palindrome on `half`, then
    `upper`'s rows reversed in reverse order; every mirror partner is built
    from equal but distinct objects of its entries' types."""
    def partner(row):
        return tuple(type(v)(str(v)) for v in reversed(row))

    return (*upper, tuple(half) + partner(half[:-1]),
            *map(partner, reversed(upper)))


def is_mirrored(counts) -> bool:
    """Row 2j-2-r is row r reversed, for every r."""
    return tuple(row[::-1] for row in reversed(counts)) == counts


@st.composite
def mirrored_tensors(draw):
    j = draw(st.integers(2, 12))
    entry = st.integers(0, 10**60)
    upper = [draw(st.tuples(*[entry] * (2 * j - 1))) for _ in range(j - 1)]
    half = draw(st.tuples(*[entry] * j))
    return EdgeTensor(j, draw(st.integers(1, 10**4)), mirrored(upper, half))


@st.composite
def near_mirrored_tensors(draw):
    """A mirrored tensor with one entry raised: in the middle row off its
    centre, in the last row, or in the last column."""
    t = draw(mirrored_tensors())
    size = 2 * t.j - 1
    off_centre = [c for c in range(size) if c != t.j - 1]
    r, c = draw(st.one_of(
        st.tuples(st.just(t.j - 1), st.sampled_from(off_centre)),
        st.tuples(st.just(size - 1), st.integers(0, size - 1)),
        st.tuples(st.integers(0, size - 1), st.just(size - 1))))
    rows = [list(row) for row in t.counts]
    rows[r][c] += draw(st.integers(1, 10**60))
    return EdgeTensor(t.j, t.n, tuple(map(tuple, rows)))


@settings(max_examples=150, deadline=None)
@given(mirrored_tensors())
def test_step_on_mirrored_tensors_equals_seven_case_reference(t):
    assert is_mirrored(t.counts)
    got = step(t)
    assert got.counts == reference_step(t).counts
    assert is_mirrored(got.counts)


@settings(max_examples=150, deadline=None)
@given(near_mirrored_tensors())
def test_step_on_near_mirrored_tensors_equals_seven_case_reference(t):
    assert not is_mirrored(t.counts)
    assert step(t).counts == reference_step(t).counts


@pytest.mark.parametrize("j", range(2, 13))
def test_step_computes_j_rows_of_a_mirrored_tensor(j):
    size = 2 * j - 1
    upper = [tuple(map(CountedInt, range(r, r + size))) for r in range(j - 1)]
    half = tuple(map(CountedInt, range(100, 100 + j)))
    t = EdgeTensor(j, 1, mirrored(upper, half))
    CountedInt.adds = 0
    got = step(t)
    assert CountedInt.adds == j * (4 * j - 4)
    assert got.counts == reference_step(t).counts


def interpreted_step(j: int, counts):
    """Every row of the grid stepped in full: new entry i is the sum of the
    old entries whose laps split into a label-i lap, read off the rule's
    split table with no shared sums and no shared rows."""
    rule = _rule(j)
    sources = [[] for _ in range(2 * j - 1)]
    for c in range(2 * j - 1):
        for sub in rule.splits[label_pair(j, c - (j - 1))]:
            sources[rule.columns[sub]].append(c)
    return tuple(tuple(sum(row[c] for c in src) for src in sources)
                 for row in counts)


@pytest.mark.parametrize("j", range(2, 13))
def test_forty_steps_stay_mirrored_and_equal_the_interpreted_step(j):
    t, want = initial_tensor(j), initial_tensor(j).counts
    for n in range(2, 42):
        t, want = step(t), interpreted_step(j, want)
        assert (t.n, t.counts) == (n, want)
        assert is_mirrored(t.counts), n


def test_rule_rejects_a_map_that_is_not_odd(monkeypatch):
    # g_3 with g(3) = 3 in place of 2; its laps close on the five pairs
    # listed, so the closure check passes and the mirror check must object
    bent = PLMap((-3, -2, -1, 1, 2, 3), (-2, -1, 3, -3, 1, 3))
    pairs = [(-3, 1), (-3, 3), (-2, -1), (-1, 3), (1, 3)]
    monkeypatch.setattr(divseq.symbolic, "build_gj", lambda j: bent)
    monkeypatch.setattr(divseq.symbolic, "_paper_pairs", lambda j: pairs)
    with pytest.raises(RuntimeError, match="mirroring"):
        _rule.__wrapped__(3)


# -- deferred counts: M_j's characteristic polynomial and the jump -------------

# the library's own step, which defers the counts; the conftest wrapper that
# `step` names here reads every result at once
lazy_step = step.__wrapped__


def step_matrix(j: int) -> list[tuple[int, ...]]:
    """M_j: row i is unit row i stepped once."""
    size = 2 * j - 1
    advance = _rule(j).advance
    return [advance(tuple(int(c == i) for c in range(size)))
            for i in range(size)]


def fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    a = [list(map(Fraction, row)) for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            factor = a[r][c] / a[c][c]
            a[r] = [x - factor * y for x, y in zip(a[r], a[c])]
    return det


def eager(t: EdgeTensor, d: int):
    """t's grid stepped d times, every row on its own each time."""
    advance = _rule(t.j).advance
    rows = t.counts
    for _ in range(d):
        rows = tuple(map(advance, rows))
    return rows


square_matrices = st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(st.integers(-9, 9), min_size=k, max_size=k),
    min_size=k, max_size=k))


@settings(max_examples=60, deadline=None)
@given(square_matrices)
def test_charpoly_equals_the_determinant_of_x_minus_a(rows):
    # k + 1 points fix a polynomial of degree k
    k, poly = len(rows), _charpoly(rows)
    assert len(poly) == k + 1 and poly[0] == 1
    for x in range(-3, 4):
        shifted = [[x * (r == c) - rows[r][c] for c in range(k)]
                   for r in range(k)]
        assert sum(p * x ** (k - i) for i, p in enumerate(poly)) \
            == fraction_det(shifted)


@pytest.mark.parametrize("j", range(2, 11))
def test_characteristic_polynomial_is_the_theorem5_recurrence(j):
    # det(xI - M_j) = x**(2j-1) - z_1*x**(2j-2) - ... - z_(2j-1)
    z = list(make_theorem5_phi(j).coeffs)
    assert _charpoly(step_matrix(j)) == [1, *(-c for c in z)]
    assert _char_coeffs(j) == z


@pytest.mark.parametrize("j", range(2, 9))
def test_traces_of_step_matrix_powers_are_theorem5phi(j):
    m = step_matrix(j)
    phi, power = make_theorem5_phi(j), m
    for n in range(1, 40):
        assert sum(power[i][i] for i in range(len(m))) == phi(n), n
        power = [[sum(map(int.__mul__, row, column)) for column in zip(*m)]
                 for row in power]


def test_char_coeffs_checks_cayley_hamilton(monkeypatch):
    # x**5 - 1 is no polynomial of M_3
    monkeypatch.setattr(divseq.symbolic, "_charpoly",
                        lambda rows: [1, 0, 0, 0, 0, -1])
    with pytest.raises(RuntimeError, match="characteristic polynomial"):
        _char_coeffs.__wrapped__(3)


@settings(max_examples=40, deadline=None)
@given(st.one_of(big_tensors(), mirrored_tensors(), near_mirrored_tensors()),
       st.integers(1, 3000), st.integers(0, 3000))
@example(initial_tensor(12), 3000, 0)
@example(initial_tensor(12), 3000, 2000)
@example(EdgeTensor(4, 1, tuple(tuple(range(r, r + 7)) for r in range(7))),
         3000, 0)
def test_deferred_counts_equal_eager_stepping(t, d, read):
    # read once on the way there, which moves the anchor, or never
    u = t
    for i in range(1, d + 1):
        u = lazy_step(u)
        if i == read < d:
            u.counts
    assert (u.j, u.n) == (t.j, t.n + d)
    assert u.counts == eager(t, d)


def test_reads_one_step_apart_never_jump(monkeypatch):
    def no_jump(m, coeffs):
        raise AssertionError("jumped")

    monkeypatch.setattr(divseq.symbolic, "_x_power_mod", no_jump)
    for j in (2, 3, 8):
        t, want = initial_tensor(j), initial_tensor(j).counts
        for n in range(2, 102):
            t, want = lazy_step(t), interpreted_step(j, want)
            assert (t.n, t.counts) == (n, want)


def test_a_far_read_jumps_once(monkeypatch):
    calls = []

    def counted(m, coeffs):
        calls.append(m)
        return x_power_mod(m, coeffs)

    x_power_mod = divseq.symbolic._x_power_mod
    monkeypatch.setattr(divseq.symbolic, "_x_power_mod", counted)
    t = initial_tensor(8)
    for _ in range(2999):
        t = lazy_step(t)
    assert (c_count(t), d_count(t)) == (make_theorem5_phi(8)(3000),
                                        make_theorem5_psi(8)(3000))
    assert calls == [2999]


@pytest.mark.parametrize("j, n", [(3, 10**4), (5, 5 * 10**3), (8, 3 * 10**3)])
def test_a_far_read_steps_few_rows_of_small_entries(monkeypatch, j, n):
    # a census-shaped read, k = 2j - 1: k steps of the unit rows feed
    # Berkowitz, k**2 check Cayley-Hamilton on them, and the jump steps j
    # rows k - 1 times; every entry stepped fits in 32 bits
    rows = []
    rule = _rule(j)

    def counted(row):
        rows.append(row)
        return rule.advance(row)

    monkeypatch.setattr(divseq.symbolic, "_rule",
                        lambda j: rule._replace(advance=counted))
    monkeypatch.setattr(divseq.symbolic, "_char_coeffs",
                        _char_coeffs.__wrapped__)
    t = initial_tensor(j)
    for _ in range(n - 1):
        t = lazy_step(t)
    assert (c_count(t), d_count(t)) == (make_theorem5_phi(j)(n),
                                        make_theorem5_psi(j)(n))
    k = 2 * j - 1
    assert len(rows) == k * k + k + j * (k - 1) == {3: 42, 5: 130, 8: 352}[j]
    assert max(max(row) for row in rows) < 2**32


@pytest.mark.parametrize("j", [2, 3, 8])
def test_reads_step_to_two_orders_from_the_anchor_and_jump_past(
        monkeypatch, j):
    # the step/jump crossover is 2 * (2j - 1) steps from the anchor
    calls = []

    def counted(m, coeffs):
        calls.append(m)
        return x_power_mod(m, coeffs)

    x_power_mod = divseq.symbolic._x_power_mod
    monkeypatch.setattr(divseq.symbolic, "_x_power_mod", counted)
    limit = 2 * (2 * j - 1)
    want = [initial_tensor(j).counts]
    for _ in range(limit + 1):
        want.append(interpreted_step(j, want[-1]))
    for d, jumps in ((limit, []), (limit + 1, [limit + 1])):
        t = initial_tensor(j)
        for _ in range(d):
            t = lazy_step(t)
        calls.clear()
        assert t.counts == want[d]
        assert calls == jumps


@pytest.mark.parametrize("j", range(2, 13))
def test_the_step_is_plain_code_in_this_module(j):
    # the step is one closure over the rule's sources, not generated source
    assert _rule(j).advance.__code__.co_filename == divseq.symbolic.__file__


def test_a_deferred_tensor_is_the_same_record():
    t = initial_tensor(2)
    whole = EdgeTensor(2, 3, eager(t, 2))
    checks = (lambda u: u == whole, lambda u: whole == u,
              lambda u: not u != whole, lambda u: u == lazy_step(lazy_step(t)),
              lambda u: hash(u) == hash(whole), lambda u: repr(u) == repr(whole))
    assert whole._anchor == (whole.counts, whole.n)
    for check in checks:
        u = lazy_step(lazy_step(t))
        assert u._anchor[1] != u.n
        assert check(u)
        assert u._anchor == (whole.counts, u.n)
    u = lazy_step(t)
    with pytest.raises(AttributeError):
        u.counts = whole.counts
    with pytest.raises(AttributeError):
        u.n = 5
    assert (u.j, u.n) == (2, 2) and not hasattr(u, "__dict__")


def test_step_returns_a_plain_tensor_that_matches_unread():
    t = initial_tensor(3)
    u = lazy_step(lazy_step(t))
    assert type(u) is EdgeTensor and u._anchor[1] != u.n
    match u:
        case EdgeTensor(j, n, counts):
            assert (j, n, counts) == (3, 3, eager(t, 2))
        case _:
            pytest.fail("an unread tensor does not match EdgeTensor(j, n, counts)")
    assert u._anchor[1] == u.n


def test_step_shares_its_parents_anchor_and_reads_no_counts():
    read = initial_tensor(3)
    unread = lazy_step(lazy_step(read))
    for t in (read, unread):
        anchor = t._anchor
        assert lazy_step(t)._anchor is anchor
        assert t._anchor is anchor
    assert unread._anchor[1] == 1


@pytest.mark.parametrize("make", [
    lambda: factorize(12), lambda: initial_tensor(3),
    lambda: lazy_step(lazy_step(initial_tensor(3))),
    # maps: g_5 has straight interior nodes (1, 2, 7, 8), the file map one
    # at x = 1/3, and a composition none
    lambda: build_gj(5),
    lambda: parse_map_file("domain 0 1\n0 0\n1/3 1/2\n2/3 1\n1 0\n"),
    lambda: compose(build_gj(3), build_gj(3))],
    ids=["factorization", "tensor", "unread-deferred-tensor", "gj-map",
         "file-map", "composed-map"])
@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"])
def test_records_copy_and_pickle(make, clone):
    record = make()
    got = clone(record)
    assert type(got) is type(record)
    assert got == record == make()
    if isinstance(record, PLMap):
        # compose prunes its cuts through the straight nodes
        assert got._straight == record._straight
        assert compose(got, record) == compose(record, record)


def test_six_threads_reading_one_deferred_tensor_get_identical_counts():
    want = eager(initial_tensor(8), 2999)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            t = initial_tensor(8)
            for _ in range(2999):
                t = lazy_step(t)
            barrier, results = threading.Barrier(6), []

            def worker():
                barrier.wait()
                results.append(t.counts)

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [want] * 6
            assert t._anchor == (want, t.n)
    finally:
        sys.setswitchinterval(interval)


def test_unread_steps_keep_no_earlier_tensor_alive():
    first = initial_tensor(3)
    refs, t = [weakref.ref(first)], first
    del first
    for i in range(1, 10**4):
        t = lazy_step(t)
        if i % 2500 == 0:
            refs.append(weakref.ref(t))
    assert [ref() for ref in refs] == [None] * 4
    assert c_count(t) == make_theorem5_phi(3)(10**4)
    assert t._anchor[1] == t.n  # the n = 1 counts are dropped once read
