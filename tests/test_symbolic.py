"""The edge-count engine: initial tensor, seven-case recurrence, aggregates,
and the literal word-substitution cross-check."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from divseq.sequences import make_theorem5_phi, make_theorem5_psi
from divseq.symbolic import (
    EdgeTensor,
    WordLengthError,
    _bucket_of,
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
    for j in (3, 4, 5, 6):
        t = initial_tensor(j)
        assert [sum(row) for row in t.counts] == [1] * (2 * j - 1)


def test_engine_rejects_j2():
    with pytest.raises(ValueError):
        initial_tensor(2)
    with pytest.raises(ValueError):
        expand_word(2, 1)


def test_edge_tensor_validation():
    with pytest.raises(ValueError):
        EdgeTensor(3, 1, ((1,),))
    with pytest.raises(ValueError):
        zero_tensor(2)
    with pytest.raises(ValueError):
        EdgeTensor(3, 0, zero_tensor(3).counts)
    bad = [[0] * 5 for _ in range(5)]
    bad[0][0] = -1
    with pytest.raises(ValueError):
        EdgeTensor(3, 1, tuple(tuple(r) for r in bad))
    with pytest.raises(IndexError):
        initial_tensor(3).entry(3, 0)


# -- the seven-case step -----------------------------------------------------

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
    for j in (3, 4, 5):
        assert expand_word(j, 1).counts == initial_tensor(j).counts


def test_expand_word_matches_step():
    for j in (3, 4):
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


def test_bucket_of_straddling_extent_raises_runtime_error():
    # midpoint -1 sits on the boundary between buckets -1 and 0; the check
    # is an explicit exception, so it also holds under python -O
    with pytest.raises(RuntimeError, match="straddles"):
        _bucket_of(3, Fraction(-2), Fraction(0))
