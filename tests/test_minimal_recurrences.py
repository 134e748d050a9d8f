"""Every sequence expression without a table satisfies one linear recurrence,
valid from n = 1, whose order has a bound S read off the expression: a
family's order (plus 1 with a constant), the same S for a dilation, the sum
of the parts' S for `lin` and the product of the factors' S for `prod`. So
Berlekamp-Massey over Fraction on q(1..2S) finds the minimal recurrence
exactly. These tests find it for six expressions, before any of them is
compiled into one recurrence by the library."""

from __future__ import annotations

from fractions import Fraction

import pytest

from divseq.cli import parse_expression


def berlekamp_massey(values):
    """The shortest c with q(n) = c[0]*q(n-1) + ... + c[L-1]*q(n-L) for
    every n > L among values, over Fraction (Massey, "Shift-register
    synthesis and BCH decoding", IEEE Trans. IT 1969)."""
    s = list(map(Fraction, values))
    conn, prev = [Fraction(1)], [Fraction(1)]  # connection polynomials
    order, gap, last = 0, 1, Fraction(1)
    for n, value in enumerate(s):
        miss = value + sum(conn[i] * s[n - i] for i in range(1, order + 1))
        if miss == 0:
            gap += 1
            continue
        old, scale = conn[:], miss / last
        conn += [Fraction(0)] * (len(prev) + gap - len(conn))
        for i, p in enumerate(prev):
            conn[i + gap] -= scale * p
        if 2 * order <= n:
            order, prev, last, gap = n + 1 - order, old, miss, 1
        else:
            gap += 1
    conn += [Fraction(0)] * (order + 1 - len(conn))
    return [-c for c in conn[1:order + 1]]


@pytest.mark.parametrize("values, want", [
    ([1, 1, 2, 3, 5, 8, 13], [1, 1]),
    ([2, 4, 8, 16], [2]),
    ([0, 0, 0, 1], [0, 0, 0, 1]),
    ([1, 2, 3, 4, 5, 6], [2, -1]),
])
def test_berlekamp_massey_on_small_sequences(values, want):
    assert berlekamp_massey(values) == want


# expression, bound S, minimal order, last n checked (2S + 60, but the
# dilation by 1000 fills its base to 1000*n)
ROWS = [
    ("theorem4(3,5,7)", 4, 4, 68),
    ("dilate(theorem5phi(3),1000)", 5, 5, 40),
    ("prod(theorem5phi(2),theorem5phi(3))", 15, 15, 90),
    ("prod(theorem5phi(2),theorem5psi(3),theorem4(3,0,1))", 45, 45, 150),
    ("prod(theorem5phi(3),theorem5phi(3),theorem5phi(3))", 125, 33, 310),
    ("lin(1,dilate(theorem5phi(4),7),5,prod(theorem5psi(2),theorem5psi(2)))",
     16, 12, 92),
]


@pytest.mark.parametrize("text, bound, order, n_max", ROWS,
                         ids=[row[0] for row in ROWS])
def test_one_integer_recurrence_of_order_at_most_the_bound(text, bound, order,
                                                           n_max):
    seq = parse_expression(text)
    q = [seq(n) for n in range(1, n_max + 1)]
    coeffs = berlekamp_massey(q[:2 * bound])
    assert all(c.denominator == 1 for c in coeffs)
    assert len(coeffs) == order <= bound
    for n in range(order, n_max):
        assert q[n] == sum(c * q[n - 1 - i] for i, c in enumerate(coeffs)), n


def test_one_changed_value_breaks_the_recurrence():
    # theorem5phi(3) to n = 20 with q(7) raised by 1 needs order 10, over
    # Fraction
    seq = parse_expression("theorem5phi(3)")
    q = [seq(n) for n in range(1, 21)]
    assert len(berlekamp_massey(q)) == 5
    q[6] += 1
    coeffs = berlekamp_massey(q)
    assert len(coeffs) == 10
    assert any(c.denominator != 1 for c in coeffs)
