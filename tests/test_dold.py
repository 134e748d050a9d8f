"""Combinators from the algebra of Dold sequences, the q with n | phi1(q, n)
for every n: the symmetric square sym2, the exterior square ext2 and the
k-fold tower. They are written out here as plain functions of n, over the
sequences the expression grammar builds, to check that each sends a
dividing formula to a dividing formula before any of them becomes a
generator."""

from __future__ import annotations

from fractions import Fraction

import pytest

from divseq.arith import phi1
from divseq.cli import parse_expression

N_MAX = 60

DOLD = ["theorem5phi(2)", "theorem5phi(3)", "theorem5psi(2)", "theorem5psi(3)",
        "theorem4(3,5,7)", "lin(3,theorem5phi(2),-2,theorem4(3,0,1))",
        "prod(theorem5phi(2),theorem5psi(3))",
        "lin(1,theorem5phi(2),-5,theorem5phi(3))", "const(-7)"]


def sym2(q):
    """(q(n)**2 + q(2n))/2: the periodic points on unordered pairs {x, y},
    the diagonal included."""
    return lambda n: Fraction(q(n) ** 2 + q(2 * n), 2)


def ext2(q):
    """(q(n)**2 - q(2n))/2: the pairs {x, y} with x != y."""
    return lambda n: Fraction(q(n) ** 2 - q(2 * n), 2)


def tower(q, k):
    """k*q(n/k) when k | n, else 0: the periodic points of the tower over
    the map, k levels cycled with the map applied once a cycle."""
    return lambda n: k * q(n // k) if n % k == 0 else 0


def phi1_failures(q) -> list[int]:
    """The n <= N_MAX at which n does not divide phi1(q, n); a value that is
    no integer makes phi1 no integer, so it fails there too."""
    return [n for n in range(1, N_MAX + 1) if phi1(q, n) % n]


@pytest.mark.parametrize("expr", DOLD)
def test_sym2_ext2_and_tower_keep_the_dividing_formula(expr):
    q = parse_expression(expr)
    # q(2n) = q(n)**2 (mod 2) for a Dold q, so sym2 and ext2 are integers
    assert [n for n in range(1, N_MAX + 1) if (q(n) ** 2 + q(2 * n)) % 2] == []
    assert phi1_failures(q) == []
    for combined in (sym2(q), ext2(q), tower(q, 2), tower(q, 3), tower(q, 5)):
        assert phi1_failures(combined) == []


@pytest.mark.parametrize("m", [3, 5, 7])
def test_one_raised_value_breaks_them_where_it_is_read(m):
    # sym2 first reads q(m) at n = m, and tower(q, 2) at n = 2m
    base = parse_expression("theorem5phi(3)")

    def q(n):
        return base(n) + (n == m)

    assert phi1_failures(q)[0] == m
    assert phi1_failures(sym2(q))[0] == m
    assert phi1_failures(tower(q, 2))[0] == 2 * m
