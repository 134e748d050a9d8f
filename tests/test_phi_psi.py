"""Links between the phi and psi sequences of one odd map: psi as a twisted
trace of the matrix whose trace is phi, and a mod-2n formula that ties
phi1(phi, n) to phi2(psi, n/2)."""

from __future__ import annotations

import pytest

from divseq.arith import phi1, phi2
from divseq.interval_map import (
    build_gj,
    count_antifixed,
    count_fixed,
    iterates,
)
from divseq.sequences import (
    dilate,
    make_theorem5_phi,
    make_theorem5_psi,
    product,
)
from divseq.symbolic import _rule


def odd_symmetry_failures(phi, psi, n_max: int) -> list[int]:
    """The n <= n_max at which 2n does not divide phi1(phi, n) - n*S(n),
    where S(n) = [n = 1] + [n even]*phi2(psi, n/2)/n.

    For an odd map g with phi(n) = #{g^n x = x} and psi(n) = #{g^n x = -x},
    x -> -x pairs up the primitive n-orbits that it does not fix. A fixed
    one is {0}, at n = 1, or has n even and -x = g^(n/2) x: its n points
    have least antiperiod n/2, and phi2(psi, n/2) counts those points, so
    S(n) counts the symmetric orbits and the formula holds at every n.
    phi2(psi, n/2) must itself be a multiple of n, which is checked too."""
    failures = []
    for n in range(1, n_max + 1):
        symmetric = int(n == 1)
        if n % 2 == 0:
            points = phi2(psi, n // 2)
            assert points % n == 0, (n, points)
            symmetric += points // n
        if (phi1(phi, n) - n * symmetric) % (2 * n):
            failures.append(n)
    return failures


@pytest.mark.parametrize("j", range(2, 7))
def test_odd_symmetry_formula_for_the_zigzag_families(j):
    assert odd_symmetry_failures(make_theorem5_phi(j), make_theorem5_psi(j),
                                 200) == []


def test_odd_symmetry_formula_for_a_product_of_pairs():
    # the product of two odd maps is odd, and counts multiply
    phi = product([make_theorem5_phi(2), make_theorem5_phi(3)])
    psi = product([make_theorem5_psi(2), make_theorem5_psi(3)])
    assert odd_symmetry_failures(phi, psi, 100) == []


@pytest.mark.parametrize("k", [2, 3])
def test_odd_symmetry_formula_for_a_dilated_pair(k):
    # g**k is odd for every k
    phi, psi = make_theorem5_phi(3), make_theorem5_psi(3)
    assert odd_symmetry_failures(dilate(phi, k), dilate(psi, k), 80) == []


def test_odd_symmetry_formula_for_the_oracles_counts():
    powers = list(iterates(build_gj(3), 8))
    phi = [count_fixed(g) for g in powers]
    psi = [count_antifixed(g) for g in powers]
    assert odd_symmetry_failures(lambda n: phi[n - 1], lambda n: psi[n - 1],
                                 8) == []


def test_odd_symmetry_formula_fails_for_a_mismatched_pair():
    # phi and psi of different maps: the check is not met trivially
    assert odd_symmetry_failures(make_theorem5_phi(3), make_theorem5_psi(2),
                                 12) == [4, 6]


@pytest.mark.parametrize("j", range(2, 9))
def test_phi_is_a_trace_and_psi_a_twisted_trace(j):
    # row i of M_j is unit row i stepped once, so stepping row i of M_j**(n-1)
    # gives row i of M_j**n. R reverses the labels, so the diagonal of
    # R*M_j**n is entry size-1-i of row i of M_j**n
    advance, size = _rule(j).advance, 2 * j - 1
    rows = [tuple(int(c == i) for c in range(size)) for i in range(size)]
    phi, psi = make_theorem5_phi(j), make_theorem5_psi(j)
    for n in range(1, 40):
        rows = list(map(advance, rows))
        assert sum(row[i] for i, row in enumerate(rows)) == phi(n), (j, n)
        assert sum(row[size - 1 - i] for i, row in enumerate(rows)) \
            == psi(n), (j, n)
