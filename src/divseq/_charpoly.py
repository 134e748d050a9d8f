"""Characteristic polynomials on plain int lists: computing one from an
integer matrix, and powering x modulo one. `sequences` jumps a linear
recurrence to a far n with the second; `symbolic` jumps an edge tensor with
both."""

from __future__ import annotations

from operator import mul


def _charpoly(rows) -> list[int]:
    """det(x*I - A) for the square integer matrix A given by its rows, as
    its coefficients from x**k down to the constant term (the first is 1).

    Berkowitz's division-free recursion: the polynomial of each leading
    principal submatrix is a lower triangular Toeplitz matrix times the
    previous one, the Toeplitz column being 1, -a, -R*C, -R*M*C, ... for
    the new diagonal entry a, the new row R and column C and the previous
    submatrix M. O(k**4) integer operations, no division."""
    poly = [1]
    for k, row in enumerate(rows):
        left, column = row[:k], [rows[i][k] for i in range(k)]
        toeplitz = [1, -row[k]]
        for _ in range(k):
            toeplitz.append(-sum(map(mul, left, column)))
            column = [sum(map(mul, r[:k], column)) for r in rows[:k]]
        poly = [sum(toeplitz[i - m] * poly[m] for m in range(min(i, k) + 1))
                for i in range(k + 2)]
    return poly


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
