"""Acceptance gate: one test per shipping criterion, each timed against its
budget and reported on a single PASS/FAIL line."""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from divseq.arith import phi1, phi2
from divseq.cli import run_divisibility
from divseq.interval_map import (
    build_gj,
    count_antifixed,
    count_fixed,
    is_odd_map,
    iterates,
)
from divseq.sequences import (
    dilate,
    dilate_odd,
    linear_combine,
    make_theorem4,
    make_theorem5_phi,
    make_theorem5_psi,
    product,
)
from divseq.symbolic import c_count, d_count, expand_word, initial_tensor, step


@contextmanager
def criterion(capsys, number: int, budget: float, desc: str):
    start = time.perf_counter()
    failure = None
    try:
        yield
    except BaseException as exc:
        failure = exc
    elapsed = time.perf_counter() - start
    ok = failure is None and elapsed < budget
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {desc} "
              f"({elapsed:.2f}s, budget {budget:.0f}s)")
    if failure is not None:
        raise failure
    assert elapsed < budget, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget:.0f}s")


def test_criterion_1_zigzag_family_base_values(capsys):
    with criterion(capsys, 1, 1.0,
                   "zigzag family base values exact for j in 2..6"):
        for j in range(2, 7):
            phi_j, psi_j = make_theorem5_phi(j), make_theorem5_psi(j)
            for n in range(1, j + 1):
                assert phi_j(n) == 3**n - 2, (j, n)
            assert psi_j(j) == 3**j - 2 * j, j


def test_criterion_2_oracle_equals_recurrence(capsys):
    with criterion(capsys, 2, 60.0,
                   "map oracle equals recurrences, j in 2..4, n in 1..8"):
        for j in (2, 3, 4):
            phi_j, psi_j = make_theorem5_phi(j), make_theorem5_psi(j)
            for n, power in enumerate(iterates(build_gj(j), 8), start=1):
                assert count_fixed(power) == phi_j(n), (j, n)
                assert count_antifixed(power) == psi_j(n), (j, n)


def test_criterion_3_triple_agreement(capsys):
    with criterion(capsys, 3, 10.0,
                   "edge engine = oracle = recurrence, j in 2..4, n in 1..8"):
        for j in (2, 3, 4):
            phi_j, psi_j = make_theorem5_phi(j), make_theorem5_psi(j)
            tensor = initial_tensor(j)
            for n, power in enumerate(iterates(build_gj(j), 8), start=1):
                if n > 1:
                    tensor = step(tensor)
                c, d = c_count(tensor), d_count(tensor)
                assert c == phi_j(n) == count_fixed(power), (j, n)
                assert d == psi_j(n) == count_antifixed(power), (j, n)


def test_criterion_4_rowwise_rule_equals_substitution(capsys):
    with criterion(capsys, 4, 30.0,
                   "rowwise recurrence matches literal word expansion, "
                   "j in 2..4, n <= 6"):
        for j in (2, 3, 4):
            tensor = initial_tensor(j)
            for n in range(1, 7):
                if n > 1:
                    tensor = step(tensor)
                assert expand_word(j, n).counts == tensor.counts, (j, n)


def test_criterion_5_divisibility_suites(capsys):
    with criterion(capsys, 5, 30.0,
                   "divisibility suites: base families plus combinator "
                   "closures, zero failures"):
        def passes(seq, mode, n_max):
            report = run_divisibility(seq, mode, n_max)
            assert report.failures == 0, (seq.id, mode, report.first_failure)

        # families with shift and scale
        for j in (2, 3, 5):
            for k in (-3, 0, 1, 7):
                for m in (-3, 0, 1, 7):
                    passes(make_theorem4(j, k, m), "phi1-mod-n", 48)
        # zigzag families under both operators
        for j in (2, 3, 4, 5):
            passes(make_theorem5_phi(j), "phi1-mod-n", 48)
            passes(make_theorem5_psi(j), "phi2-mod-2n", 48)
        # combinator closures
        passes(linear_combine(3, make_theorem5_phi(2),
                              -2, make_theorem4(3, 0, 1)), "phi1-mod-n", 24)
        passes(dilate(make_theorem5_phi(2), 2), "phi1-mod-n", 24)
        passes(dilate(make_theorem5_phi(3), 3), "phi1-mod-n", 24)
        passes(dilate_odd(make_theorem5_psi(2), 3), "phi2-mod-2n", 24)
        passes(product([make_theorem5_phi(2), make_theorem5_phi(3)]),
               "phi1-mod-n", 20)
        passes(product([make_theorem5_psi(2), make_theorem5_psi(3)]),
               "phi2-mod-2n", 20)


def test_criterion_6_tensor_recurrence_entrywise(capsys):
    with criterion(capsys, 6, 1.0,
                   "every tensor entry obeys the order-5 recurrence, j = 3, "
                   "n in 6..10"):
        coeffs = (1, 3, 5, 3, 1)
        tensors = [initial_tensor(3)]
        for _ in range(9):
            tensors.append(step(tensors[-1]))
        for n in range(6, 11):
            for r in range(5):
                for c in range(5):
                    want = sum(coeffs[m - 1] * tensors[n - 1 - m].counts[r][c]
                               for m in range(1, 6))
                    assert tensors[n - 1].counts[r][c] == want, (n, r, c)


def test_criterion_7_open_question_scan(capsys):
    with criterion(capsys, 7, 30.0,
                   "phi1 of the antisymmetric family stays divisible, "
                   "j in 2..3, n <= 36 (no counterexample)"):
        for j in (2, 3):
            report = run_divisibility(make_theorem5_psi(j), "phi1-mod-n", 36)
            assert report.failures == 0, (j, report.first_failure)


def test_criterion_8_property_suite(capsys):
    with criterion(capsys, 8, 60.0,
                   "properties: phi1 linearity, phi2=phi1 on odd n, "
                   "iterate consistency, odd-map closure"):
        rng = random.Random(20260816)

        # linearity of the inclusion-exclusion operator
        for _ in range(100):
            a = [rng.randint(-99, 99) for _ in range(30)]
            b = [rng.randint(-99, 99) for _ in range(30)]
            k, m = rng.randint(-9, 9), rng.randint(-9, 9)
            fa, fb = (lambda n: a[n - 1]), (lambda n: b[n - 1])
            combo = lambda n: k * a[n - 1] + m * b[n - 1]
            n = rng.randint(1, 30)
            assert phi1(combo, n) == k * phi1(fa, n) + m * phi1(fb, n)

        # the odd-prime variant collapses to the plain one on odd n > 1
        vals = [rng.randint(-999, 999) for _ in range(99)]
        seq = lambda n: vals[n - 1]
        for n in range(3, 100, 2):
            assert phi2(seq, n) == phi1(seq, n)

        # counting fixed points of f^(ab) via the a-th iterate: one pass
        # over g's iterates, and one over the iterates of each g^a
        for j in (2, 3):
            g = dict(enumerate(iterates(build_gj(j), 6), start=1))
            for a in range(1, 7):
                for b, power in enumerate(iterates(g[a], 6 // a), start=1):
                    assert count_fixed(g[a * b]) == count_fixed(power), \
                        (j, a * b, a)

        # iterates of odd maps stay odd
        for j in (2, 3, 4):
            for n, power in enumerate(iterates(build_gj(j), 4), start=1):
                assert is_odd_map(power), (j, n)
