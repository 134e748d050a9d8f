"""Exact piecewise-linear maps: construction, composition, and the counting
oracle for f^n(x) = x and g^n(x) = -x."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divseq.interval_map import (
    InfiniteSolutionsError,
    PieceCapExceededError,
    PLMap,
    antifixed_point_solutions,
    build_gj,
    compose,
    count_antifixed,
    count_fixed,
    fixed_point_solutions,
    is_odd_map,
    iterates,
    load_map_file,
    parse_map_file,
)
from divseq.sequences import make_theorem5_phi, make_theorem5_psi


def tent() -> PLMap:
    return PLMap([0, Fraction(1, 2), 1], [0, 1, 0])


def powers(f: PLMap, n_max: int) -> dict[int, PLMap]:
    """n -> f^n for n = 1..n_max, from one pass of `iterates`."""
    return dict(enumerate(iterates(f, n_max), start=1))


# -- construction and evaluation ----------------------------------------------

def test_build_gj_j2_nodes():
    g2 = build_gj(2)
    assert g2.xs == (-2, -1, 1, 2)
    assert g2.ys == (-1, 2, -2, 1)


def test_build_gj_pointwise():
    g3 = build_gj(3)
    assert g3(-3) == -2
    assert g3(1) == -3
    assert g3(-1) == 3
    assert g3(3) == 2
    assert g3(0) == 0  # odd maps fix the origin


def test_build_gj_rejects_small_j():
    with pytest.raises(ValueError):
        build_gj(1)


def test_plmap_validation():
    with pytest.raises(ValueError):
        PLMap([0], [0])
    with pytest.raises(ValueError):
        PLMap([0, 0, 1], [0, 1, 0])
    with pytest.raises(ValueError):
        PLMap([0, 1], [0, 2])  # value escapes the domain


def test_plmap_is_immutable():
    g = build_gj(2)
    with pytest.raises(AttributeError):
        g.xs = (0, 1)


def test_eval_interpolates_exactly():
    t = tent()
    assert t(Fraction(1, 4)) == Fraction(1, 2)
    assert t(Fraction(5, 8)) == Fraction(3, 4)
    with pytest.raises(ValueError):
        t(2)


def test_domain_and_pieces():
    g = build_gj(3)
    assert g.domain == (-3, 3)
    assert g.pieces == 5


# -- composition and iteration -------------------------------------------------

def test_compose_identity_laws():
    g2 = build_gj(2)
    ident = PLMap([-2, 2], [-2, 2])
    assert compose(ident, g2) == g2
    assert compose(g2, ident) == g2


def test_compose_fixes_origin_of_odd_map():
    g2 = build_gj(2)
    assert compose(g2, g2)(0) == 0


def test_compose_prunes_collinear_nodes():
    inner = PLMap([0, Fraction(1, 2), 1], [0, Fraction(1, 2), 1])
    outer = PLMap([0, 1], [0, 1])
    assert compose(outer, inner).xs == (0, 1)


def test_compose_rejects_domain_mismatch():
    small = PLMap([0, 1], [0, 1])
    big = PLMap([-2, 2], [-2, 2])
    with pytest.raises(ValueError):
        compose(small, big)  # big's range [-2,2] escapes small's domain
    # outer maps inner's range inside its own domain, but out of inner's
    tent = PLMap([-1, Fraction(1, 2), 2], [-1, 2, -1])
    with pytest.raises(ValueError, match=r"^not a self-map: value 2 at "
                                         r"x=1/2 is outside \[0, 1\]$"):
        compose(tent, small)


def test_iterate_basics():
    g2, g3 = build_gj(2), build_gj(3)
    first, second = iterates(g2, 2)
    assert first is g2
    assert second(-1) == 1
    assert powers(g3, 2)[2](1) == -2
    assert list(iterates(g2, 0)) == []


def test_piece_growth_bound():
    g2 = build_gj(2)
    for n, power in enumerate(iterates(g2, 8), start=1):
        assert power.pieces <= 3**n * g2.pieces


def test_piece_cap_reports_iterate_step():
    g2 = build_gj(2)
    # pieces of g_2^n run 3, 7, 17, 41, 99: the fifth iterate is refused
    with pytest.raises(PieceCapExceededError, match="needs 99 pieces") as info:
        list(iterates(g2, 9, piece_cap=50))
    assert info.value.n == 5


def test_iterate_agrees_with_pointwise_application():
    g3 = build_gj(3)
    *_, g3_4 = iterates(g3, 4)
    rng = random.Random(20260816)
    for _ in range(200):
        x = Fraction(rng.randrange(-3000, 3001), 1000)
        y = x
        for _ in range(4):
            y = g3(y)
        assert g3_4(x) == y


# -- counting -------------------------------------------------------------------

def test_count_fixed_examples():
    g2, g3 = powers(build_gj(2), 4), powers(build_gj(3), 2)
    assert count_fixed(g2[1]) == 1
    assert fixed_point_solutions(g2[1]) == (0,)
    assert count_fixed(g3[2]) == 7
    assert count_fixed(g2[4]) == 35


def test_count_antifixed_examples():
    g2, g3 = powers(build_gj(2), 2), powers(build_gj(3), 4)
    assert count_antifixed(g2[1]) == 3
    assert antifixed_point_solutions(g2[1]) == (Fraction(-5, 4), 0,
                                                Fraction(5, 4))
    assert count_antifixed(g2[2]) == 5
    assert count_antifixed(g3[4]) == 3**4 - 16 * 3**0 == 65


def test_tent_map_fixed_points():
    assert fixed_point_solutions(tent()) == (0, Fraction(2, 3))


def test_antifixed_requires_symmetric_domain():
    with pytest.raises(ValueError):
        count_antifixed(tent())


def test_infinite_solution_sets_are_detected():
    ident = PLMap([0, 1], [0, 1])
    with pytest.raises(InfiniteSolutionsError):
        count_fixed(ident)
    neg = PLMap([-1, 1], [1, -1])
    with pytest.raises(InfiniteSolutionsError):
        count_antifixed(neg)
    # ... and for an iterate: neg∘neg is the identity
    with pytest.raises(InfiniteSolutionsError):
        count_fixed(powers(neg, 2)[2])


def _count_by_sign_changes(f: PLMap, sign: int) -> int:
    """Independent recount: no root is ever solved for. Zero endpoints are
    deduplicated through a set; strict sign changes each hide exactly one
    interior root."""
    endpoint_zeros = set()
    interior = 0
    for i in range(len(f.xs) - 1):
        d0 = f.ys[i] - sign * f.xs[i]
        d1 = f.ys[i + 1] - sign * f.xs[i + 1]
        assert not (d0 == 0 == d1), "coincident segment"
        if d0 == 0:
            endpoint_zeros.add(f.xs[i])
        if d1 == 0:
            endpoint_zeros.add(f.xs[i + 1])
        if (d0 > 0 > d1) or (d0 < 0 < d1):
            interior += 1
    return len(endpoint_zeros) + interior


def test_counts_match_sign_change_oracle():
    for j in (2, 3):
        g = build_gj(j)
        for power in iterates(g, 6):
            assert count_fixed(power) == _count_by_sign_changes(power, 1)
            assert count_antifixed(power) == _count_by_sign_changes(power, -1)


def test_oracle_matches_recurrences():
    """The central desk-scale identity: enumeration equals the closed
    recurrences for both equations."""
    for j in (2, 3, 4):
        phi, psi = make_theorem5_phi(j), make_theorem5_psi(j)
        for n, power in enumerate(iterates(build_gj(j), 6), start=1):
            assert count_fixed(power) == phi(n), (j, n)
            assert count_antifixed(power) == psi(n), (j, n)


def test_antifixed_solutions_are_fixed_at_double_n():
    for j in (2, 3):
        g = powers(build_gj(j), 6)
        for n in (1, 2, 3):
            anti = set(antifixed_point_solutions(g[n]))
            fixed2n = set(fixed_point_solutions(g[2 * n]))
            assert anti <= fixed2n, (j, n)


def test_iterate_consistency_for_composite_exponents():
    for j in (2, 3):
        g = powers(build_gj(j), 6)
        for a in range(1, 7):
            # (g^a)^b for b = 1..6//a, one pass over the iterates of g^a
            for b, power in enumerate(iterates(g[a], 6 // a), start=1):
                assert count_fixed(g[a * b]) == count_fixed(power), (j, a, b)


# -- oddness ---------------------------------------------------------------------

def test_build_gj_is_odd():
    for j in range(2, 7):
        assert is_odd_map(build_gj(j))


def test_iterates_of_odd_maps_stay_odd():
    for j in (2, 3, 4):
        for n, power in enumerate(iterates(build_gj(j), 5), start=1):
            assert is_odd_map(power), (j, n)


def test_is_odd_map_counterexamples():
    assert not is_odd_map(PLMap([0, 1], [0, 1]))  # asymmetric domain
    # symmetric domain but f(0) != 0
    shifted = PLMap([-1, 0, 1], [-1, 1, -1])
    assert not is_odd_map(shifted)
    # symmetric domain, f(0) = 0, but asymmetric slopes
    skew = PLMap([-1, 0, 1], [Fraction(1, 2), 0, -1])
    assert not is_odd_map(skew)


# -- map files --------------------------------------------------------------------

TENT_FILE = "domain 0 1\n0 0\n1/2 1\n1 0\n"


def test_parse_map_file_tent():
    m = parse_map_file(TENT_FILE)
    assert m == tent()
    assert count_fixed(m) == 2


def test_parse_map_file_allows_comments():
    m = parse_map_file("# tent\ndomain 0 1\n\n0 0  # left\n1/2 1\n1 0\n")
    assert m == tent()


def test_parse_map_file_errors():
    with pytest.raises(ValueError, match="header"):
        parse_map_file("0 0\n1 1\n")
    with pytest.raises(ValueError, match="bad rational"):
        parse_map_file("domain 0 x\n0 0\n1 0\n")
    with pytest.raises(ValueError, match="start at"):
        parse_map_file("domain 0 1\n0 0\n1/2 1\n")
    with pytest.raises(ValueError, match="expected 'x y'"):
        parse_map_file("domain 0 1\n0 0 0\n1 0\n")
    with pytest.raises(ValueError, match="self-map"):
        parse_map_file("domain 0 1\n0 0\n1 5\n")
    with pytest.raises(ValueError, match="empty"):
        parse_map_file("   \n# only comments\n")


def test_load_map_file(tmp_path):
    path = tmp_path / "tent.map"
    path.write_text(TENT_FILE)
    assert load_map_file(path) == tent()


# -- properties of the integer representation ----------------------------------

@st.composite
def domains(draw):
    """[lo, hi] with small-denominator ends, symmetric about 0 half the time."""
    if draw(st.booleans()):
        hi = Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 12)))
        return -hi, hi
    lo = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 12)))
    return lo, lo + Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 12)))


@st.composite
def pl_maps(draw, domain):
    """A continuous PL self-map of `domain` whose interior breakpoints and
    values have two-digit denominators, like the benchmark's map files; some
    pieces are constant and some nodes collinear (left unpruned)."""
    lo, hi = domain

    def rational():
        q = draw(st.integers(10, 99))
        return lo + (hi - lo) * Fraction(draw(st.integers(0, q)), q)

    interior = {rational() for _ in range(draw(st.integers(0, 4)))}
    xs = [lo, *sorted(interior - {lo, hi}), hi]
    ys = []
    for _ in xs:
        constant_piece = ys and draw(st.integers(0, 3)) == 0
        ys.append(ys[-1] if constant_piece else rational())
    nodes = [(xs[0], ys[0])]
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if draw(st.booleans()):     # a collinear node inside the segment
            nodes.append(((x0 + x1) / 2, (y0 + y1) / 2))
        nodes.append((x1, y1))
    return PLMap([x for x, _ in nodes], [y for _, y in nodes])


@st.composite
def map_pairs(draw):
    domain = draw(domains())
    return draw(pl_maps(domain)), draw(pl_maps(domain))


random_maps = domains().flatmap(pl_maps)


@settings(max_examples=80, deadline=None)
@given(pair=map_pairs(),
       ts=st.lists(st.fractions(0, 1, max_denominator=999), max_size=5))
def test_compose_agrees_with_pointwise_application(pair, ts):
    a, b = pair
    ab = compose(a, b)
    lo, hi = b.domain
    for x in a.xs + b.xs + tuple(lo + (hi - lo) * t for t in ts):
        assert ab(x) == a(b(x))


@settings(max_examples=40, deadline=None)
@given(g=random_maps, n=st.integers(2, 3))
def test_both_composition_orders_build_the_same_iterate(g, n):
    *_, before, power = iterates(g, n)
    assert compose(g, before) == compose(before, g) == power


@settings(max_examples=60, deadline=None)
@given(f=random_maps, n=st.integers(1, 3))
def test_random_map_counts_match_sign_change_oracle(f, n):
    *_, power = iterates(f, n)
    lo, hi = f.domain
    for sign, count in ((1, count_fixed), (-1, count_antifixed)):
        if sign < 0 and lo != -hi:
            continue
        try:
            got = count(power)
        except InfiniteSolutionsError:
            assert any(y0 == sign * x0 and y1 == sign * x1 for x0, x1, y0, y1
                       in zip(power.xs, power.xs[1:], power.ys, power.ys[1:]))
        else:
            assert got == _count_by_sign_changes(power, sign)


@settings(max_examples=60, deadline=None)
@given(f=random_maps, n=st.integers(1, 2))
def test_rational_views_round_trip(f, n):
    *_, power = iterates(f, n)
    for m in (f, power):
        copy = PLMap(m.xs, m.ys)
        assert copy == m and hash(copy) == hash(m)
        assert m.den == lcm(*(v.denominator for v in m.xs + m.ys))


@settings(max_examples=40, deadline=None)
@given(inner=random_maps)
def test_composition_leaving_the_domain_raises(inner):
    lo, hi = inner.domain
    # a tent on a wider domain that sends inner's value at lo to hi + 1
    outer = PLMap([lo - 1, inner.ys[0], hi + 1], [lo - 1, hi + 1, lo - 1])
    with pytest.raises(ValueError, match="not a self-map"):
        compose(outer, inner)


# -- compose and the counters against references ------------------------------

def _stack_pruned(xs, ys):
    """Drop every interior node collinear with its neighbours, on a stack:
    the pruning compose applied to every node before it tested only where a
    node can be collinear."""
    out_x, out_y = [xs[0]], [ys[0]]
    for x2, y2 in zip(xs[1:], ys[1:]):
        while len(out_x) >= 2:
            x0, x1, y0, y1 = out_x[-2], out_x[-1], out_y[-2], out_y[-1]
            if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
                out_x.pop()
                out_y.pop()
            else:
                break
        out_x.append(x2)
        out_y.append(y2)
    return out_x, out_y


def reference_compose(outer: PLMap, inner: PLMap) -> tuple[PLMap, int]:
    """outer∘inner in Fractions, and its piece count before pruning: inner's
    nodes plus the preimages of outer's breakpoints strictly inside each
    non-constant inner segment, valued pointwise."""
    xs = [inner.xs[0]]
    for x0, x1, y0, y1 in zip(inner.xs, inner.xs[1:], inner.ys, inner.ys[1:]):
        if y0 != y1:
            xs += sorted(x0 + (b - y0) * (x1 - x0) / (y1 - y0)
                         for b in outer.xs if min(y0, y1) < b < max(y0, y1))
        xs.append(x1)
    ys = [outer(inner(x)) for x in xs]
    return PLMap(*_stack_pruned(xs, ys)), len(xs) - 1


@settings(max_examples=150, deadline=None)
@given(pair=map_pairs())
def test_compose_equals_the_stack_pruned_reference(pair):
    a, b = pair
    # maps from compose have no straight node; drawn maps may have some
    for outer, inner in ((a, b), (b, a), (compose(a, b), b),
                         (a, compose(b, a))):
        got, (want, _) = compose(outer, inner), reference_compose(outer, inner)
        assert (got.den, got.xnum, got.ynum) == (want.den, want.xnum,
                                                 want.ynum)


def test_compose_prunes_cuts_through_straight_outer_nodes():
    # outer is straight at 1/3 and 2/3 and bends at 1/2; a rising inner
    # segment cuts all three, a falling one cuts them in reverse order
    half = Fraction(1, 2)
    outer = PLMap([0, Fraction(1, 3), half, Fraction(2, 3), 1],
                  [0, Fraction(1, 3), half, Fraction(1, 3), 0])
    for inner in (PLMap([0, 1], [0, 1]), PLMap([0, 1], [1, 0])):
        assert compose(outer, inner) == PLMap([0, half, 1], [0, half, 0])
    tent = PLMap([0, half, 1], [0, 1, 0])
    assert compose(outer, tent) == PLMap([0, half / 2, half, 3 * half / 2, 1],
                                         [0, half, 0, half, 0])


@settings(max_examples=60, deadline=None)
@given(f=random_maps, cap=st.integers(1, 80))
def test_piece_cap_trips_at_the_reference_iterate(f, cap):
    power, trips = f, None
    for n in (2, 3):
        power, needed = reference_compose(power, f)
        if needed > cap:
            trips = n
            break
    if trips is None:
        assert len(list(iterates(f, 3, cap))) == 3
    else:
        with pytest.raises(PieceCapExceededError) as info:
            list(iterates(f, 3, cap))
        assert info.value.n == trips
        assert str(info.value) == (f"composition needs {needed} pieces; "
                                   f"cap is {cap}")


def _on_line_message(f: PLMap, sign: int) -> str | None:
    """The InfiniteSolutionsError text for the first segment of f on
    y = sign*x, or None when no segment lies on it."""
    for x0, x1, y0, y1 in zip(f.xs, f.xs[1:], f.ys, f.ys[1:]):
        if y0 == sign * x0 and y1 == sign * x1:
            line = "x" if sign > 0 else "-x"
            return f"segment [{x0}, {x1}] coincides with y = {line}"
    return None


def _check_counter_pair(f: PLMap, sign: int):
    """The counter and the solver agree on f: the same count, or the same
    InfiniteSolutionsError naming the first segment on the line."""
    count, solve = ((count_fixed, fixed_point_solutions) if sign > 0
                    else (count_antifixed, antifixed_point_solutions))
    message = _on_line_message(f, sign)
    if message is None:
        roots = solve(f)
        assert count(f) == len(roots)
        assert list(roots) == sorted(set(roots))
        assert all(f(x) == sign * x for x in roots)
        return
    for fn in (count, solve):
        with pytest.raises(InfiniteSolutionsError) as info:
            fn(f)
        assert str(info.value) == message


@settings(max_examples=80, deadline=None)
@given(f=random_maps, n=st.integers(1, 3))
def test_counters_count_the_solutions(f, n):
    *_, power = iterates(f, n)
    lo, hi = f.domain
    for sign in (1, -1) if lo == -hi else (1,):
        _check_counter_pair(power, sign)


@st.composite
def maps_on_a_line(draw):
    """A map of a symmetric domain with one or more segments moved onto
    y = x or y = -x, and the sign of that line."""
    hi = Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 12)))
    m = draw(pl_maps((-hi, hi)))
    sign = draw(st.sampled_from((1, -1)))
    ys = list(m.ys)
    for k in draw(st.sets(st.integers(0, m.pieces - 1), min_size=1)):
        ys[k], ys[k + 1] = sign * m.xs[k], sign * m.xs[k + 1]
    return PLMap(m.xs, ys), sign


@settings(max_examples=80, deadline=None)
@given(case=maps_on_a_line())
def test_counters_name_the_first_segment_on_the_line(case):
    f, sign = case
    assert _on_line_message(f, sign) is not None
    _check_counter_pair(f, sign)
    _check_counter_pair(f, -sign)
