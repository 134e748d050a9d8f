"""Command-line behaviour: expression grammar, subcommands, formats,
exit codes, and byte-level determinism."""

from __future__ import annotations

import contextlib
import decimal
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divseq
from divseq import __version__, cli, sequences
from divseq.arith import divisibility_check
from divseq.cli import (
    ExpressionError,
    _render,
    main,
    parse_expression,
    run_divisibility,
)
from divseq.interval_map import DEFAULT_PIECE_CAP
from divseq.sequences import (
    MAP_DERIVED_PHI,
    ODD_MAP_DERIVED_PSI,
    PHI1_CLOSURE,
    unlimited_int_digits,
)


def run_main(capsys, *args: str):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the child interpreter imports divseq from where this one did
SRC = str(Path(divseq.__file__).resolve().parent.parent)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([SRC, path] if path else [SRC]))


def run_proc(*args: str, timeout: float | None = None,
             stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "divseq", *args],
                          stdout=stdout, stderr=subprocess.PIPE,
                          env=child_env(), timeout=timeout)


# -- expression grammar ------------------------------------------------------

def test_parse_generators():
    assert parse_expression("theorem4(2,0,1)").id == "theorem4(j=2,k=0,m=1)"
    assert parse_expression("theorem5phi(3)").id == "theorem5phi(j=3)"
    assert parse_expression("theorem5psi(2)")(3) == 15
    assert parse_expression("const(7)")(5) == 7
    assert parse_expression("constant(7)")(5) == 7  # long spelling accepted


def test_parse_nested_combinators():
    seq = parse_expression("lin(3, theorem5phi(2), -2, theorem4(3,0,1))")
    assert seq(4) == 3 * 35 - 2 * 11
    assert seq.guarantee == PHI1_CLOSURE
    assert parse_expression("dilate(theorem5phi(2),2)").guarantee \
        == MAP_DERIVED_PHI
    assert parse_expression(
        "prod(theorem5psi(2),theorem5psi(3))").guarantee \
        == ODD_MAP_DERIVED_PSI
    assert parse_expression("dilateodd(theorem5psi(2),3)")(1) == 15


def test_parse_tolerates_whitespace():
    seq = parse_expression("  lin( 1 , const( 2 ) , 1 , const( 3 ) )  ")
    assert seq(1) == 5


def test_parse_table_path_quoting(tmp_path):
    path = tmp_path / "vals.txt"
    path.write_text("4\n9\n16\n")
    assert parse_expression(f"table({path})")(2) == 9
    assert parse_expression(f"table('{path}')")(3) == 16
    assert parse_expression(f'table("{path}")')(1) == 4


# malformed expression -> the ExpressionError text it raises
REJECTED = {
    "": "expected a generator or combinator name at position 0 in ''",
    "const(5)x": "trailing characters at position 8 in 'const(5)x'",
    "theorem4(2,0)": "expected ',' at position 12 in 'theorem4(2,0)'",
    "bogus(3)":
        "unknown generator or combinator 'bogus' at position 6 in 'bogus(3)'",
    # j < 2 rejected by the family itself
    "theorem4(1,0,1)": "theorem4 requires j >= 2, got 1",
    "dilate(const(1),0)": "dilate requires k >= 1, got 0",
    "lin(1,const(1),2)": "expected ',' at position 16 in 'lin(1,const(1),2)'",
    "table()": "empty table(...) path at position 6 in 'table()'",
}


@pytest.mark.parametrize("bad", REJECTED)
def test_parse_rejects(bad):
    with pytest.raises(ExpressionError) as exc:
        parse_expression(bad)
    assert str(exc.value) == REJECTED[bad]


# -- seq ---------------------------------------------------------------------

def test_seq_csv(capsys):
    code, out, err = run_main(
        capsys, "seq", "theorem4", "--j", "2", "--k", "0", "--m", "1",
        "--n-max", "6")
    assert code == 0
    assert out == "n,value\n1,1\n2,3\n3,4\n4,7\n5,11\n6,18\n"
    assert err == ""


def test_seq_tsv(capsys):
    code, out, _ = run_main(
        capsys, "seq", "theorem5-psi", "--j", "2", "--n-max", "3",
        "--format", "tsv")
    assert code == 0
    assert out == "n\tvalue\n1\t3\n2\t5\n3\t15\n"


def test_seq_json_meta_and_big_values(capsys):
    code, out, _ = run_main(
        capsys, "seq", "theorem5-phi", "--j", "2", "--n-max", "120",
        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "seq"
    assert payload["meta"]["version"] == __version__
    assert payload["meta"]["params"]["n_max"] == 120
    last = payload["rows"][-1]
    assert last["n"] == 120
    assert isinstance(last["value"], str)  # exact decimal, no float rounding
    assert int(last["value"]) > 2**63


def test_seq_constant(capsys):
    code, out, _ = run_main(capsys, "seq", "constant", "--value", "7",
                            "--n-max", "2")
    assert code == 0
    assert out == "n,value\n1,7\n2,7\n"


def test_seq_missing_flag_is_usage_error(capsys):
    code, _, err = run_main(capsys, "seq", "theorem4", "--j", "2", "--k", "0")
    assert code == 2
    assert "--m" in err


def test_seq_table_file(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("5\n10\n20\n")
    code, out, _ = run_main(capsys, "seq", "table", "--file", str(path),
                            "--n-max", "3")
    assert code == 0
    assert out == "n,value\n1,5\n2,10\n3,20\n"
    code, _, err = run_main(capsys, "seq", "table", "--file", str(path),
                            "--n-max", "4")
    assert code == 2
    assert "n=4" in err


def test_seq_default_n_max(capsys):
    code, out, _ = run_main(capsys, "seq", "theorem5-phi", "--j", "3")
    assert code == 0
    assert len(out.splitlines()) == 25  # header + 24 rows


# -- verify ------------------------------------------------------------------

def test_verify_passing_report(capsys):
    code, out, err = run_main(
        capsys, "verify", "theorem5phi(2)", "--mode", "phi1-mod-n",
        "--n-max", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,q,phi,modulus,remainder,pass"
    assert len(lines) == 13
    assert all(line.endswith(",true") for line in lines[1:])
    assert err == ""


def test_verify_constant_seven_all_pass(capsys):
    code, out, _ = run_main(
        capsys, "verify", "constant(7)", "--mode", "phi1-mod-n")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 49  # default n-max 48
    assert lines[1] == "1,7,7,1,0,true"
    assert lines[2] == "2,7,0,2,0,true"  # inclusion-exclusion cancels


def test_verify_failure_exits_one(capsys):
    # theorem4 comes with a phi1 guarantee only; phi2 mod 2n fails at n=2
    code, out, _ = run_main(
        capsys, "verify", "theorem4(2,0,1)", "--mode", "phi2-mod-2n",
        "--n-max", "6", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"]["failures"] >= 1
    assert payload["summary"]["first_failure"] == 2
    assert payload["meta"]["params"]["guarantee"] == MAP_DERIVED_PHI
    row = payload["rows"][1]
    assert row["pass"] is False
    assert row["remainder"] == "2"


def test_verify_dilate_odd_keeps_psi_guarantee(capsys):
    code, out, _ = run_main(
        capsys, "verify", "dilateodd(theorem5psi(2),3)", "--mode",
        "phi2-mod-2n", "--n-max", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["params"]["guarantee"] == ODD_MAP_DERIVED_PSI
    assert payload["summary"]["failures"] == 0


def test_verify_even_dilation_keeps_psi_guarantee(capsys):
    # g^2 is odd when g is, so an even dilation keeps the phi2 formula
    code, out, _ = run_main(
        capsys, "verify", "dilate(theorem5psi(3),2)", "--mode",
        "phi2-mod-2n", "--format", "json", "--n-max", "50")
    assert code == 0
    assert '"guarantee": "odd-map-derived-psi"' in out
    assert json.loads(out)["summary"]["failures"] == 0


def test_verify_table_exhaustion_reported_per_row(capsys, tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("1\n3\n7\n15\n")  # passes phi1 mod n while it lasts
    code, out, err = run_main(
        capsys, "verify", f"table({path})", "--mode", "phi1-mod-n",
        "--n-max", "6")
    assert code == 1
    lines = out.splitlines()
    assert lines[4].endswith(",true")
    assert lines[5] == "5,,,5,,false"
    assert lines[6] == "6,,,6,,false"
    assert "row n=5" in err
    assert "row n=6" in err


def test_verify_json_keeps_stderr_clean(capsys, tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("1\n")
    code, out, err = run_main(
        capsys, "verify", f"table({path})", "--mode", "phi1-mod-n",
        "--n-max", "2", "--format", "json")
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert payload["rows"][1]["q"] is None
    assert "error" in payload["rows"][1]


def test_run_divisibility_returns_the_rows_verify_prints(capsys, tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("1\n3\n7\n15\n")
    for expr, n_max, want in (
            ("lin(3,theorem5phi(2),-2,theorem4(3,0,1))", 30, 0),
            (f"table({path})", 6, 1)):
        code, out, _ = run_main(capsys, "verify", expr, "--mode",
                                "phi1-mod-n", "--n-max", str(n_max),
                                "--format", "json")
        assert code == want
        rows = run_divisibility(parse_expression(expr), "phi1-mod-n", n_max)
        assert rows == json.loads(out)["rows"]
    assert [row["n"] for row in rows if "error" in row] == [5, 6]


def reference_phi(q: dict, n: int, odd_only: bool) -> int:
    """phi1 (or phi2, when odd_only) by trial division and
    itertools.combinations, as a second route to the report's values."""
    primes, rest, p = [], n, 2
    while rest > 1:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if odd_only:
        primes = [p for p in primes if p != 2]
        if not primes:
            return q[n] - 1
    total = 0
    for size in range(len(primes) + 1):
        for subset in itertools.combinations(primes, size):
            d = 1
            for p in subset:
                d *= p
            total += (-1) ** size * q[n // d]
    return total


@settings(max_examples=25, deadline=None)
@example(period=[3, 0, -5, 10**40], length=2310, n_max=2310)
@example(period=[0], length=0, n_max=3)
@given(period=st.lists(st.just(0) | st.integers(-10**40, 10**40),
                       min_size=1, max_size=12),
       length=st.integers(0, 2400), n_max=st.integers(1, 2400))
def test_report_rows_match_a_reference_inclusion_exclusion(period, length,
                                                           n_max):
    # int tables with negatives and zeros, of any length against n_max: a
    # row past the table's end fails with the table's own message
    values = [period[(n * n) % len(period)] * (n % 7 - 3)
              for n in range(1, length + 1)]
    q = dict(enumerate(values, start=1))
    for mode, factor in (("phi1-mod-n", 1), ("phi2-mod-2n", 2)):
        seq = sequences.parse_table("\n".join(map(str, values)))
        rows = run_divisibility(seq, mode, n_max)
        assert [row["n"] for row in rows] == list(range(1, n_max + 1))
        for row in rows:
            n = row["n"]
            if n > length:
                assert row == {
                    "n": n, "q": None, "phi": None, "modulus": factor * n,
                    "remainder": None, "pass": False,
                    "error": f"table(<table>) holds {length} values; "
                             f"n={n} is out of range"}
                continue
            phi = reference_phi(q, n, mode == "phi2-mod-2n")
            remainder = phi % (factor * n)
            assert row == {"n": n, "q": str(q[n]), "phi": str(phi),
                           "modulus": factor * n,
                           "remainder": str(remainder),
                           "pass": remainder == 0}, (mode, n)


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables")
    (path / "short.txt").write_text("1\n-0\n15\n")
    (path / "mixed.txt").write_text("\n".join(
        str((-1) ** n * (n * n % 11) * 10**n) for n in range(1, 41)) + "\n")
    return path


# generators and combinators with small parameters, so that n_max <= 300
# rarely meets the fill cap (a report that does must raise as the ascent
# did); DIR stands for the table directory
REPORT_LEAVES = st.one_of(
    st.builds("theorem4({},{},{})".format, st.integers(2, 4),
              st.integers(-3, 3), st.integers(-3, 3)),
    st.builds("theorem5phi({})".format, st.integers(2, 4)),
    st.builds("theorem5psi({})".format, st.integers(2, 4)),
    st.builds("const({})".format, st.integers(-3, 3)),
    st.sampled_from(["table(DIR/short.txt)", "table(DIR/mixed.txt)"]),
)
REPORT_EXPRS = st.recursive(REPORT_LEAVES, lambda sub: st.one_of(
    st.builds("lin({},{},{},{})".format, st.integers(-3, 3), sub,
              st.integers(-3, 3), sub),
    st.builds("dilate({},{})".format, sub, st.integers(1, 3)),
    st.builds("dilateodd({},{})".format, sub, st.sampled_from([1, 3])),
    st.builds(lambda seqs: f"prod({','.join(seqs)})",
              st.lists(sub, min_size=1, max_size=3)),
), max_leaves=4)


def rows_from_a_full_cache(seq, mode: str, n_max: int):
    """The report rows built as they were before streaming: an ascent of
    seq(n) for every n, a row per n read from the int cache and printed
    from ints, the first error other than a table's end raised. So the
    rows printed from the Decimal stream are checked against the int
    path."""
    transform, factor = cli._MODES[mode]
    rows = []
    for n in range(1, n_max + 1):
        try:
            q = seq(n)
        except sequences.TableRangeError as exc:
            rows.append({"n": n, "q": None, "phi": None,
                         "modulus": factor * n, "remainder": None,
                         "pass": False, "error": str(exc)})
            continue
        phi = transform(seq, n)
        ok, remainder = divisibility_check(phi, factor * n)
        with unlimited_int_digits():
            rows.append({"n": n, "q": str(q), "phi": str(phi),
                         "modulus": factor * n, "remainder": str(remainder),
                         "pass": ok})
    return rows


def outcome(report, *args):
    try:
        return report(*args)
    except sequences.FillCapExceededError as exc:
        return str(exc)


def assert_caches_within(seq, bound: int):
    """No cache below seq holds more than bound values, times the dilation
    factors on the way to it."""
    assert len(seq._values) <= bound, (seq.id, len(seq._values), bound)
    if isinstance(seq, sequences.DilationSequence):
        assert_caches_within(seq.base, seq.k * bound)
    for part in seq._parts:
        assert_caches_within(part, bound)


@settings(max_examples=80, deadline=None)
@example(expr="lin(-1,const(0),-1,prod(const(0),const(-3)))", n_max=7)
@example(expr="dilate(lin(1,table(DIR/mixed.txt),2,dilate(table(DIR/short.txt)"
              ",3)),2)", n_max=30)
@example(expr="prod(dilateodd(theorem5psi(2),3),table(DIR/mixed.txt))",
         n_max=300)
@given(expr=REPORT_EXPRS, n_max=st.integers(1, 300))
def test_streamed_rows_equal_rows_from_a_full_cache(table_dir, expr, n_max):
    text = expr.replace("DIR", str(table_dir))
    for mode in ("phi1-mod-n", "phi2-mod-2n"):
        seq = parse_expression(text)
        got = outcome(run_divisibility, seq, mode, n_max)
        want = outcome(rows_from_a_full_cache, parse_expression(text), mode,
                       n_max)
        assert got == want, mode
        # the rows keep the values they read again in a list of their own
        assert_caches_within(seq, 0)


def first_zeta_failure(q, n_max: int):
    """The least N <= n_max at which a_N is not an integer, or None, where
    exp(sum q(n) t**n / n) = sum a_N t**N, so that
    N*a_N = sum_{k <= N} q(k)*a_(N-k) with a_0 = 1. The series is the Euler
    product prod (1 - t**n)**(-phi1(q, n)/n), so this N is the first n with
    n not dividing phi1(q, n), found with no Mobius sum and no factoring."""
    a = [1]
    for big_n in range(1, n_max + 1):
        a_n = Fraction(sum(q[k - 1] * a[big_n - k]
                           for k in range(1, big_n + 1)), big_n)
        if a_n.denominator != 1:
            return big_n
        a.append(a_n.numerator)
    return None


def dold_table(orbits, at: int, delta: int):
    """q(n) = sum_{d | n} d*orbits[d-1], which passes phi1-mod-n at every
    n, with delta added at n = at (so that the first failure, if any, can
    come at any n)."""
    n_max = len(orbits)
    q = [sum(d * orbits[d - 1] for d in range(1, n + 1) if n % d == 0)
         for n in range(1, n_max + 1)]
    if at <= n_max:
        q[at - 1] += delta
    return sequences.parse_table("\n".join(map(str, q)))


@settings(max_examples=60, deadline=None)
@example(orbits=[1] * 60, at=60, delta=30, n_max=60)
@example(orbits=[0, 1], at=1, delta=1, n_max=60)
@given(orbits=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=60),
       at=st.integers(1, 61), delta=st.integers(-12, 12),
       n_max=st.integers(1, 60))
def test_first_failing_row_is_where_the_zeta_route_fails_for_tables(
        orbits, at, delta, n_max):
    seq = dold_table(orbits, at, delta)
    n_max = min(n_max, seq._reach())
    rows = run_divisibility(seq, "phi1-mod-n", n_max)
    # the report reads the table's one list and caches nothing
    assert seq._values == []
    q = [seq(n) for n in range(1, n_max + 1)]
    assert len(seq._values) == n_max  # seq(n) fills exactly q(1..n)
    failed = next((row["n"] for row in rows if not row["pass"]), None)
    assert failed == first_zeta_failure(q, n_max)


@settings(max_examples=60, deadline=None)
@example(expr="lin(1,table(DIR/mixed.txt),1,const(1))", n_max=60)
@example(expr="prod(table(DIR/short.txt),theorem5phi(2))", n_max=60)
@given(expr=REPORT_EXPRS, n_max=st.integers(1, 60))
def test_first_failing_row_is_where_the_zeta_route_fails(table_dir, expr,
                                                         n_max):
    seq = parse_expression(expr.replace("DIR", str(table_dir)))
    # up to the reach: past a table's end a row fails that the zeta route
    # cannot read
    n_max = min(n_max, seq._reach())
    rows = run_divisibility(seq, "phi1-mod-n", n_max)
    failed = next((row["n"] for row in rows if not row["pass"]), None)
    q = [seq(n) for n in range(1, n_max + 1)]
    assert failed == first_zeta_failure(q, n_max)


def test_report_rows_leave_the_decimal_context_at_each_row():
    # every exact context a row enters ends before the row is yielded, so
    # the code that renders it runs in the caller's context
    seen = set()
    with decimal.localcontext() as caller:
        for mode in ("phi1-mod-n", "phi2-mod-2n"):
            seq = parse_expression("theorem5psi(2)")
            for _ in cli._divisibility_rows(seq, mode, 40):
                seen.add(decimal.getcontext() is caller)
    assert seen == {True}


def test_verify_bad_expression_is_usage_error(capsys):
    code, _, err = run_main(
        capsys, "verify", "nope(1)", "--mode", "phi1-mod-n")
    assert code == 2
    assert "divseq:" in err


@pytest.mark.parametrize("expr", [
    "dilate(" * 400 + "const(1)" + ",1)" * 400,  # deep when evaluated
    "prod(" * 600 + "const(1)" + ")" * 600,      # deep when parsed
], ids=["dilate-400", "prod-600"])
def test_verify_deeply_nested_expression_is_usage_error(expr):
    proc = run_proc("verify", expr, "--mode", "phi1-mod-n", "--n-max", "3")
    assert proc.returncode == 2
    assert proc.stderr == b"divseq: the sequence expression is nested too " \
                          b"deeply\n"


def test_verify_nested_150_deep_still_evaluates():
    expr = "dilate(" * 150 + "const(1)" + ",1)" * 150
    proc = run_proc("verify", expr, "--mode", "phi1-mod-n", "--n-max", "3")
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("expr, values", [
    ("theorem5phi(1000000000000000000000)", (1, 7, 25)),
    ("theorem5psi(1000000000000000000000)", (3, 9, 27)),
    ("theorem4(1000000000000000000000,0,1)", (1, 3, 7)),
    ("theorem4(100000000,0,1)", (1, 3, 7)),
])
def test_verify_huge_recurrence_orders_exit_zero(expr, values):
    # the coefficients are computed when read and the order is not a len(),
    # so an order past sys.maxsize, or one of 10**8, builds nothing
    proc = run_proc("verify", expr, "--mode", "phi1-mod-n", "--n-max", "3",
                    timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    q1, q2, q3 = values
    assert proc.stdout.decode().splitlines()[1:] == [
        f"1,{q1},{q1},1,0,true", f"2,{q2},{q2 - q1},2,0,true",
        f"3,{q3},{q3 - q1},3,0,true"]


def test_verify_nested_dilations_past_the_fill_cap_exit_three():
    # 2**150 * n values asked of const(1): refused before any is computed
    expr = "dilate(" * 150 + "const(1)" + ",2)" * 150
    proc = run_proc("verify", expr, "--mode", "phi1-mod-n", "--n-max", "3",
                    timeout=60)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr == b"divseq: n=16777216 is past the fill cap of " \
                          b"10000000 values\n"


def nested(wrap: tuple[str, str], depth: int) -> str:
    left, right = wrap
    return left * depth + "const(1)" + right * depth


@pytest.mark.parametrize("wrap", [
    ("dilate(", ",1)"), ("lin(1,", ",1,const(2))"), ("prod(", ")"),
], ids=["dilate", "lin", "prod"])
def test_nesting_limit_is_decided_by_the_parser(wrap):
    at = run_proc("verify", nested(wrap, cli._MAX_NESTING), "--mode",
                  "phi1-mod-n", "--n-max", "3")
    assert (at.returncode, at.stderr) == (0, b"")
    past = run_proc("verify", nested(wrap, cli._MAX_NESTING + 1), "--mode",
                    "phi1-mod-n", "--n-max", "3")
    assert (past.returncode, past.stdout, past.stderr) == (
        2, b"", b"divseq: the sequence expression is nested too deeply\n")
    with pytest.raises(ExpressionError, match="^the sequence expression is "
                                              "nested too deeply$"):
        parse_expression(nested(wrap, cli._MAX_NESTING + 1))


@pytest.mark.parametrize("args", [
    ("verify", "theorem5phi(3)", "--mode", "phi1-mod-n"),
    ("verify", "table(DIR/four.txt)", "--mode", "phi1-mod-n"),
    ("conjecture", "--j", "3"),
    ("seq", "theorem5-phi", "--j", "3"),
    ("crosscheck", "--j", "3"),
], ids=["verify", "verify-table", "conjecture", "seq", "crosscheck"])
def test_fill_cap_refusal_fills_nothing_first(tmp_path, args):
    # the ascent would fill 10**7 values before it met n = 10**7 + 1, a
    # table report would write an error row for each n past its end, and
    # crosscheck would compose g_3's iterates up to the piece cap first
    (tmp_path / "four.txt").write_text("1\n3\n4\n7\n")
    args = [arg.replace("DIR", str(tmp_path)) for arg in args]
    proc = run_proc(*args, "--n-max", str(sequences.FILL_CAP + 1), timeout=5)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr == b"divseq: n=10000001 is past the fill cap of " \
                          b"10000000 values\n"


# -- values past Python's default int<->str digit limit ------------------------

# 5001 digits, over the 4300-digit default of Python >= 3.11; the test
# writes the decimal text itself, since str(10**5000) would hit that limit
BIG = "1" + "0" * 5000
BIG_PLUS_2 = "1" + "0" * 4999 + "2"


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_seq_table_parses_and_renders_big_values(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(f"{BIG}\n-{BIG}\n")
    limit = _digit_limit()
    code, out, err = run_main(capsys, "seq", "table", "--file", str(path),
                              "--n-max", "2")
    assert (code, err) == (0, "")
    assert out == f"n,value\n1,{BIG}\n2,-{BIG}\n"
    code, out, _ = run_main(capsys, "seq", "table", "--file", str(path),
                            "--n-max", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][1]["value"] == f"-{BIG}"
    assert _digit_limit() == limit  # restored after the command


def test_verify_table_with_big_values(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(f"{BIG}\n{BIG_PLUS_2}\n")  # phi1 at n = 2 is 2
    code, out, err = run_main(capsys, "verify", f"table({path})",
                              "--mode", "phi1-mod-n", "--n-max", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [f"1,{BIG},{BIG},1,0,true",
                                    f"2,{BIG_PLUS_2},2,2,0,true"]


# -- oracle ------------------------------------------------------------------

def test_oracle_zigzag_fixed(capsys):
    code, out, _ = run_main(capsys, "oracle", "--j", "2", "--n-max", "4")
    assert code == 0
    assert out == "n,value\n1,1\n2,7\n3,13\n4,35\n"


def test_oracle_zigzag_antifixed(capsys):
    code, out, _ = run_main(capsys, "oracle", "--j", "2", "--n-max", "3",
                            "--equation", "antifixed")
    assert code == 0
    assert out == "n,value\n1,3\n2,5\n3,15\n"


def test_oracle_map_file(capsys, tmp_path):
    path = tmp_path / "tent.map"
    path.write_text("domain 0 1\n0 0\n1/2 1\n1 0\n")
    code, out, _ = run_main(capsys, "oracle", "--map-file", str(path),
                            "--n-max", "3")
    assert code == 0
    assert out == "n,value\n1,2\n2,4\n3,8\n"


def test_oracle_piece_cap_exits_three(capsys):
    code, _, err = run_main(capsys, "oracle", "--j", "3", "--n-max", "8",
                            "--piece-cap", "100")
    assert code == 3
    assert "oracle stopped at n=" in err


@pytest.mark.parametrize("command", ["oracle", "crosscheck"])
@pytest.mark.parametrize("j, cap", [(10**21, None), (3, 4), (10**21, 10**25),
                                    (10**8, 10**9)])
def test_g_j_with_more_pieces_than_the_cap_is_refused_first(
        capsys, monkeypatch, command, j, cap):
    # decided from j, before g_j's 2j nodes are built: no OverflowError at
    # j = 10**21, and no row at n = 1; a --piece-cap past the default does
    # not lift the bound past the default (10**8 would build 2*10**8 nodes)
    def no_map(j):
        raise AssertionError("build_gj was called")

    monkeypatch.setattr(cli, "build_gj", no_map)
    flags = [] if cap is None else ["--piece-cap", str(cap)]
    code, out, err = run_main(capsys, command, "--j", str(j), "--n-max", "1",
                              *flags)
    assert (code, out) == (3, "")
    bound = min(cap or DEFAULT_PIECE_CAP, DEFAULT_PIECE_CAP)
    assert err == f"divseq: g_{j} has {2 * j - 1} pieces; cap is {bound}\n"


@pytest.mark.parametrize("j, err", [
    (1582, f"the edge tensor of g_1582 has {3163 ** 2} cells; "
           f"cap is {DEFAULT_PIECE_CAP}"),
    (10**21, f"g_{10**21} has {2 * 10**21 - 1} pieces; "
             f"cap is {DEFAULT_PIECE_CAP}")])
def test_crosscheck_refuses_an_edge_tensor_past_the_cap_first(
        capsys, monkeypatch, j, err):
    # (2j - 1)**2 cells past the default piece cap, whatever --piece-cap
    # says: exit 3 before the grid is built; j = 1581 has 9 991 921 cells
    def no_tensor(j):
        raise AssertionError("initial_tensor was called")

    monkeypatch.setattr(cli, "initial_tensor", no_tensor)
    code, out, got = run_main(capsys, "crosscheck", "--j", str(j),
                              "--n-max", "1")
    assert (code, out, got) == (3, "", f"divseq: {err}\n")


@pytest.mark.parametrize("equation", ["fixed", "antifixed"])
def test_oracle_segment_on_the_line_is_usage_error(capsys, tmp_path, equation):
    # y = x on [-1, 0] and y = -x on [0, 1]: infinitely many solutions
    path = tmp_path / "diagonal.map"
    path.write_text("domain -1 1\n-1 -1\n0 0\n1 -1\n")
    code, out, err = run_main(capsys, "oracle", "--map-file", str(path),
                              "--equation", equation)
    assert code == 2
    assert out == ""
    assert err.startswith("divseq: segment [")
    assert err.endswith("so the solution count is infinite\n")


@pytest.mark.parametrize("token", ["1e5", "1e3000000", "0.5", "1_0"])
def test_oracle_map_file_takes_only_integers_and_fractions(capsys, tmp_path,
                                                         token):
    path = tmp_path / "tent.map"
    path.write_text(f"domain 0 1\n0 0\n1/2 {token}\n1 0\n")
    code, out, err = run_main(capsys, "oracle", "--map-file", str(path),
                              "--n-max", "2")
    assert code == 2
    assert out == ""
    assert err == f"divseq: {path}:3: bad rational {token!r}\n"


def test_oracle_rejects_bad_j(capsys):
    code, _, err = run_main(capsys, "oracle", "--j", "1", "--n-max", "2")
    assert code == 2
    assert "divseq:" in err


# -- crosscheck ---------------------------------------------------------------

def test_crosscheck_j3_agrees(capsys):
    code, out, err = run_main(capsys, "crosscheck", "--j", "3",
                              "--n-max", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,equation,recurrence,oracle,symbolic,agree"
    assert len(lines) == 9  # fixed + antifixed per n
    assert lines[1] == "1,fixed,1,1,1,true"
    assert lines[2] == "1,antifixed,3,3,3,true"
    assert all(line.endswith(",true") for line in lines[1:])
    assert err == ""


def test_crosscheck_j2_has_no_symbolic_column_values(capsys):
    code, out, _ = run_main(capsys, "crosscheck", "--j", "2", "--n-max", "3",
                            "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(row["symbolic"] == row["recurrence"] == row["oracle"]
               for row in payload["rows"])
    assert all(row["agree"] for row in payload["rows"])
    assert payload["summary"]["disagreements"] == 0
    code, out, _ = run_main(capsys, "crosscheck", "--j", "2", "--n-max", "2")
    assert out.splitlines()[1:] == ["1,fixed,1,1,1,true",
                                    "1,antifixed,3,3,3,true",
                                    "2,fixed,7,7,7,true",
                                    "2,antifixed,5,5,5,true"]


def test_crosscheck_piece_cap_exits_three(capsys):
    code, out, err = run_main(capsys, "crosscheck", "--j", "3",
                              "--n-max", "6", "--piece-cap", "50")
    assert code == 3
    assert "piece cap" in err
    assert "error:piece-cap" in out
    payload_code, json_out, _ = run_main(
        capsys, "crosscheck", "--j", "3", "--n-max", "6",
        "--piece-cap", "50", "--format", "json")
    assert payload_code == 3
    payload = json.loads(json_out)
    assert payload["summary"]["piece_cap_hit"] is True
    bad = [r for r in payload["rows"] if r["oracle"] == "error:piece-cap"]
    assert bad and all(r["agree"] is False for r in bad)


# -- conjecture ----------------------------------------------------------------

def test_conjecture_scan_is_neutral(capsys):
    code, out, _ = run_main(capsys, "conjecture", "--j", "2", "--n-max", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,q,phi,modulus,remainder,pass"
    assert len(lines) == 13
    assert all(line.endswith(",true") for line in lines[1:])


def test_conjecture_default_n_max(capsys):
    code, out, _ = run_main(capsys, "conjecture", "--j", "3")
    assert code == 0
    assert len(out.splitlines()) == 37  # header + 36 rows


# -- shared flag handling ------------------------------------------------------

def test_default_n_max_per_command(capsys):
    _, out, _ = run_main(capsys, "verify", "const(3)", "--mode", "phi1-mod-n")
    assert len(out.splitlines()) == 49
    _, out, _ = run_main(capsys, "oracle", "--j", "2")
    assert len(out.splitlines()) == 11
    _, out, _ = run_main(capsys, "crosscheck", "--j", "2")
    assert len(out.splitlines()) == 17


def test_n_max_zero_rejected(capsys):
    code, _, err = run_main(capsys, "seq", "constant", "--value", "1",
                            "--n-max", "0")
    assert code == 2
    assert "--n-max" in err


@pytest.mark.parametrize("args, code", [
    (("seq", "constant", "--value", "1"), 2),
    (("verify", "const(1)", "--mode", "phi1-mod-n"), 2),
    (("conjecture", "--j", "2"), 2),
    (("oracle", "--j", "2"), 0),      # g_2 has 3 pieces
    (("crosscheck", "--j", "2"), 0),
    (("oracle", "--j", "3"), 0),      # g_3 has 5 pieces, as many as the cap
    (("crosscheck", "--j", "3"), 0),
])
def test_piece_cap_only_on_oracle_and_crosscheck(capsys, args, code):
    try:
        got = main([*args, "--n-max", "1", "--piece-cap", "5"])
    except SystemExit as exc:  # argparse rejects the flag
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    assert ("unrecognized arguments: --piece-cap 5" in err) == (code == 2)


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_piece_cap_below_one_rejected(capsys, cap):
    code, out, err = run_main(capsys, "oracle", "--j", "2",
                              "--piece-cap", cap)
    assert code == 2
    assert out == ""
    assert err == "divseq: --piece-cap must be >= 1\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_required_option_exits_two():
    proc = run_proc("verify", "const(1)")
    assert proc.returncode == 2
    assert b"--mode" in proc.stderr


# -- cross-format consistency and determinism ----------------------------------

def test_csv_and_json_agree(capsys):
    _, csv_out, _ = run_main(capsys, "seq", "theorem5-psi", "--j", "3",
                             "--n-max", "10")
    _, json_out, _ = run_main(capsys, "seq", "theorem5-psi", "--j", "3",
                              "--n-max", "10", "--format", "json")
    csv_rows = [line.split(",") for line in csv_out.splitlines()[1:]]
    csv_pairs = [(int(n), int(v)) for n, v in csv_rows]
    payload = json.loads(json_out)
    json_pairs = [(row["n"], int(row["value"])) for row in payload["rows"]]
    assert csv_pairs == json_pairs


def test_output_is_byte_identical_across_runs():
    args = ("crosscheck", "--j", "3", "--n-max", "5", "--format", "json")
    first, second = run_proc(*args), run_proc(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    args = ("verify", "prod(theorem5phi(2),theorem5phi(3))",
            "--mode", "phi1-mod-n", "--n-max", "20")
    first, second = run_proc(*args), run_proc(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


# -- import weight ------------------------------------------------------------

def test_cli_import_leaves_heavy_modules_out():
    # dataclasses would pull in inspect, ast, dis and tokenize; json is
    # imported only by a command that writes JSON
    code = ("import sys; before = set(sys.modules); import divseq.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "divseq.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "json"})
    proc = run_proc("verify", "theorem5phi(3)", "--mode", "phi1-mod-n",
                    "--format", "json", "--n-max", "12")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"] == {
        "checked": 12, "failures": 0, "first_failure": None}


# -- writing: all the work that can fail is done before the first byte, then
# the rows go out one at a time

@pytest.mark.parametrize("args, want", [
    (("seq", "table", "--file", "TABLE", "--n-max", "5"), 2),
    (("oracle", "--j", "3", "--piece-cap", "100", "--n-max", "8"), 3),
    (("verify", "dilate(dilate(dilate(const(1),4096),4096),4096)",
      "--mode", "phi1-mod-n", "--n-max", "3"), 3),
], ids=["seq-past-table", "oracle-piece-cap", "verify-fill-cap"])
def test_failing_command_writes_nothing_to_stdout(capsys, tmp_path, args,
                                                  want):
    path = tmp_path / "t.txt"
    path.write_text("5\n10\n20\n")
    args = [str(path) if arg == "TABLE" else arg for arg in args]
    code, out, err = run_main(capsys, *args)
    assert code == want
    assert out == ""
    assert err.startswith("divseq: ")


@pytest.mark.parametrize("fmt", ["csv", "tsv"])
def test_table_is_written_without_a_copy_of_itself(tmp_path, fmt):
    # the rows hold q and phi as strings, about the bytes written; a copy of
    # the whole table would add as much again
    path = tmp_path / "out.txt"
    with open(path, "w", encoding="utf-8") as fh, \
            contextlib.redirect_stdout(fh):
        tracemalloc.start()
        try:
            code = main(["verify", "theorem5phi(3)", "--mode", "phi1-mod-n",
                         "--n-max", "3000", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2.5 * path.stat().st_size


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_stdout_pipe_is_one_stderr_line(monkeypatch, fmt, buffered):
    if buffered:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    else:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    read, write = os.pipe()
    os.close(read)
    try:
        # far more output than the pipe and the io buffers take
        proc = run_proc("verify", "theorem5phi(3)", "--mode", "phi1-mod-n",
                        "--n-max", "300", "--format", fmt, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == b"divseq: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_stdout_pipe_with_output_that_fits_the_buffer(monkeypatch,
                                                             fmt):
    # the write succeeds into the buffer; the flush is what meets the
    # closed pipe, and it must not wait for the interpreter's exit
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_proc("verify", "theorem5phi(3)", "--mode", "phi1-mod-n",
                        "--n-max", "3", "--format", fmt, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == b"divseq: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("args, err", [
    (("verify", "dilate(theorem5phi(2),4)", "--mode", "phi1-mod-n",
      "--n-max", "5"), "divseq: n=12 is past the fill cap of 10 values\n"),
    # rows 3..5 ask the table for n = 6, 8, 10, past its end; row 6 asks
    # it for n = 12, past the cap
    (("verify", "dilate(table(DIR/four.txt),2)", "--mode", "phi1-mod-n",
      "--n-max", "6"), "divseq: n=12 is past the fill cap of 10 values\n"),
    (("seq", "theorem5-phi", "--j", "2", "--n-max", "12", "--format", "json"),
     "divseq: n=11 is past the fill cap of 10 values\n"),
], ids=["verify", "verify-table", "seq-json"])
def test_failure_past_the_first_row_writes_nothing(capsys, monkeypatch,
                                                   tmp_path, args, err):
    # rows 1 and 2 (verify) or 1..10 (seq) could be written before the
    # fill fails
    monkeypatch.setattr(sequences, "FILL_CAP", 10)
    (tmp_path / "four.txt").write_text("1\n3\n4\n7\n")
    args = [arg.replace("DIR", str(tmp_path)) for arg in args]
    assert run_main(capsys, *args) == (3, "", err)


def test_check_reach_names_the_first_failing_n(monkeypatch):
    # a table's end is left to the rows up to the fill cap, which it meets
    # at FILL_CAP + 1, as a combination with the table does; a dilation of
    # a recurrence meets it at the first n whose k*n passes it, named as
    # the base meets it
    monkeypatch.setattr(sequences, "FILL_CAP", 10)
    table = sequences.parse_table("1\n2\n")
    table._check_reach(10)
    with pytest.raises(sequences.FillCapExceededError, match="n=11 "):
        table._check_reach(20)
    combined = sequences.linear_combine(1, table, 1, sequences.constant(0))
    with pytest.raises(sequences.FillCapExceededError, match="n=11 "):
        combined._check_reach(20)
    with pytest.raises(sequences.FillCapExceededError, match="n=12 "):
        sequences.dilate(sequences.constant(0), 4)._check_reach(5)


def walked_reach(seq, n_max: int):
    """What Sequence._check_reach raises, found by a plain walk n = reach +
    1, ..., n_max: the first refusal that is not a table's end, or None."""
    for n in range(seq._reach() + 1, n_max + 1):
        error = seq._refusal(n)
        if not isinstance(error, sequences.TableRangeError):
            return error
    return None


@settings(max_examples=200, deadline=None)
@example(expr="lin(1,table(DIR/short.txt),1,const(0))", cap=30, n_max=400)
@example(expr="dilate(lin(1,table(DIR/mixed.txt),2,dilate(table(DIR/short.txt)"
              ",3)),2)", cap=50, n_max=60)
@example(expr="prod(dilate(table(DIR/mixed.txt),3),theorem5phi(2))", cap=97,
         n_max=99)
@example(expr="table(DIR/mixed.txt)", cap=30, n_max=41)  # 40 values > cap
@given(expr=REPORT_EXPRS, cap=st.sampled_from([30, 50, 97]),
       n_max=st.integers(1, 400))
def test_check_reach_raises_what_a_walk_meets_first(table_dir, expr, cap,
                                                     n_max):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "FILL_CAP", cap)
        seq = parse_expression(expr.replace("DIR", str(table_dir)))
        want = walked_reach(seq, n_max)
        try:
            seq._check_reach(n_max)
        except (sequences.TableRangeError,
                sequences.FillCapExceededError) as exc:
            got = exc
        else:
            got = None
        assert (type(got), str(got)) == (type(want), str(want))


def test_check_reach_asks_few_refusals(table_dir):
    # one check per report: a bisection, not a refusal per row past a table
    seq = parse_expression(f"lin(1,table({table_dir}/short.txt),1,const(0))")
    refusal, asked = seq._refusal, []
    seq._refusal = lambda n: asked.append(n) or refusal(n)
    seq._check_reach(300000)
    assert 0 < len(asked) <= 20
    # past sys.maxsize: a combination, and a table too, meet the fill cap
    # at FILL_CAP + 1
    with pytest.raises(sequences.FillCapExceededError, match="n=10000001 "):
        seq._check_reach(10**30)
    table = parse_expression(f"table({table_dir}/short.txt)")
    with pytest.raises(sequences.FillCapExceededError, match="n=10000001 "):
        table._check_reach(10**30)


@pytest.mark.parametrize("fmt", ["csv", "tsv", "json"])
@pytest.mark.parametrize("args, bound", [
    (("verify", "theorem5phi(3)", "--mode", "phi1-mod-n"), 0.6),
    (("conjecture", "--j", "3"), 0.6),
    # each value is printed once, so its cache is a fair share of the bytes
    (("seq", "theorem5-phi", "--j", "3"), 1.0),
], ids=["verify", "conjecture", "seq"])
def test_streamed_table_holds_its_values_not_its_rows(tmp_path, args, bound,
                                                      fmt):
    path = tmp_path / "out.txt"
    with open(path, "w", encoding="utf-8") as fh, \
            contextlib.redirect_stdout(fh):
        tracemalloc.start()
        try:
            code = main([*args, "--n-max", "3000", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < bound * path.stat().st_size


class WriteLog(io.StringIO):
    """A stdout that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "tsv", "json"])
def test_tables_are_written_in_blocks(fmt):
    out = WriteLog()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "theorem5phi(3)", "--mode", "phi1-mod-n",
                     "--n-max", "600", "--format", fmt])
    assert code == 0
    *full, last = out.sizes
    assert full and all(size >= cli._BLOCK for size in full)
    assert 0 < last < cli._BLOCK + 2 * len(out.getvalue()) // 600
    assert sum(out.sizes) == len(out.getvalue())


# quotes, backslashes, control and non-ASCII characters, often; any, too
JSON_TEXT = st.text(st.sampled_from('ab"\\\n/\u00e9\U0001f600')) | st.text()
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10**30, 10**30)
                | JSON_TEXT)
JSON_DICTS = st.dictionaries(st.text(max_size=5), JSON_SCALARS, max_size=4)


@settings(max_examples=200, deadline=None)
@example(meta={}, rows=[], summary=None)
@example(meta={"params": {}}, rows=[], summary={"checked": 0})
@given(meta=st.dictionaries(st.text(max_size=5), JSON_SCALARS | JSON_DICTS,
                            max_size=4),
       rows=st.lists(JSON_DICTS, max_size=4),
       summary=st.none() | JSON_DICTS)
def test_streamed_json_is_one_json_dumps(meta, rows, summary):
    payload = {"meta": meta, "rows": rows}
    if summary is not None:
        payload["summary"] = summary
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _render("json", meta, (), iter(rows), summary)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


# -- fuzzing: every expression and map file ends in a documented exit code ------

def main_exit(*args: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(list(args))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "vals.txt").write_text("1\n3\n-0\n15\n")
    return path


# valid parameters drawn as often as any
INTS = st.integers(-3, 6)
JS = st.integers(2, 5) | st.integers(-3, 5)
KS = st.integers(1, 3) | st.integers(-3, 3)
LEAVES = st.one_of(
    st.builds("theorem4({},{},{})".format, JS, INTS, INTS),
    st.builds("theorem5phi({})".format, JS),
    st.builds("theorem5psi({})".format, JS),
    st.builds("const({})".format, INTS),
    # DIR stands for the fuzz directory, which holds vals.txt
    st.sampled_from(["table(DIR/vals.txt)", "table('DIR/vals.txt')",
                     "table(DIR/none)"]),
)


def _combinators(sub):
    return st.one_of(
        st.builds("lin({},{},{},{})".format, INTS, sub, INTS, sub),
        st.builds("dilate({},{})".format, sub, KS),
        st.builds("dilateodd({},{})".format, sub, KS),
        st.builds(lambda seqs: f"prod({','.join(seqs)})",
                  st.lists(sub, min_size=1, max_size=3)),
    )


@st.composite
def expressions(draw):
    """An expression of at most 6 leaves, with at most one character
    deleted."""
    text = draw(st.recursive(LEAVES, _combinators, max_leaves=6))
    if draw(st.integers(0, 3)) == 0:
        cut = draw(st.integers(0, len(text) - 1))
        text = text[:cut] + text[cut + 1:]
    return text


@settings(max_examples=150, deadline=None)
@given(expr=expressions(), mode=st.sampled_from(["phi1-mod-n",
                                                 "phi2-mod-2n"]))
def test_fuzz_expressions_end_in_documented_exits(fuzz_dir, expr, mode):
    code = main_exit("verify", expr.replace("DIR", str(fuzz_dir)),
                     "--mode", mode, "--n-max", "5")
    assert code in (0, 1, 2, 3)


BAD_TOKENS = ["x", "1/0", "1//2", "nan", "inf", "--1", "1/2/3", "/", "1e5",
              "1e3000000", "0.5", "1_0"]
STRAY_LINES = ["", "   ", "# comment", "1", "1 2 3", "x y", "domain 0 1"]
BAD_HEADERS = ["domain 0", "range 0 1", "domain a b", "Domain 0 1",
               "domain 0 1 2", "domain 1/0 1"]


@st.composite
def map_files(draw):
    """A map file of up to 6 nodes with coordinates in sixths, then a few
    edits: a bad token, a bad header, a stray line or a dropped line."""
    lo = draw(st.integers(-18, 17))
    hi = lo + draw(st.integers(2, 24))
    inner = draw(st.lists(st.integers(lo + 1, hi - 1), max_size=4,
                          unique=True))
    xs = [Fraction(x, 6) for x in [lo, *sorted(inner), hi]]
    values = st.integers(lo, hi) | st.integers(lo - 6, hi + 6)
    ys = [Fraction(draw(values), 6) for _ in xs]
    lines = [f"domain {xs[0]} {xs[-1]}"]
    lines += [f"{x} {y}" for x, y in zip(xs, ys)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["token", "header", "stray", "drop"]))
        if edit == "token":
            parts = lines[at].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(
                st.sampled_from(BAD_TOKENS))
            lines[at] = " ".join(parts)
        elif edit == "header":
            lines[0] = draw(st.sampled_from(BAD_HEADERS))
        elif edit == "stray":
            lines.insert(at, draw(st.sampled_from(STRAY_LINES)))
        else:
            del lines[at]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=map_files(), equation=st.sampled_from(["fixed", "antifixed"]))
def test_fuzz_map_files_end_in_documented_exits(fuzz_dir, text, equation):
    path = fuzz_dir / "fuzz.map"
    path.write_text(text)
    code = main_exit("oracle", "--map-file", str(path), "--equation",
                     equation, "--n-max", "4", "--piece-cap", "5000")
    assert code in (0, 2, 3)
