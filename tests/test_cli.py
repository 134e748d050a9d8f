"""Command-line behaviour: expression grammar, subcommands, formats,
exit codes, and byte-level determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divseq
from divseq import __version__
from divseq.cli import ExpressionError, main, parse_expression
from divseq.sequences import (
    MAP_DERIVED_PHI,
    ODD_MAP_DERIVED_PSI,
    PHI1_CLOSURE,
)


def run_main(capsys, *args: str):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the child interpreter imports divseq from where this one did
SRC = str(Path(divseq.__file__).resolve().parent.parent)


def run_proc(*args: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([SRC, path] if path else [SRC]))
    return subprocess.run([sys.executable, "-m", "divseq", *args],
                          capture_output=True, env=env)


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


@pytest.mark.parametrize("bad", [
    "",
    "const(5)x",
    "theorem4(2,0)",
    "bogus(3)",
    "theorem4(1,0,1)",      # j < 2 rejected by the family itself
    "dilate(const(1),0)",
    "lin(1,const(1),2)",
    "table()",
])
def test_parse_rejects(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


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


def test_verify_bad_expression_is_usage_error(capsys):
    code, _, err = run_main(
        capsys, "verify", "nope(1)", "--mode", "phi1-mod-n")
    assert code == 2
    assert "divseq:" in err


@pytest.mark.parametrize("expr", [
    "dilate(" * 300 + "const(1)" + ",1)" * 300,  # deep when evaluated
    "prod(" * 600 + "const(1)" + ")" * 600,      # deep when parsed
], ids=["dilate-300", "prod-600"])
def test_verify_deeply_nested_expression_is_usage_error(expr):
    proc = run_proc("verify", expr, "--mode", "phi1-mod-n", "--n-max", "3")
    assert proc.returncode == 2
    assert proc.stderr == b"divseq: the sequence expression is nested too " \
                          b"deeply\n"


def test_verify_nested_150_deep_still_evaluates():
    expr = "dilate(" * 150 + "const(1)" + ",1)" * 150
    proc = run_proc("verify", expr, "--mode", "phi1-mod-n", "--n-max", "3")
    assert (proc.returncode, proc.stderr) == (0, b"")


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
