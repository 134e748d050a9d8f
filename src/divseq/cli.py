"""Command-line front end.

Subcommands: `seq` prints sequence tables, `verify` runs phi1/phi2
divisibility reports over a sequence expression, `oracle` counts fixed or
antifixed points of an interval map by exact enumeration, `crosscheck`
compares the recurrence, oracle, and edge-engine values side by side, and
`conjecture` scans phi1 applied to the psi families (an open question, so it
reports neutrally and always exits 0).

Exit codes: 0 success/agreement, 1 verification failure or disagreement,
2 usage error (including a map with a whole segment on y = x or y = -x,
whose solution count is infinite, and a sequence expression nested past
the recursion limit), 3 piece cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from decimal import Decimal

from . import __version__
from .arith import divisibility_check, phi1, phi2
from .interval_map import (
    DEFAULT_PIECE_CAP,
    InfiniteSolutionsError,
    PieceCapExceededError,
    build_gj,
    count_antifixed,
    count_fixed,
    iterates,
    load_map_file,
)
from .sequences import (
    Sequence,
    TableRangeError,
    constant,
    dilate,
    dilate_odd,
    linear_combine,
    load_table,
    make_theorem4,
    make_theorem5_phi,
    make_theorem5_psi,
    product,
    unlimited_int_digits,
)
from .symbolic import c_count, d_count, initial_tensor, step

__all__ = [
    "main",
    "parse_expression",
    "ExpressionError",
    "UsageError",
    "run_divisibility",
    "run_crosscheck",
    "DivisibilityReport",
    "ReportRow",
    "CrossCheckReport",
    "CrossCheckRow",
]

DEFAULT_N_MAX = {"seq": 24, "verify": 48, "oracle": 10,
                 "crosscheck": 8, "conjecture": 36}


class UsageError(Exception):
    """Invalid command-line parameters (exit code 2)."""


class ExpressionError(ValueError):
    """Malformed sequence expression (exit code 2)."""


# ---------------------------------------------------------------------------
# sequence expression grammar:
#   expr := theorem4(j,k,m) | theorem5phi(j) | theorem5psi(j) | const(v)
#         | table(path) | lin(k,expr,m,expr) | dilate(expr,k)
#         | dilateodd(expr,k) | prod(expr,...)

class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, msg: str):
        raise ExpressionError(f"{msg} at position {self.pos} in {self.text!r}")

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _expect(self, ch: str):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def _name(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            self.fail("expected a generator or combinator name")
        return self.text[start:self.pos].lower()

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        token = self.text[start:self.pos]
        try:
            return int(token)
        except ValueError:
            self.fail("expected an integer")

    def _path(self) -> str:
        # everything up to the closing paren; quotes optional
        self._skip_ws()
        end = self.text.find(")", self.pos)
        if end < 0:
            self.fail("unterminated table(...) path")
        raw = self.text[self.pos:end].strip()
        self.pos = end
        if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
            raw = raw[1:-1]
        if not raw:
            self.fail("empty table(...) path")
        return raw

    def parse(self) -> Sequence:
        seq = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing characters")
        return seq

    def _expr(self) -> Sequence:
        name = self._name()
        self._expect("(")
        try:
            seq = self._body(name)
        except ValueError as exc:
            if isinstance(exc, ExpressionError):
                raise
            raise ExpressionError(str(exc)) from None
        self._expect(")")
        return seq

    def _body(self, name: str) -> Sequence:
        if name == "theorem4":
            j = self._integer(); self._expect(",")
            k = self._integer(); self._expect(",")
            m = self._integer()
            return make_theorem4(j, k, m)
        if name == "theorem5phi":
            return make_theorem5_phi(self._integer())
        if name == "theorem5psi":
            return make_theorem5_psi(self._integer())
        if name in ("const", "constant"):
            return constant(self._integer())
        if name == "table":
            return load_table(self._path())
        if name == "lin":
            k = self._integer(); self._expect(",")
            a = self._expr(); self._expect(",")
            m = self._integer(); self._expect(",")
            b = self._expr()
            return linear_combine(k, a, m, b)
        if name == "dilate":
            a = self._expr(); self._expect(",")
            return dilate(a, self._integer())
        if name == "dilateodd":
            a = self._expr(); self._expect(",")
            return dilate_odd(a, self._integer())
        if name == "prod":
            seqs = [self._expr()]
            while True:
                self._skip_ws()
                if self.pos < len(self.text) and self.text[self.pos] == ",":
                    self.pos += 1
                    seqs.append(self._expr())
                else:
                    return product(seqs)
        self.fail(f"unknown generator or combinator {name!r}")


def parse_expression(text: str) -> Sequence:
    """Build a Sequence from the command-line expression grammar."""
    return _ExprParser(text).parse()


# ---------------------------------------------------------------------------
# reports

@dataclass
class ReportRow:
    n: int
    q: Decimal | None            # integral; see Sequence.exact
    phi: Decimal | None
    modulus: int
    remainder: int | None
    passed: bool
    error: str | None = None


@dataclass
class DivisibilityReport:
    sequence_id: str
    mode: str
    rows: list[ReportRow]

    @property
    def checked(self) -> int:
        return len(self.rows)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.rows if not r.passed)

    @property
    def first_failure(self) -> int | None:
        for r in self.rows:
            if not r.passed:
                return r.n
        return None


@dataclass
class CrossCheckRow:
    n: int
    equation: str                # "fixed" or "antifixed"
    recurrence: int
    oracle: int | str            # count, or an error marker string
    symbolic: int
    agree: bool


@dataclass
class CrossCheckReport:
    j: int
    rows: list[CrossCheckRow]

    @property
    def disagreements(self) -> int:
        return sum(1 for r in self.rows if not r.agree)

    @property
    def cap_hit(self) -> bool:
        return any(isinstance(r.oracle, str) for r in self.rows)


_MODES = {
    "phi1-mod-n": (phi1, 1),
    "phi2-mod-2n": (phi2, 2),
}


def run_divisibility(seq: Sequence, mode: str, n_max: int) -> DivisibilityReport:
    """Check transform(seq, n) against its modulus for n = 1..n_max.

    q and phi are computed from seq.exact, so rows hold them as integral
    Decimals, which print in linear time. Rows that cannot be evaluated (a
    table running out of values) are recorded as failures with the error
    message, not raised.
    """
    transform, mod_factor = _MODES[mode]
    rows = []
    for n in range(1, n_max + 1):
        modulus = mod_factor * n
        try:
            q = seq.exact(n)
            value = transform(seq.exact, n)
        except TableRangeError as exc:
            rows.append(ReportRow(n, None, None, modulus, None, False, str(exc)))
            continue
        ok, remainder = divisibility_check(value, modulus)
        rows.append(ReportRow(n, q, value, modulus, remainder, ok))
    return DivisibilityReport(seq.id, mode, rows)


def run_crosscheck(j: int, n_max: int,
                   piece_cap: int = DEFAULT_PIECE_CAP) -> CrossCheckReport:
    """Compare recurrence, oracle, and edge-engine counts.

    A piece-cap overflow on the oracle path is recorded in the affected rows
    as "error:piece-cap" rather than aborting the report; such a row does
    not agree.
    """
    g = build_gj(j)
    phi_seq, psi_seq = make_theorem5_phi(j), make_theorem5_psi(j)
    tensor = initial_tensor(j)
    powers = iterates(g, n_max, piece_cap)
    capped = False
    rows = []
    for n in range(1, n_max + 1):
        if not capped:
            try:
                power = next(powers)
            except PieceCapExceededError:
                capped = True
        if n > 1:
            tensor = step(tensor)
        for equation, rec, oracle, sym in (
            ("fixed", phi_seq(n),
             "error:piece-cap" if capped else count_fixed(power),
             c_count(tensor)),
            ("antifixed", psi_seq(n),
             "error:piece-cap" if capped else count_antifixed(power),
             d_count(tensor)),
        ):
            rows.append(CrossCheckRow(n, equation, rec, oracle, sym,
                                      rec == oracle == sym))
    return CrossCheckReport(j, rows)


# ---------------------------------------------------------------------------
# rendering (csv | tsv | json); identical invocations must emit identical
# bytes, so everything is assembled as a string with LF endings

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render(fmt: str, meta: dict, header, rows,
            summary: dict | None = None) -> str:
    """One table in fmt from an iterable of row dicts.

    JSON writes the dicts as they are (big values must already be strings,
    so they keep every digit). csv/tsv write the header columns of each row,
    booleans as true/false and None as blank, and draw one row at a time, so
    a caller passing a generator never holds the cells of every row at once.
    """
    if fmt == "json":
        payload = {"meta": meta, "rows": list(rows)}
        if summary is not None:
            payload["summary"] = summary
        return json.dumps(payload, indent=2) + "\n"
    sep = "," if fmt == "csv" else "\t"
    lines = [sep.join(header)]
    lines.extend(sep.join(_cell(row[key]) for key in header)
                 for row in rows)
    return "\n".join(lines) + "\n"


def _opt_str(value) -> str | None:
    return None if value is None else str(value)


def _report_table(report: DivisibilityReport):
    """Header, row dicts and summary of a divisibility report for _render."""
    def rows():
        for r in report.rows:
            row = {"n": r.n, "q": _opt_str(r.q), "phi": _opt_str(r.phi),
                   "modulus": r.modulus, "remainder": _opt_str(r.remainder),
                   "pass": r.passed}
            if r.error is not None:
                row["error"] = r.error
            yield row

    return (("n", "q", "phi", "modulus", "remainder", "pass"), rows(),
            {"checked": report.checked, "failures": report.failures,
             "first_failure": report.first_failure})


def _report_errors_to_stderr(report: DivisibilityReport):
    for r in report.rows:
        if r.error is not None:
            print(f"divseq: row n={r.n}: {r.error}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands

def _seq_from_flags(args) -> Sequence:
    def need(flag, value):
        if value is None:
            raise UsageError(f"seq {args.kind} requires {flag}")
        return value

    if args.kind == "theorem4":
        return make_theorem4(need("--j", args.j), need("--k", args.k),
                             need("--m", args.m))
    if args.kind == "theorem5-phi":
        return make_theorem5_phi(need("--j", args.j))
    if args.kind == "theorem5-psi":
        return make_theorem5_psi(need("--j", args.j))
    if args.kind == "constant":
        return constant(need("--value", args.value))
    return load_table(need("--file", args.file))


def cmd_seq(args) -> int:
    seq = _seq_from_flags(args)
    meta = {"command": "seq", "params": {"kind": args.kind, "id": seq.id,
                                         "n_max": args.n_max},
            "version": __version__}
    sys.stdout.write(_render(args.format, meta, ("n", "value"),
                             ({"n": n, "value": str(seq.exact(n))}
                              for n in range(1, args.n_max + 1))))
    return 0


def cmd_verify(args) -> int:
    seq = parse_expression(args.expr)
    report = run_divisibility(seq, args.mode, args.n_max)
    meta = {"command": "verify",
            "params": {"expr": args.expr, "sequence": seq.id,
                       "mode": args.mode, "guarantee": seq.guarantee,
                       "n_max": args.n_max},
            "version": __version__}
    sys.stdout.write(_render(args.format, meta, *_report_table(report)))
    if args.format != "json":
        _report_errors_to_stderr(report)
    return 1 if report.failures else 0


def cmd_oracle(args) -> int:
    if args.j is not None:
        gmap = build_gj(args.j)
        source = {"j": args.j}
    else:
        gmap = load_map_file(args.map_file)
        source = {"map_file": args.map_file}
    count = count_fixed if args.equation == "fixed" else count_antifixed
    rows = []
    try:
        for n, power in enumerate(
                iterates(gmap, args.n_max, args.piece_cap), start=1):
            rows.append({"n": n, "value": str(count(power))})
    except PieceCapExceededError as exc:
        raise PieceCapExceededError(
            f"oracle stopped at n={exc.n}: {exc}") from None
    meta = {"command": "oracle",
            "params": {**source, "equation": args.equation,
                       "n_max": args.n_max, "piece_cap": args.piece_cap},
            "version": __version__}
    sys.stdout.write(_render(args.format, meta, ("n", "value"), rows))
    return 0


def cmd_crosscheck(args) -> int:
    report = run_crosscheck(args.j, args.n_max, args.piece_cap)
    meta = {"command": "crosscheck",
            "params": {"j": args.j, "n_max": args.n_max,
                       "piece_cap": args.piece_cap},
            "version": __version__}
    rows = ({"n": r.n, "equation": r.equation,
             "recurrence": str(r.recurrence), "oracle": str(r.oracle),
             "symbolic": str(r.symbolic), "agree": r.agree}
            for r in report.rows)
    summary = {"rows": len(report.rows),
               "disagreements": report.disagreements,
               "piece_cap_hit": report.cap_hit}
    header = ("n", "equation", "recurrence", "oracle", "symbolic", "agree")
    sys.stdout.write(_render(args.format, meta, header, rows, summary))
    if report.cap_hit:
        print("divseq: oracle column hit the piece cap", file=sys.stderr)
        return 3
    return 1 if report.disagreements else 0


def cmd_conjecture(args) -> int:
    seq = make_theorem5_psi(args.j)
    report = run_divisibility(seq, "phi1-mod-n", args.n_max)
    meta = {"command": "conjecture",
            "params": {"j": args.j, "n_max": args.n_max},
            "version": __version__}
    sys.stdout.write(_render(args.format, meta, *_report_table(report)))
    # open question: counterexamples are findings to report, not failures,
    # so the exit status stays 0 either way
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json", "tsv"),
                        default="csv", help="output format (default csv)")
    common.add_argument("--n-max", type=int, default=None, metavar="N",
                        help="largest n to include (command-specific default)")
    common.add_argument("--piece-cap", type=int, default=DEFAULT_PIECE_CAP,
                        metavar="N",
                        help="max linear pieces per composed map")

    parser = argparse.ArgumentParser(
        prog="divseq",
        description="Exact toolkit for dividing formulas n | Q(n): sequence "
                    "families, inclusion-exclusion verification, and "
                    "interval-map oracles.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", parents=[common],
                       help="print a sequence table")
    p.add_argument("kind", choices=("theorem4", "theorem5-phi",
                                    "theorem5-psi", "constant", "table"))
    p.add_argument("--j", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--value", type=int)
    p.add_argument("--file")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("verify", parents=[common],
                       help="run a divisibility report over a sequence "
                            "expression")
    p.add_argument("expr",
                   help="e.g. 'theorem5phi(3)' or 'lin(3,theorem5phi(2),-2,"
                        "theorem4(3,0,1))'")
    p.add_argument("--mode", required=True,
                   choices=("phi1-mod-n", "phi2-mod-2n"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", parents=[common],
                       help="count fixed/antifixed points of an interval map")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--j", type=int, help="use the zigzag map on [-j, j]")
    target.add_argument("--map-file", help="load a user map file")
    p.add_argument("--equation", choices=("fixed", "antifixed"),
                   default="fixed")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("crosscheck", parents=[common],
                       help="compare recurrence, oracle, and edge-engine "
                            "counts")
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("conjecture", parents=[common],
                       help="scan phi1 applied to the psi family (open "
                            "question; always exits 0)")
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=cmd_conjecture)
    return parser


def main(argv: list[str] | None = None) -> int:
    with unlimited_int_digits():
        try:
            parser = _build_parser()
            args = parser.parse_args(argv)
            if args.n_max is None:
                args.n_max = DEFAULT_N_MAX[args.command]
            if args.n_max < 1:
                print("divseq: --n-max must be >= 1", file=sys.stderr)
                return 2
            if args.piece_cap < 1:
                print("divseq: --piece-cap must be >= 1", file=sys.stderr)
                return 2
            return args.func(args)
        except (UsageError, ExpressionError, ValueError, LookupError,
                OSError) as exc:
            print(f"divseq: {exc}", file=sys.stderr)
            return 2
        except InfiniteSolutionsError as exc:
            print(f"divseq: {exc}, so the solution count is infinite",
                  file=sys.stderr)
            return 2
        except PieceCapExceededError as exc:
            print(f"divseq: {exc}", file=sys.stderr)
            return 3
        except RecursionError:
            print("divseq: the sequence expression is nested too deeply",
                  file=sys.stderr)
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
