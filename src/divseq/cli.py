"""Command-line front end.

Subcommands: `seq` prints sequence tables, `verify` runs phi1/phi2
divisibility reports over a sequence expression, `oracle` counts fixed or
antifixed points of an interval map by exact enumeration, `crosscheck`
compares the recurrence, oracle, and edge-engine values side by side, and
`conjecture` scans phi1 applied to the psi families (an open question, so it
reports neutrally and always exits 0). One table names every generator and
combinator with its parameters; the expression parser and `seq` read it.
`--piece-cap` belongs to `oracle` and `crosscheck`, which compose maps.
Every command finishes all the work that can fail before the first byte
goes out, so a command that fails writes nothing to stdout. The rows then
stream, one at a time, in blocks of at least 64 KB. A report computes each
value once, in order, for its own row, and keeps only the values that later
rows read, q(1..n_max // 2) (n_max // 3 for phi2); `seq` keeps none. A
command computes in exact decimal arithmetic, entered once: `main` enters
arith.exact_context() around the whole command, and `run_divisibility`
around its rows for a library caller. `verify`,
`conjecture` and `seq` import only the arith and sequences layers:
`oracle` imports interval_map, and `crosscheck` interval_map and symbolic,
inside their own bodies, and the piece cap and the oracle's errors, which
every command may name, come from the small _errors module.

Exit codes: 0 success/agreement, 1 verification failure or disagreement,
2 usage error (including a map with a whole segment on y = x or y = -x,
whose solution count is infinite, and a sequence expression nested more
than 150 deep), 3 a resource cap: the piece cap (the default one too on
g_j's 2j - 1 pieces, and for `crosscheck` on the (2j - 1)**2 cells of the
edge tensor) or the fill cap.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from . import __version__
from ._errors import (
    DEFAULT_PIECE_CAP,
    InfiniteSolutionsError,
    PieceCapExceededError,
)
from .arith import (
    PrimeTable,
    _alternating_sum,
    _odd_alternating_sum,
    _remainder,
    exact_context,
    phi1,
    phi2,
)
from .sequences import (
    FillCapExceededError,
    Sequence,
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

__all__ = [
    "main",
    "parse_expression",
    "ExpressionError",
    "UsageError",
    "run_divisibility",
    "run_crosscheck",
]

DEFAULT_N_MAX = {"seq": 24, "verify": 48, "oracle": 10,
                 "crosscheck": 8, "conjecture": 36}


class UsageError(Exception):
    """Invalid command-line parameters (exit code 2)."""


class ExpressionError(ValueError):
    """Malformed sequence expression (exit code 2)."""


# ---------------------------------------------------------------------------
# sequence expression grammar: expr := NAME(parameters), with each generator
# or combinator NAME -> (factory, parameters in order). A parameter is
# (name, kind): int reads an integer, str a table path, Sequence a nested
# expression and list one or more comma-separated expressions. `seq` takes
# the parameters of its generators as --NAME flags.
_GENERATORS = {
    "theorem4": (make_theorem4, (("j", int), ("k", int), ("m", int))),
    "theorem5phi": (make_theorem5_phi, (("j", int),)),
    "theorem5psi": (make_theorem5_psi, (("j", int),)),
    "const": (constant, (("value", int),)),
    "table": (load_table, (("file", str),)),
    "lin": (linear_combine, (("k", int), ("a", Sequence), ("m", int),
                             ("b", Sequence))),
    "dilate": (dilate, (("seq", Sequence), ("k", int))),
    "dilateodd": (dilate_odd, (("seq", Sequence), ("k", int))),
    "prod": (product, (("seqs", list),)),
}
_GENERATORS["constant"] = _GENERATORS["const"]

# the most combinators one expression may sit inside: a sequence's tail is
# built by recursion through every level, and a value is pulled through one
# tail per level, so the parser refuses deeper nesting rather than leave it
# to the recursion limit
_MAX_NESTING = 150


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # the expressions open around the one being read
        self._read = {int: self._integer, str: self._path,
                      Sequence: self._expr, list: self._exprs}

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

    def _exprs(self) -> list[Sequence]:
        seqs = [self._expr()]
        self._skip_ws()
        while self.text.startswith(",", self.pos):
            self.pos += 1
            seqs.append(self._expr())
            self._skip_ws()
        return seqs

    def parse(self) -> Sequence:
        seq = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing characters")
        return seq

    def _expr(self) -> Sequence:
        if self.depth > _MAX_NESTING:
            raise ExpressionError(
                "the sequence expression is nested too deeply")
        self.depth += 1
        name = self._name()
        self._expect("(")
        if name not in _GENERATORS:
            self.fail(f"unknown generator or combinator {name!r}")
        factory, params = _GENERATORS[name]
        args = []
        for i, (_, kind) in enumerate(params):
            if i:
                self._expect(",")
            args.append(self._read[kind]())
        try:
            seq = factory(*args)
        except ValueError as exc:  # the factory rejects a parameter
            raise ExpressionError(str(exc)) from None
        self._expect(")")
        self.depth -= 1
        return seq


def parse_expression(text: str) -> Sequence:
    """Build a Sequence from the command-line expression grammar."""
    return _ExprParser(text).parse()


# ---------------------------------------------------------------------------
# reports

_MODES = {
    "phi1-mod-n": (phi1, 1),
    "phi2-mod-2n": (phi2, 2),
}


# what a report row computes in each mode: the context-free core of its
# transform (phi1 or phi2 without their checks or their own exact context)
# and the least divisor d > 1 of n at which it reads q(n / d), since phi2
# ranges over odd divisors only. Kept apart from _MODES, whose entries the
# benchmark's tracer unpacks as (transform, factor) pairs
_ROW_RULES = {"phi1-mod-n": (_alternating_sum, 2),
              "phi2-mod-2n": (_odd_alternating_sum, 3)}

_REPORT_HEADER = ("n", "q", "phi", "modulus", "remainder", "pass")


def _divisibility_rows(seq: Sequence, mode: str, n_max: int,
                       summary: dict | None = None, sep: str | None = None):
    """Check seq (see Sequence._check_reach), then return an iterator of
    the rows of run_divisibility, one at a time, or with a separator sep,
    of their csv/tsv lines, as _table_text writes them. When the last row
    is out, summary, if given, holds the number of rows checked, the number
    of failures and the first failing n (None if none failed).

    Row n reads q(n) and q(n / d) for the squarefree divisors d > 1 of n
    that its transform ranges over, all at or below keep = n_max // 2
    (n_max // 3 for phi2). The values come from one seq._stream, each
    computed once, in order, for its row; the rows keep q(1..keep) of
    their own and drop the later ones. Each row reads its primes from one
    PrimeTable. A row's value, phi and remainder are computed by the
    context-free cores of phi1/phi2 and divisibility_check in the decimal
    context that is current, so the rows are read only inside exact
    arithmetic, as main and run_divisibility read them.

    Past the last n that can be computed, where a table ran out, a row
    reports the TableRangeError that a fill to n would raise; a csv/tsv
    line has no column for it, so _report writes it to stderr."""
    factor = _MODES[mode][1]
    core, least_divisor = _ROW_RULES[mode]
    keep = n_max // least_divisor
    seq._check_reach(n_max)
    stop = min(n_max, seq._reach())
    values = seq._stream(stop)
    primes = PrimeTable(stop).primes

    def rows():
        kept = {}  # q(m) for m <= keep, and q(n) while row n is computed
        at = kept.__getitem__
        failures, first = 0, None
        for n in range(1, stop + 1):
            modulus = factor * n
            q = kept[n] = next(values)
            value = core(at, n, primes(n))
            remainder = _remainder(value, modulus)
            if n > keep:
                del kept[n]
            if remainder:
                failures += 1
                first = first or n
            if sep is None:
                yield {"n": n, "q": str(q), "phi": str(value),
                       "modulus": modulus, "remainder": str(remainder),
                       "pass": not remainder}
            else:
                # no cell is None, and the bool is spelled as _cell
                # spells it
                yield (f"{n}{sep}{q!s}{sep}{value!s}{sep}{modulus}{sep}"
                       f"{remainder}{sep}{'false' if remainder else 'true'}\n")
        for n in range(stop + 1, n_max + 1):
            failures += 1
            first = first or n
            if sep is None:
                yield {"n": n, "q": None, "phi": None, "modulus": factor * n,
                       "remainder": None, "pass": False,
                       "error": str(seq._refusal(n))}
            else:
                yield f"{n}{sep}{sep}{sep}{factor * n}{sep}{sep}false\n"
        if summary is not None:
            summary.update(checked=n_max, failures=failures,
                           first_failure=first)

    return rows()


def run_divisibility(seq: Sequence, mode: str, n_max: int) -> list[dict]:
    """Check transform(seq, n) against its modulus for n = 1..n_max.

    Returns the row dicts of the report table: n, q, phi, modulus,
    remainder and pass, with q, phi and remainder as strings (q and phi
    printed from streamed Decimals, in linear time). A row that cannot be
    evaluated (a table running out of values) fails with them None and the
    message under "error"; it is not raised. `verify` streams the same
    rows. The values are streamed, so seq caches none of them (see
    _divisibility_rows), and computed in exact arithmetic, entered once
    here, whatever the caller's decimal context is.
    """
    with exact_context():
        return list(_divisibility_rows(seq, mode, n_max))


def _load_map(j: int | None, map_file: str | None, piece_cap: int):
    """g_j, or the map in map_file when j is None. g_j is refused first
    where its 2j - 1 pieces pass the cap, so a huge j exits 3 before its 2j
    nodes are built; that bound is at most DEFAULT_PIECE_CAP, whatever
    piece_cap says."""
    from .interval_map import build_gj, load_map_file
    if j is None:
        return load_map_file(map_file)
    cap = min(piece_cap, DEFAULT_PIECE_CAP)
    if 2 * j - 1 > cap:
        raise PieceCapExceededError(
            f"g_{j} has {2 * j - 1} pieces; cap is {cap}")
    return build_gj(j)


def run_crosscheck(j: int, n_max: int,
                   piece_cap: int = DEFAULT_PIECE_CAP) -> tuple[list, bool]:
    """Compare recurrence, oracle, and edge-engine counts.

    Returns the row dicts of the table and whether the oracle hit the piece
    cap. A piece-cap overflow on the oracle path is recorded in the affected
    rows as "error:piece-cap" rather than aborting the report; such a row
    does not agree. A g_j past either piece cap, an edge tensor of more
    cells, (2j - 1)**2, than the default one (initial_tensor refuses it)
    and an n_max past the fill cap are refused first, in that order, before
    any map is composed or tensor stepped.
    """
    from .interval_map import count_antifixed, count_fixed, iterates
    from .symbolic import c_count, d_count, initial_tensor, step
    g = _load_map(j, None, piece_cap)
    tensor = initial_tensor(j)
    phi_seq, psi_seq = make_theorem5_phi(j), make_theorem5_psi(j)
    phi_seq._check_reach(n_max)
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
            rows.append({"n": n, "equation": equation,
                         "recurrence": str(rec), "oracle": str(oracle),
                         "symbolic": str(sym), "agree": rec == oracle == sym})
    return rows, capped


# ---------------------------------------------------------------------------
# rendering (csv | tsv | json); identical invocations must emit identical
# bytes, so every line ends in LF

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# characters per write: where stdout is unbuffered (PYTHONUNBUFFERED), each
# write is a system call
_BLOCK = 1 << 16

_SEPARATORS = {"csv": ",", "tsv": "\t"}


def _render(fmt: str, meta: dict, header, rows, summary: dict | None = None):
    """Write one table in fmt to stdout from any iterable of row dicts (see
    _table_text and _write)."""
    _write(_table_text(fmt, meta, header, rows, summary))


def _write(pieces):
    """Write an iterable of text to stdout, joined into one write per
    _BLOCK characters or more.

    The caller has finished all the work that can fail, so a command that
    fails writes nothing. The pieces are read one at a time, so the table
    is never held whole."""
    block, size = [], 0
    for text in pieces:
        block.append(text)
        size += len(text)
        if size >= _BLOCK:
            sys.stdout.write("".join(block))
            block, size = [], 0
    if block:
        sys.stdout.write("".join(block))


def _table_text(fmt: str, meta: dict, header, rows, summary: dict | None):
    """Yield the text of one table in fmt, in pieces of about a row.

    JSON renders the dicts as they are (their values are scalars, and big
    ones must already be strings, so they keep every digit), byte for byte
    as
    json.dumps({"meta": meta, "rows": [...], "summary": summary}, indent=2)
    would, with no summary key when summary is None. The summary is read
    after the last row, so a row generator may fill it in as it goes.
    csv/tsv render the header columns of each row, booleans as true/false
    and None as blank, one line per row.
    """
    if fmt == "json":
        import json     # only here: csv/tsv commands skip its import
        # the C encoder, which json.dumps uses only without indent, writes a
        # flat dict in the layout indent=2 gives a row of the rows array when
        # its item separator carries the line break and the indent
        items = json.JSONEncoder(separators=(",\n      ", ": ")).encode
        # the head is {"meta": meta} without its closing "\n}"
        yield json.dumps({"meta": meta}, indent=2)[:-2] + ',\n  "rows": ['
        empty = True
        for row in rows:
            body = "{\n      " + items(row)[1:-1] + "\n    }" if row else "{}"
            yield ("\n    " if empty else ",\n    ") + body
            empty = False
        yield "]" if empty else "\n  ]"
        if summary is not None:
            yield (',\n  "summary": '
                   + json.dumps(summary, indent=2).replace("\n", "\n  "))
        yield "\n}\n"
        return
    sep = _SEPARATORS[fmt]
    yield sep.join(header) + "\n"
    for row in rows:
        yield sep.join(map(_cell, map(row.__getitem__, header))) + "\n"


def _report(fmt: str, meta: dict, seq: Sequence, mode: str,
            n_max: int) -> int:
    """Check seq, then stream its divisibility report, and in csv/tsv each
    row's error to stderr after the table; returns the number of failed
    rows.

    The rows fill in the summary themselves when the last one is out (see
    _divisibility_rows), so no layer between them and the text counts
    them. The rows with an error are those past the last n that can be
    computed, so their stderr lines are built from seq._refusal(n) after
    the table, once per row, not held while it is written."""
    summary = {"checked": 0, "failures": 0, "first_failure": None}
    if fmt == "json":
        _render(fmt, meta, _REPORT_HEADER,
                _divisibility_rows(seq, mode, n_max, summary), summary)
    else:
        sep = _SEPARATORS[fmt]
        lines = _divisibility_rows(seq, mode, n_max, summary, sep)
        _write(itertools.chain([sep.join(_REPORT_HEADER) + "\n"], lines))
        for n in range(min(n_max, seq._reach()) + 1, n_max + 1):
            print(f"divseq: row n={n}: {seq._refusal(n)}", file=sys.stderr)
    return summary["failures"]


# ---------------------------------------------------------------------------
# subcommands

# seq KIND -> the generator it prints
_SEQ_KINDS = {"theorem4": "theorem4", "theorem5-phi": "theorem5phi",
              "theorem5-psi": "theorem5psi", "constant": "const",
              "table": "table"}


def _seq_from_flags(args) -> Sequence:
    factory, params = _GENERATORS[_SEQ_KINDS[args.kind]]
    missing = [flag for flag, _ in params if getattr(args, flag) is None]
    if missing:
        raise UsageError(f"seq {args.kind} requires --{missing[0]}")
    return factory(*(getattr(args, flag) for flag, _ in params))


def cmd_seq(args) -> int:
    seq = _seq_from_flags(args)
    # no row reads another's value, so every value streams and none is
    # kept; the stream refuses before the first byte if one cannot be
    # computed
    values = seq._stream(args.n_max)
    meta = {"command": "seq", "params": {"kind": args.kind, "id": seq.id,
                                         "n_max": args.n_max},
            "version": __version__}
    _render(args.format, meta, ("n", "value"),
            ({"n": n, "value": str(q)} for n, q in enumerate(values, 1)))
    return 0


def cmd_verify(args) -> int:
    seq = parse_expression(args.expr)
    meta = {"command": "verify",
            "params": {"expr": args.expr, "sequence": seq.id,
                       "mode": args.mode, "guarantee": seq.guarantee,
                       "n_max": args.n_max},
            "version": __version__}
    return 1 if _report(args.format, meta, seq, args.mode, args.n_max) else 0


def cmd_oracle(args) -> int:
    from .interval_map import count_antifixed, count_fixed, iterates
    gmap = _load_map(args.j, args.map_file, args.piece_cap)
    source = ({"j": args.j} if args.j is not None
              else {"map_file": args.map_file})
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
    _render(args.format, meta, ("n", "value"), rows)
    return 0


def cmd_crosscheck(args) -> int:
    rows, capped = run_crosscheck(args.j, args.n_max, args.piece_cap)
    meta = {"command": "crosscheck",
            "params": {"j": args.j, "n_max": args.n_max,
                       "piece_cap": args.piece_cap},
            "version": __version__}
    disagreements = sum(1 for row in rows if not row["agree"])
    summary = {"rows": len(rows), "disagreements": disagreements,
               "piece_cap_hit": capped}
    header = ("n", "equation", "recurrence", "oracle", "symbolic", "agree")
    _render(args.format, meta, header, rows, summary)
    if capped:
        print("divseq: oracle column hit the piece cap", file=sys.stderr)
        return 3
    return 1 if disagreements else 0


def cmd_conjecture(args) -> int:
    seq = make_theorem5_psi(args.j)
    meta = {"command": "conjecture",
            "params": {"j": args.j, "n_max": args.n_max},
            "version": __version__}
    _report(args.format, meta, seq, "phi1-mod-n", args.n_max)
    # open question: counterexamples are findings to report, not failures,
    # so the exit status stays 0 either way
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json", "tsv"),
                        default="csv", help="output format (default csv)")
    common.add_argument("--n-max", type=int, default=None, metavar="N",
                        help="largest n to include (command-specific default)")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--piece-cap", type=int, default=DEFAULT_PIECE_CAP,
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
    p.add_argument("kind", choices=_SEQ_KINDS)
    flags = {}
    for name in _SEQ_KINDS.values():
        flags.update(_GENERATORS[name][1])
    for flag, kind in flags.items():
        p.add_argument(f"--{flag}", type=kind)
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

    p = sub.add_parser("oracle", parents=[common, capped],
                       help="count fixed/antifixed points of an interval map")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--j", type=int, help="use the zigzag map on [-j, j]")
    target.add_argument("--map-file", help="load a user map file")
    p.add_argument("--equation", choices=("fixed", "antifixed"),
                   default="fixed")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("crosscheck", parents=[common, capped],
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
    with unlimited_int_digits(), exact_context():
        try:
            parser = _build_parser()
            args = parser.parse_args(argv)
            if args.n_max is None:
                args.n_max = DEFAULT_N_MAX[args.command]
            if args.n_max < 1:
                print("divseq: --n-max must be >= 1", file=sys.stderr)
                return 2
            if getattr(args, "piece_cap", 1) < 1:
                print("divseq: --piece-cap must be >= 1", file=sys.stderr)
                return 2
            code = args.func(args)
            # output that fits the buffer fails here, not at exit
            sys.stdout.flush()
            return code
        except BrokenPipeError as exc:
            # stdout's reader has gone: what is still buffered for it goes
            # to the null device, or the flush at exit would fail again
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            print(f"divseq: {exc}", file=sys.stderr)
            return 2
        except (UsageError, ExpressionError, ValueError, LookupError,
                OSError) as exc:
            print(f"divseq: {exc}", file=sys.stderr)
            return 2
        except InfiniteSolutionsError as exc:
            print(f"divseq: {exc}, so the solution count is infinite",
                  file=sys.stderr)
            return 2
        except (PieceCapExceededError, FillCapExceededError) as exc:
            print(f"divseq: {exc}", file=sys.stderr)
            return 3
        except RecursionError:
            print("divseq: the sequence expression is nested too deeply",
                  file=sys.stderr)
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
