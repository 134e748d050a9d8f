"""Run one benchmark operation in a fresh interpreter.

    python3 perfbench/child.py setup INPUTS_JSON
    python3 perfbench/child.py [--trace FILE] census J N
    python3 perfbench/child.py [--trace FILE] expand J N
    python3 perfbench/child.py [--trace FILE] cli ARG...

`setup` imports divseq and builds a workload's inputs, then exits; its wall
time from spawn to exit is the set-up time. `census` steps the edge tensor of
g_J to n = N and checks c_count/d_count against the theorem5 recurrences;
`expand` checks the literal word expansion against `step` at n = N. Both
print one JSON line and exit 1 when a check fails. `cli` runs the divseq
command line with its own exit code (it exists for traced runs; untraced
runs call `python3 -m divseq` directly).

With `--trace FILE`, wrappers record a span (name, start, end, parent)
around every call into the public functions of each divseq layer, plus
counters taken at the same boundaries, and write them to FILE at exit.
`run.py` must put the checkout's `src` directory on PYTHONPATH.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from time import perf_counter

# (sum counters, max counters) a traced run reports, by name
SUM_COUNTERS = ("interval_map.pieces.total", "sequences.fill.values",
                "symbolic.laps")
MAX_COUNTERS = ("interval_map.pieces.max", "interval_map.cap_headroom",
                "interval_map.max_den", "sequences.max_value",
                "symbolic.word_cap_headroom")


def decimal_digits(v: int) -> int:
    """Number of decimal digits of |v| (0 for v = 0, meaning nothing was
    seen), without int-to-str conversion, which Python limits to 4300
    digits."""
    v = abs(v)
    if not v:
        return 0
    d = max(1, int((v.bit_length() - 1) * 0.30102999566398120) + 1)
    while v >= 10 ** d:
        d += 1
    return d


class Tracer:
    """Spans kept in memory as [name, start, end, parent index] plus the
    counters, written out once when the operation ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.sums = dict.fromkeys(SUM_COUNTERS, 0)
        self.maxima = dict.fromkeys(MAX_COUNTERS, 0)

    def begin(self, name: str) -> list:
        span = [name, perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list):
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_return=None):
        """fn inside a span; on_return(args, kwargs, result) updates the
        counters inside a `trace.hook` span of its own, so that its cost is
        not charged to any layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_return is not None:
                hook = self.begin("trace.hook")
                on_return(args, kwargs, result)
                self.end(hook)
            return result

        return traced

    def count(self, name: str, value):
        self.sums[name] += value

    def peak(self, name: str, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def summary(self) -> dict:
        """Calls and self time per span name; self time is a span's
        duration minus the durations of its direct children."""
        self_s = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        names: dict[str, dict] = {}
        for (name, _, _, parent), own in zip(self.spans, self_s):
            entry = names.setdefault(name, {"calls": 0, "self_s": 0.0,
                                            "child_evals": 0})
            entry["calls"] += 1
            entry["self_s"] += own
        for name, _, _, parent in self.spans:
            if name == "sequences.eval" and parent >= 0:
                names[self.spans[parent][0]]["child_evals"] += 1
        maxima = dict(self.maxima)
        maxima["interval_map.max_den_digits"] = decimal_digits(
            maxima.pop("interval_map.max_den"))
        maxima["sequences.max_digits"] = decimal_digits(
            maxima.pop("sequences.max_value"))
        return {"spans": names, "sums": self.sums, "maxima": maxima}

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"summary": self.summary(),
                                 "spans": self.spans}, separators=(",", ":")))


def install(tracer: Tracer):
    """Wrap the public functions of every layer. Modules import each other's
    functions by name, and cli keeps phi1/phi2 in its _MODES table, so each
    wrapper replaces the original in every namespace that holds it."""
    import divseq
    from divseq import arith, cli, interval_map, sequences, symbolic

    modules = (divseq, arith, sequences, interval_map, symbolic, cli)

    def patch(name: str, fn, on_return=None):
        wrapped = tracer.wrap(name, fn, on_return)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
        for mode, (transform, factor) in list(cli._MODES.items()):
            if transform is fn:
                cli._MODES[mode] = (wrapped, factor)

    def on_parse(args, kwargs, result):
        tracer.peak("interval_map.pieces.max", result.pieces)
        tracer.peak("interval_map.max_den",
                    max(v.denominator for v in result.xs + result.ys))

    def on_compose(args, kwargs, result):
        cap = args[2] if len(args) > 2 else kwargs.get(
            "piece_cap", interval_map.DEFAULT_PIECE_CAP)
        tracer.count("interval_map.pieces.total", result.pieces)
        tracer.peak("interval_map.cap_headroom", result.pieces / cap)
        on_parse(args, kwargs, result)

    def on_expand(args, kwargs, result):
        cap = args[2] if len(args) > 2 else kwargs.get(
            "word_cap", symbolic.DEFAULT_WORD_CAP)
        laps = result.total()
        tracer.count("symbolic.laps", laps)
        tracer.peak("symbolic.word_cap_headroom", laps / cap)

    patch("interval_map.compose", interval_map.compose, on_compose)
    patch("interval_map.count_fixed", interval_map.count_fixed)
    patch("interval_map.count_antifixed", interval_map.count_antifixed)
    patch("interval_map.parse_map_file", interval_map.parse_map_file, on_parse)
    patch("arith.factorize", arith.factorize)
    patch("arith.phi1", arith.phi1)
    patch("arith.phi2", arith.phi2)
    patch("symbolic.step", symbolic.step)
    patch("symbolic.c_count", symbolic.c_count)
    patch("symbolic.d_count", symbolic.d_count)
    patch("symbolic.expand_word", symbolic.expand_word, on_expand)
    patch("cli.parse_expression", cli.parse_expression)
    patch("cli.run_divisibility", cli.run_divisibility)
    patch("cli.run_crosscheck", cli.run_crosscheck)
    patch("cli.main", cli.main)

    # Sequence.eval is a method: wrap it on the class. The cache growth it
    # causes is read from the memo list the call appends to.
    plain_eval = sequences.Sequence.eval

    def eval_(seq, n):
        filled = len(seq._values)
        span = tracer.begin("sequences.eval")
        try:
            value = plain_eval(seq, n)
        finally:
            tracer.end(span)
        if len(seq._values) > filled:
            hook = tracer.begin("trace.hook")
            grown = seq._values[filled:]
            tracer.count("sequences.fill.values", len(grown))
            tracer.peak("sequences.max_value", max(map(abs, grown)))
            tracer.end(hook)
        return value

    sequences.Sequence.eval = eval_


def _digest(*values: int) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True))
    return h.hexdigest()


def _census(j: int, n: int) -> bool:
    """Step the edge tensor of g_j to n; its c/d tallies must equal the
    theorem5 recurrences at n."""
    import divseq
    t = divseq.initial_tensor(j)
    for _ in range(n - 1):
        t = divseq.step(t)
    c, d = divseq.c_count(t), divseq.d_count(t)
    ok = (c == divseq.make_theorem5_phi(j)(n)
          and d == divseq.make_theorem5_psi(j)(n))
    print(json.dumps({"op": "census", "j": j, "n": n, "ok": ok,
                      "digest": _digest(c, d)}))
    return ok


def _expand(j: int, n: int) -> bool:
    """Tally g_j^n by literal word expansion; it must equal the stepped
    tensor."""
    import divseq
    expanded = divseq.expand_word(j, n)
    t = divseq.initial_tensor(j)
    for _ in range(n - 1):
        t = divseq.step(t)
    ok = expanded.counts == t.counts
    print(json.dumps({"op": "expand", "j": j, "n": n, "ok": ok,
                      "laps": expanded.total(),
                      "digest": _digest(*(c for row in expanded.counts
                                          for c in row))}))
    return ok


def _setup(inputs: dict):
    """Import divseq and build the inputs a workload starts from."""
    import divseq
    for j in inputs.get("gj", ()):
        divseq.build_gj(j)
    for path in inputs.get("map_files", ()):
        with open(path, encoding="utf-8") as fh:
            divseq.parse_map_file(fh.read(), source=path)
    if inputs.get("cli"):
        from divseq.cli import parse_expression
        for text in inputs.get("exprs", ()):
            parse_expression(text)
    for j in inputs.get("tensors", ()):
        divseq.initial_tensor(j)


def main(argv: list[str]) -> int:
    tracer = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
        tracer = Tracer()
        install(tracer)
    verb, args = argv[0], argv[1:]
    try:
        if verb == "setup":
            _setup(json.loads(args[0]))
            return 0
        if verb == "census":
            return 0 if _census(int(args[0]), int(args[1])) else 1
        if verb == "expand":
            return 0 if _expand(int(args[0]), int(args[1])) else 1
        if verb == "cli":
            from divseq import cli
            return cli.main(args)
        raise SystemExit(f"child.py: unknown operation {verb!r}")
    finally:
        if tracer is not None:
            tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
