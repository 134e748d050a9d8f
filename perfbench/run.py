"""divseq benchmark: four exact-arithmetic workloads, run from outside the
program, with end-to-end metrics and a traced per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

Closed loop, one client: every operation is a fresh child process (a
`python3 -m divseq` invocation, or `perfbench/child.py` for library calls),
started only after the previous one has ended. A pass runs the workload's
fixed operation list once; passes repeat until S seconds have gone, and the
timings reported are medians over passes. Every operation is checked: exit
code, stdout digest against `golden.json` (recorded from the unmodified
program with --record-golden), and an independent check where the workload
has one. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (traced passes
alternate with untraced ones so that the tracing overhead can be reported).
The line before it, and a file under .perfbench_runs/, hold the details:
environment, per-operation figures, inputs and, for traced runs, the spans
of the last traced pass.

The program is imported from `src/` of the checkout this file sits in; if
that is missing the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
OUT = ROOT / ".perfbench_runs"

SETUP_PER_PASS = 4     # set-up probes before each pass; setup_s is their median
MIN_PASSES = 3         # passes per run even when they outlast --seconds
OP_TIMEOUT_S = 150     # an operation still running then is killed and failed

# The random map of oracle-mapfile and its oracle depth. A map with 5 pieces
# and two full laps has exactly 4*2**n - 3 pieces at iterate n, and 2**n
# solutions of g^n(x) = x and of g^n(x) = -x, whatever the seed.
MAP_PIECES = 5
MAPFILE_N_MAX = 10

PER_LAYER = {
    "interval_map.compose.calls": "count",
    "interval_map.compose.self_s": "s",
    "interval_map.pieces.max": "count",
    "interval_map.pieces.total": "count",
    "interval_map.compose.us_per_piece": "us",
    "interval_map.cap_headroom": "ratio",
    "interval_map.count.self_s": "s",
    "interval_map.max_den_digits": "digits",
    "interval_map.parse.self_s": "s",
    "sequences.eval.self_s": "s",
    "sequences.fill.values": "count",
    "sequences.max_digits": "digits",
    "arith.factorize.calls": "count",
    "arith.factorize.self_s": "s",
    "arith.phi.calls": "count",
    "arith.phi.self_s": "s",
    "arith.phi.terms": "count",
    "symbolic.step.calls": "count",
    "symbolic.step.self_s": "s",
    "symbolic.count.self_s": "s",
    "symbolic.expand_word.self_s": "s",
    "symbolic.laps": "count",
    "symbolic.word_cap_headroom": "ratio",
    "cli.parse_expression.self_s": "s",
    "cli.run_divisibility.self_s": "s",
    "cli.run_crosscheck.self_s": "s",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
}


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Op:
    key: str                  # golden digest key, unique within the workload
    argv: list[str]           # divseq arguments (cli) or child.py arguments
    cli: bool = True
    check: Callable[[bytes], str | None] | None = None  # error text or None


@dataclass
class Workload:
    ops: list[Op]
    setup: dict               # what child.py `setup` builds
    baseline: str             # the ROADMAP figure this workload reproduces
    inputs: dict = field(default_factory=dict)


def _rational_between(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A random rational strictly inside (lo, hi) with denominator 10..99."""
    while True:
        q = rng.randint(10, 99)
        v = Fraction(rng.randint(int(lo * q) - 1, int(hi * q) + 1), q)
        if lo < v < hi:
            return v


def make_map(rng: random.Random):
    """Rejection-sample a continuous PL map of [-1, 1] with MAP_PIECES linear
    pieces, |slope| > 1 on every piece and a real corner at every interior
    node. The map has two monotone laps, each onto [-1, 1]; breakpoints,
    turning point and values are random rationals. Returns (xs, ys, tries)."""
    for tries in range(1, 100_000):
        turn = _rational_between(rng, Fraction(-1, 2), Fraction(1, 2))
        s = rng.choice((-1, 1))
        first = rng.randint(2, MAP_PIECES - 2)
        xs, ys = [Fraction(-1)], [Fraction(-s)]
        for a, b, ya, yb, k in ((Fraction(-1), turn, -s, s, first),
                                (turn, Fraction(1), s, -s, MAP_PIECES - first)):
            xs += sorted(_rational_between(rng, a, b) for _ in range(k - 1))
            xs.append(b)
            ys += sorted((_rational_between(rng, Fraction(-1), Fraction(1))
                          for _ in range(k - 1)), reverse=ya > yb)
            ys.append(Fraction(yb))
        if len(set(xs)) != len(xs):
            continue
        slopes = [(y1 - y0) / (x1 - x0)
                  for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]
        if (all(abs(m) > 1 for m in slopes)
                and all(m0 != m1 for m0, m1 in zip(slopes, slopes[1:]))):
            return xs, ys, tries
    raise RuntimeError("no expanding map found")


def _distinct_primes(n: int) -> list[int]:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + ([n] if n > 1 else [])


def _phi1(q: dict[int, int], n: int) -> int:
    """Inclusion-exclusion of q over the distinct primes of n, written
    independently of divseq.arith."""
    total = 0
    primes = _distinct_primes(n)
    for mask in range(1 << len(primes)):
        d, sign = 1, 1
        for i, p in enumerate(primes):
            if mask >> i & 1:
                d, sign = d * p, -sign
        total += sign * q[n // d]
    return total


def check_map_counts(stdout: bytes) -> str | None:
    """The oracle table of a two-full-lap expanding map: 2**n solutions at
    every n, and n | phi1(counts, n), which holds for any map."""
    lines = stdout.decode().splitlines()
    if lines[:1] != ["n,value"]:
        return "oracle output has no n,value header"
    counts = {int(n): int(v) for n, v in (line.split(",") for line in lines[1:])}
    if sorted(counts) != list(range(1, MAPFILE_N_MAX + 1)):
        return f"oracle rows cover n = {sorted(counts)}"
    for n, v in counts.items():
        if v != 2 ** n:
            return f"n={n}: oracle counted {v} solutions, expected {2 ** n}"
        if _phi1(counts, n) % n:
            return f"n={n}: phi1 of the oracle counts is not divisible by n"
    return None


def check_child_ok(stdout: bytes) -> str | None:
    result = json.loads(stdout.decode().splitlines()[-1])
    return None if result.get("ok") is True else f"check failed: {result}"


def build_workload(name: str, seed: int, tmp: Path) -> Workload:
    """The operation list of a workload. Only oracle-mapfile draws from the
    seed; the other workloads run fixed inputs."""
    if name == "oracle-zigzag":
        return Workload(
            ops=[Op("crosscheck-j3", ["crosscheck", "--j", "3", "--n-max", "8"])],
            setup={"cli": True, "gj": [3]},
            baseline="crosscheck --j 3 --n-max 10 takes 12 s (54 033 pieces); "
                     "this workload runs --n-max 8 (6 741 pieces)")
    if name == "oracle-mapfile":
        xs, ys, tries = make_map(random.Random(seed))
        path = tmp / f"map-seed{seed}.txt"
        path.write_text("domain -1 1\n" + "".join(
            f"{x} {y}\n" for x, y in zip(xs, ys)), encoding="utf-8")
        return Workload(
            ops=[Op(f"map-{eq}", ["oracle", "--map-file", str(path),
                                  "--equation", eq,
                                  "--n-max", str(MAPFILE_N_MAX)],
                    check=check_map_counts)
                 for eq in ("fixed", "antifixed")],
            setup={"cli": True, "map_files": [str(path)]},
            baseline="none: the ROADMAP has no map-file figure",
            inputs={"map_seed": seed, "map_pieces": len(xs) - 1,
                    "rejection_tries": tries,
                    "map": [f"{x} {y}" for x, y in zip(xs, ys)]})
    if name == "verify-bigint":
        exprs = ["theorem5phi(3)", "dilateodd(theorem5psi(2),3)",
                 "lin(3,theorem5phi(2),-2,theorem4(3,0,1))"]
        return Workload(
            ops=[Op("verify-theorem5phi3",
                    ["verify", exprs[0], "--mode", "phi1-mod-n",
                     "--n-max", "8000"]),
                 Op("verify-dilateodd",
                    ["verify", exprs[1], "--mode", "phi2-mod-2n",
                     "--n-max", "2500"]),
                 Op("verify-lin-json",
                    ["verify", exprs[2], "--mode", "phi1-mod-n",
                     "--format", "json", "--n-max", "2000"]),
                 Op("conjecture-j3", ["conjecture", "--j", "3",
                                      "--n-max", "4000"])],
            setup={"cli": True, "exprs": exprs},
            baseline="verify 'theorem5phi(3)' --n-max 8000 takes 1.8 s and "
                     "peaks at 115 MB RSS (op verify-theorem5phi3)")
    if name == "census":
        steps = [(3, 10000), (5, 5000), (8, 3000)]
        expands = [(3, 8), (4, 7)]
        return Workload(
            ops=[Op(f"census-j{j}-n{n}", ["census", str(j), str(n)], cli=False,
                    check=check_child_ok) for j, n in steps]
            + [Op(f"expand-j{j}-n{n}", ["expand", str(j), str(n)], cli=False,
                  check=check_child_ok) for j, n in expands],
            setup={"tensors": [j for j, _ in steps]},
            baseline="step reaches n = 5000 for j = 3 in 0.1 s; this "
                     "workload steps j = 3 to n = 10 000")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("oracle-zigzag", "oracle-mapfile", "verify-bigint", "census")


# ---------------------------------------------------------------------------
# running operations

@dataclass
class OpResult:
    key: str
    cli: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout_bytes: int
    digest: str
    error: str | None
    trace: dict | None = None     # child.py trace file contents


@dataclass
class Spawned:
    wall_s: float
    code: int
    usage: object             # resource.struct_rusage of the child alone
    size: int
    digest: str               # sha256 of stdout
    stdout: bytes | None
    stderr_tail: str


def _spawn(cmd: list[str], env: dict, stderr_path: Path,
           keep_stdout: bool) -> Spawned:
    """Run one child to completion, hashing its stdout as it streams."""
    digest = hashlib.sha256()
    size = 0
    kept = [] if keep_stdout else None
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, env=env)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            while chunk := proc.stdout.read(1 << 16):
                digest.update(chunk)
                size += len(chunk)
                if kept is not None:
                    kept.append(chunk)
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            code = proc.returncode = os.waitstatus_to_exitcode(status)
            wall = perf_counter() - start
            timer.cancel()
    return Spawned(wall, code, usage, size, digest.hexdigest(),
                   None if kept is None else b"".join(kept),
                   stderr_path.read_text(errors="replace")[-500:].strip())


class Runner:
    def __init__(self, golden: dict | None, tmp: Path):
        self.golden = golden
        self.tmp = tmp
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else []))

    def run(self, op: Op, traced: bool) -> OpResult:
        trace_path = self.tmp / f"trace-{op.key}.json"
        if op.cli and not traced:
            cmd = [sys.executable, "-m", "divseq", *op.argv]
        else:
            cmd = [sys.executable, str(CHILD)]
            if traced:
                cmd += ["--trace", str(trace_path)]
            cmd += (["cli"] if op.cli else []) + op.argv
        run = _spawn(cmd, self.env, self.tmp / "stderr.txt",
                     op.check is not None)
        error = None
        if run.code != 0:
            error = f"exit code {run.code}: {run.stderr_tail}"
        elif self.golden is not None and self.golden.get(op.key) != run.digest:
            error = (f"stdout sha256 {run.digest} differs from golden "
                     f"{self.golden.get(op.key)}")
        elif op.check is not None:
            error = op.check(run.stdout)
        trace = None
        if traced and trace_path.exists():
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
            trace_path.unlink()
        usage = run.usage
        return OpResult(op.key, op.cli, run.wall_s,
                        usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024, run.size, run.digest, error,
                        trace)

    def setup_time(self, inputs: dict) -> tuple[float, str | None]:
        cmd = [sys.executable, str(CHILD), "setup", json.dumps(inputs)]
        run = _spawn(cmd, self.env, self.tmp / "stderr.txt", False)
        return run.wall_s, (None if run.code == 0 else
                            f"setup exit code {run.code}: {run.stderr_tail}")


# ---------------------------------------------------------------------------
# metrics

def layer_metrics(results: list[OpResult]) -> dict[str, float]:
    """Per-layer figures of one traced pass, summed over its operations."""
    spans: dict[str, dict] = {}
    sums: dict[str, float] = {}
    maxima: dict[str, float] = {}
    for r in results:
        if r.trace is None:     # the child died before writing its trace
            continue
        summary = r.trace["summary"]
        for name, entry in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "child_evals": 0})
            for k in acc:
                acc[k] += entry[k]
        for name, v in summary["sums"].items():
            sums[name] = sums.get(name, 0) + v
        for name, v in summary["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), v)

    def total(field_: str, *names: str):
        return sum(spans.get(n, {}).get(field_, 0) for n in names)

    compose_self = total("self_s", "interval_map.compose")
    pieces = sums["interval_map.pieces.total"]
    return {
        "interval_map.compose.calls": total("calls", "interval_map.compose"),
        "interval_map.compose.self_s": compose_self,
        "interval_map.pieces.max": maxima["interval_map.pieces.max"],
        "interval_map.pieces.total": pieces,
        "interval_map.compose.us_per_piece":
            compose_self * 1e6 / pieces if pieces else 0.0,
        "interval_map.cap_headroom": maxima["interval_map.cap_headroom"],
        "interval_map.count.self_s": total(
            "self_s", "interval_map.count_fixed", "interval_map.count_antifixed"),
        "interval_map.max_den_digits": maxima["interval_map.max_den_digits"],
        "interval_map.parse.self_s": total("self_s",
                                           "interval_map.parse_map_file"),
        "sequences.eval.self_s": total("self_s", "sequences.eval"),
        "sequences.fill.values": sums["sequences.fill.values"],
        "sequences.max_digits": maxima["sequences.max_digits"],
        "arith.factorize.calls": total("calls", "arith.factorize"),
        "arith.factorize.self_s": total("self_s", "arith.factorize"),
        "arith.phi.calls": total("calls", "arith.phi1", "arith.phi2"),
        "arith.phi.self_s": total("self_s", "arith.phi1", "arith.phi2"),
        "arith.phi.terms": total("child_evals", "arith.phi1", "arith.phi2"),
        "symbolic.step.calls": total("calls", "symbolic.step"),
        "symbolic.step.self_s": total("self_s", "symbolic.step"),
        "symbolic.count.self_s": total("self_s", "symbolic.c_count",
                                       "symbolic.d_count"),
        "symbolic.expand_word.self_s": total("self_s", "symbolic.expand_word"),
        "symbolic.laps": sums["symbolic.laps"],
        "symbolic.word_cap_headroom": maxima["symbolic.word_cap_headroom"],
        "cli.parse_expression.self_s": total("self_s", "cli.parse_expression"),
        "cli.run_divisibility.self_s": total("self_s", "cli.run_divisibility"),
        "cli.run_crosscheck.self_s": total("self_s", "cli.run_crosscheck"),
        "cli.main.self_s": total("self_s", "cli.main"),
        "cli.stdout_bytes": sum(r.stdout_bytes for r in results if r.cli),
    }


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": model}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# entry points

def bench(name: str, seed: int, seconds: float, trace: bool) -> int:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = build_workload(name, seed, tmp)
        runner = Runner(golden, tmp)
        errors: list[str] = []
        attempted = 0

        runner.setup_time(workload.setup)   # warm-up: bytecode caches
        setup_samples = []
        passes: list[tuple[bool, list[OpResult]]] = []
        spans = {}      # of the last traced pass, for the run's trace file
        start = perf_counter()
        # Set-up probes are spread over the run, a few before each pass, so
        # that their median does not hang on one moment of a shared machine.
        # After MIN_PASSES, a pass starts only if one more like the last
        # fits within --seconds.
        while True:
            pass_start = perf_counter()
            for _ in range(SETUP_PER_PASS):
                wall, error = runner.setup_time(workload.setup)
                attempted += 1
                setup_samples.append(wall)
                if error:
                    errors.append(error)
            traced = trace and len(passes) % 2 == 1
            results = []
            for op in workload.ops:
                r = runner.run(op, traced)
                attempted += 1
                if r.error:
                    errors.append(f"{op.key}: {r.error}")
                if r.trace is not None:
                    spans[op.key] = r.trace.pop("spans")
                results.append(r)
            passes.append((traced, results))
            now = perf_counter()
            if (len(passes) >= MIN_PASSES
                    and now - start + (now - pass_start) > seconds):
                break
        measured_s = perf_counter() - start

        plain = [rs for traced, rs in passes if not traced]
        walls = [sum(r.wall_s for r in rs) for rs in plain]
        detail = {
            "workload": name, "seed": seed, "trace": int(trace),
            "seconds": seconds, "measured_s": measured_s,
            "passes": len(passes), "untraced_passes": len(plain),
            "setup_samples": len(setup_samples),
            "setup_s": setup_samples,
            "pass_wall_s": walls,
            "pass_cpu_s": [sum(r.cpu_s for r in rs) for rs in plain],
            "per_op": {op.key: {
                "wall_s_median": statistics.median(
                    rs[i].wall_s for rs in plain),
                "rss_mb_max": max(rs[i].rss_mb for rs in plain),
                "stdout_bytes": plain[0][i].stdout_bytes}
                for i, op in enumerate(workload.ops)},
            "inputs": workload.inputs,
            "roadmap_baseline": workload.baseline,
            "env": environment(),
            "errors": errors[:20],
        }
        if trace:
            traced_passes = [rs for traced, rs in passes if traced]
            per_pass = [layer_metrics(rs) for rs in traced_passes]
            metrics = {k: _metric(statistics.median(p[k] for p in per_pass), u)
                       for k, u in PER_LAYER.items()}
            detail["traced_passes"] = len(traced_passes)
            detail["traced_pass_wall_s"] = [sum(r.wall_s for r in rs)
                                            for rs in traced_passes]
            detail["trace_overhead_s"] = (
                statistics.median(detail["traced_pass_wall_s"])
                - statistics.median(walls))
        else:
            metrics = {
                "wall_s": _metric(statistics.median(walls), "s"),
                "cpu_s": _metric(statistics.median(detail["pass_cpu_s"]), "s"),
                "setup_s": _metric(statistics.median(setup_samples), "s"),
                "peak_rss_mb": _metric(statistics.median(
                    max(r.rss_mb for r in rs) for rs in plain), "MB"),
            }
        result = {"correct": not errors, "attempted": attempted,
                  "failed": len(errors), "metrics": metrics}
        detail["result"] = result
        record = dict(detail, spans=spans)
        (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, separators=(",", ":")), encoding="utf-8")
        for error in errors[:5]:
            print(f"perfbench: {error}", file=sys.stderr)
        print(json.dumps(detail))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def record_golden() -> int:
    """Run every operation once (seed 0) and store its stdout digest."""
    OUT.mkdir(exist_ok=True)
    golden = {}
    tmp = Path(tempfile.mkdtemp(prefix="golden-", dir=OUT))
    try:
        runner = Runner(None, tmp)
        for name in WORKLOADS:
            golden[name] = {}
            for op in build_workload(name, 0, tmp).ops:
                r = runner.run(op, traced=False)
                if r.error:
                    print(f"perfbench: {name}/{op.key}: {r.error}",
                          file=sys.stderr)
                    return 1
                golden[name][op.key] = r.digest
                print(f"{name}/{op.key}: {r.wall_s:.2f} s {r.digest}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the current program")
    args = parser.parse_args()
    if not (SRC / "divseq" / "__init__.py").is_file():
        print(f"perfbench: no divseq package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
