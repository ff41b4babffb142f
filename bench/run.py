#!/usr/bin/env python3
"""Seeded benchmark of `fuzzyasp solve`, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload chain|closure|loops --seed N \\
        --seconds S --trace 0|1

One op is one in-process call of ``fuzzyasp.cli.main(["solve", file,
"--json"])`` with stdout captured: read, parse, ground, solve and render.
One closed-loop caller, no threads.  Every op's output is checked against
``reference.py``, which does not use the solver.

Both modes solve the workload's deck of programs (``workloads.py``) round
after round until ``--seconds`` have passed.  ``--trace 0`` prints the
end-to-end metrics.  ``--trace 1`` then solves the deck once more under
``tracing.Tracer`` and prints the per-layer metrics, the tracing overhead
against the untraced rounds and the value-algebra throughput.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_RUNS = 5

# A fresh interpreter: import the CLI, then solve the warm-up program.
_SETUP_CHILD = """
import contextlib, io, json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from fuzzyasp import cli
imported = time.perf_counter()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["solve", sys.argv[2], "--json"])
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "first_op_s": done - imported,
                  "code": code, "output": out.getvalue()}))
"""


def log(message: str):
    print(message, file=sys.stderr, flush=True)


def verdict(case, code, text: str) -> str | None:
    """None when an op's result is right, else why it failed."""
    if isinstance(code, Exception):
        return f"raised {code!r}"
    try:
        doc = json.loads(text) if text else None
    except json.JSONDecodeError:
        return "output is not JSON"
    return reference.check(case, code, doc)


def calibration() -> float:
    """Seconds for one *cal*: median of 3 runs of a fixed pure-Python loop.

    The loop builds tuples, takes float min/max and stores into a dict, the
    kind of interpreter work the value algebra does, and never touches
    fuzzyasp.  On the 2-vCPU VM this benchmark was tuned on, the speed of
    the same op changed by up to 40% from one second to the next and between
    processes; an op's time divided by a calibration taken next to it moved
    by 3-7% across runs, against 15-40% for its wall time.
    """
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        table, acc = {}, 0.0
        for i in range(3000):
            x = (i * 0.37) % 1.0
            t = (x * 0.5, x * 0.9, min(x, 0.3), max(x, 0.7))
            table[i & 63] = t
            acc += min(t) + max(t)
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


class Runner:
    """Runs and checks ops, and keeps the tally of attempted and failed ones."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self._cal = None

    def op(self, path: str):
        """One timed call: (seconds, exit code or the exception raised, stdout)."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.main(["solve", path, "--json"])
        except Exception as exc:  # an op that raises is a failed op
            code = exc
        return time.perf_counter() - start, code, out.getvalue()

    def checked(self, case, path: str):
        """Run and check one op; returns (seconds, ok, stdout)."""
        seconds, code, text = self.op(path)
        reason = verdict(case, code, text)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            log(f"FAIL {case.name} seed={case.seed}: {reason}")
        return seconds, reason is None, text

    def timed(self, case, path: str):
        """Run and check one op between two calibrations.

        Returns (seconds, cal units, ok, stdout); the op's cal units are its
        seconds over the mean of the calibrations before and after it.
        """
        if self._cal is None:
            self._cal = calibration()
        seconds, ok, text = self.checked(case, path)
        after = calibration()
        units = seconds / ((self._cal + after) / 2)
        self._cal = after
        return seconds, units, ok, text


def percentile(samples: list[float], q: float) -> float:
    """Inclusive linear-interpolation percentile; a failed op (inf) absorbs."""
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0.0:
        return xs[lo]
    if math.isinf(xs[lo + 1]):
        return math.inf
    return xs[lo] + frac * (xs[lo + 1] - xs[lo])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def write_programs(cases, directory: Path) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, case in enumerate(cases):
        path = directory / f"{i:02d}-{case.name}.fasp"
        path.write_text(case.source, encoding="utf-8")
        paths.append(str(path))
    return paths


def setup_phase(case, path: str) -> tuple[list, bool]:
    """SETUP_RUNS fresh interpreters; per run (wall_s, import_s, first_op_s).

    A run that fails counts as taking forever.
    """
    samples, ok = [], True
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD, str(SRC), path],
                capture_output=True, text=True, timeout=30, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - start
        if proc is None or proc.returncode != 0:
            log("FAIL setup: " + (f"interpreter exited {proc.returncode}: "
                                  f"{proc.stderr[-500:]}" if proc else "timed out"))
            samples.append((math.inf,) * 3)
            ok = False
            continue
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        reason = verdict(case, child["code"], child["output"])
        if reason is not None:
            log(f"FAIL setup {case.name} seed={case.seed}: {reason}")
            ok = False
        samples.append((wall, child["import_s"], child["first_op_s"]))
    return samples, ok


def timed_rounds(runner: Runner, cases, paths, seconds: float):
    """Solve the deck round after round for at least ``seconds``.

    Returns (wall seconds, cal units, ok) per op and the number of rounds.
    """
    ops, rounds = [], 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for case, path in zip(cases, paths):
            ops.append(runner.timed(case, path)[:3])
        rounds += 1
    return ops, rounds


def end_to_end(runner: Runner, cases, paths, setup, seconds: float) -> dict:
    ops, rounds = timed_rounds(runner, cases, paths, seconds)
    solved = sum(ok for _, _, ok in ops)

    def latencies(column):  # a failed op exceeds every latency
        return [op[column] if op[2] else math.inf for op in ops]

    # Wall-clock figures go to stderr only: on a host whose speed swings they
    # spread too widely across runs to hold a regression bound.
    walls = latencies(0)
    log(f"{rounds} rounds of {len(cases)} programs; wall clock: "
        f"solve_s.p50 {percentile(walls, 0.5)!r} s, "
        f"solve_s.p90 {percentile(walls, 0.9)!r} s, "
        f"programs_per_s {solved / sum(op[0] for op in ops)!r} 1/s, "
        f"error_rate {runner.failed / runner.attempted!r}")
    units = latencies(1)
    return {
        "setup_s": (statistics.median(s[0] for s in setup), "s"),
        "solve_cal.p50": (percentile(units, 0.5), "cal"),
        "solve_cal.p90": (percentile(units, 0.9), "cal"),
        "programs_per_kcal": (1000 * solved / sum(op[1] for op in ops), "1/kcal"),
        "success_rate": (solved / len(ops), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_deck(runner: Runner, cases, paths):
    """Solve the deck once under a Tracer: (tracer, totals, cal units spent).

    Sizes are read from the spanned calls' return values after each op,
    outside every span.
    """
    totals = dict.fromkeys(
        ("parse_rules", "ground_rules", "ground_literals", "passes",
         "candidates", "answer_sets", "output_bytes"), 0)
    tracer = tracing.Tracer()
    untraced = runner.main
    runner.main = tracer.span("cli.main", untraced)
    busy = 0.0
    tracer.install()
    try:
        for i, (case, path) in enumerate(zip(cases, paths)):
            tracer.op = i
            _, cal, _, text = runner.timed(case, path)
            busy += cal
            totals["output_bytes"] += len(text.encode("utf-8"))
            for name, result in tracer.results:
                if name == "program.parse":
                    totals["parse_rules"] += len(result.rules)
                elif name == "program.ground":
                    totals["ground_rules"] += len(result.rules)
                    totals["ground_literals"] += len(result.literals)
                elif name == "solver.solve":
                    totals["passes"] += result.iterations
                    totals["candidates"] += len(result.candidates)
                    totals["answer_sets"] += len(result.answer_sets)
            tracer.results.clear()
    finally:
        tracer.uninstall()
        runner.main = untraced
    return tracer, totals, busy


def layer_metrics(tracer: tracing.Tracer, totals: dict, ops: int) -> dict:
    """Per-layer metrics: times are seconds per op, counts are deck totals."""
    spans = tracer.spans
    own = tracing.self_times(spans)
    in_verify = tracing.under(spans, "solver.verify")

    def spent(name, *, self_time=False, outside_verify=False):
        ns, calls = 0, 0
        for i, s in enumerate(spans):
            if s.name == name and not (outside_verify and in_verify[i]):
                ns += own[i] if self_time else s.end - s.start
                calls += 1
        return ns / 1e9 / ops, calls

    guess_s, guesses = spent("solver.kmin", outside_verify=True)
    verify_s, verifies = spent("solver.verify")
    closure_s, closures = spent("oracle.closure")
    metrics = {
        "cli.self_s": (spent("cli.main", self_time=True)[0], "s"),
        "cli.output_bytes": (totals["output_bytes"], "bytes"),
        "program.parse_s": (spent("program.parse")[0], "s"),
        "program.parse_rules": (totals["parse_rules"], "count"),
        "program.ground_s": (spent("program.ground")[0], "s"),
        "program.ground_rules": (totals["ground_rules"], "count"),
        "program.ground_literals": (totals["ground_literals"], "count"),
        "solver.solve_self_s": (spent("solver.solve", self_time=True)[0], "s"),
        "solver.passes": (totals["passes"], "count"),
        "solver.guess_fixpoints": (guesses, "count"),
        "solver.guess_s": (guess_s, "s"),
        "solver.verify_calls": (verifies, "count"),
        "solver.verify_s": (verify_s, "s"),
        "solver.candidates": (totals["candidates"], "count"),
        "solver.answer_sets": (totals["answer_sets"], "count"),
        "solver.answer_set_ratio": (ratio(totals["answer_sets"], totals["candidates"]), "ratio"),
        "solver.guess_yield": (ratio(totals["answer_sets"], guesses), "ratio"),
        "oracle.closure_calls": (closures, "count"),
        "oracle.closure_s": (closure_s, "s"),
    }
    for name in tracing.COUNTED.values():
        metrics[name] = (tracer.counts[name], "count")
    return metrics


def algebra_rates(seed: int) -> dict:
    """Ops/s of conj, disj, kagg and measure on a seeded value mix.

    Half the values are truncated (support leaving [0, 1], as in
    tfn(0.4,0.4,1.5)), so conj's min/max cross products are timed, not only
    the restricted componentwise case.
    """
    from fuzzyasp.connectives import conj, disj, kagg
    from fuzzyasp.errors import AggregationTie
    from fuzzyasp.measures import measure
    from fuzzyasp.truthspace import make

    rng = random.Random(f"algebra:{seed}")
    values = []
    for i in range(256):
        b, c = sorted(rng.random() for _ in range(2))
        if i % 2:
            a, d = min(b, rng.uniform(-0.6, 0.2)), max(c, rng.uniform(0.8, 1.6))
            if a >= 0.0 and d <= 1.0:
                d = 1.25
        else:
            a, d = rng.uniform(0.0, b), rng.uniform(c, 1.0)
        values.append(make(a, b, c, d))
    pairs = [(rng.choice(values), rng.choice(values)) for _ in range(4096)]
    tied = set()
    for i, (x, y) in enumerate(pairs):
        try:
            kagg(x, y)
        except AggregationTie:
            tied.add(i)
    pairs = [p for i, p in enumerate(pairs) if i not in tied]
    singles = [(v,) for v in values] * 16

    def rate(fn, args_list) -> float:
        runs = []
        for _ in range(5):
            start = time.perf_counter()
            for args in args_list:
                fn(*args)
            runs.append(len(args_list) / (time.perf_counter() - start))
        return statistics.median(runs)

    return {
        "connectives.conj_ops_per_s": (rate(conj, pairs), "1/s"),
        "connectives.disj_ops_per_s": (rate(disj, pairs), "1/s"),
        "connectives.kagg_ops_per_s": (rate(kagg, pairs), "1/s"),
        "measures.measure_ops_per_s": (rate(measure, singles), "1/s"),
    }


def defect_probes(runner: Runner, seed: int, directory: Path) -> int:
    """Run the ROADMAP defect programs outside the tally; count those still open."""
    still_open = 0
    for tag, case in workloads.known_defects(seed):
        path = write_programs([case], directory / tag)
        _, code, text = runner.op(path[0])
        reason = verdict(case, code, text)
        still_open += reason is not None
        log(f"known defect {tag} ({case.name}): "
            + ("open, " + reason if reason else "fixed, output checks"))
    return still_open


def run(args, directory: Path) -> dict:
    from fuzzyasp import cli

    cases = workloads.deck(args.workload, args.seed)
    paths = write_programs(cases, directory)
    warm = workloads.warmup(args.workload, args.seed)
    (warm_path,) = write_programs([warm], directory / "warmup")

    setup, setup_ok = setup_phase(warm, warm_path)
    runner = Runner(cli.main)
    warm_ok = runner.checked(warm, warm_path)[1]  # lazy imports, first-call costs
    runner.attempted = runner.failed = 0

    if not args.trace:
        metrics = end_to_end(runner, cases, paths, setup, args.seconds)
    else:
        ops, rounds = timed_rounds(runner, cases, paths, args.seconds)
        tracer, totals, traced = traced_deck(runner, cases, paths)
        metrics = {
            "setup.import_s": (statistics.median(s[1] for s in setup), "s"),
            "setup.first_op_s": (statistics.median(s[2] for s in setup), "s"),
            **layer_metrics(tracer, totals, len(cases)),
            **algebra_rates(args.seed),
            "trace.overhead": (traced / (sum(op[1] for op in ops) / rounds) - 1.0, "ratio"),
            "known_defects.open": (
                defect_probes(runner, args.seed, directory)
                if args.workload == "loops" else 0, "count"),
        }
        spans_file = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps({
            "ops": [c.name for c in cases],
            "fields": tracing.Span._fields,
            "spans": tracer.spans,
        }))
        log(f"{len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    return {
        "correct": setup_ok and warm_ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "fuzzyasp" / "cli.py").is_file():
        log(f"no fuzzyasp sources under {SRC}; run from a checkout of the repository")
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order over literals decides how soon some solver
        # loops stop, so call counts repeat only under a fixed hash seed.
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        result = run(args, Path(tmp))
    for name, metric in result["metrics"].items():
        log(f"{name:32s} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
