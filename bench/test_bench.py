"""Tests of the benchmark itself: the reference checker and the tracer.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fuzzyasp import cli, connectives, solver  # noqa: E402

SMALL = {
    "chain": workloads.chain(12, seed=1),
    "closure": workloads.closure(4, seed=2),
    "loops": workloads.loops(2, seed=3),
    # a crisp loop beside a weighted one hits ROADMAP item 4
    "weighted": workloads.loops(0, (0.8,), seed=4),
}


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """Seed CLI output of each small program, parsed."""
    directory = tmp_path_factory.mktemp("programs")
    docs = {}
    for family, case in SMALL.items():
        (path,) = run.write_programs([case], directory)
        _, code, text = run.Runner(cli.main).op(path)
        assert code == 0
        docs[family] = json.loads(text)
    return docs


@pytest.mark.parametrize("family", sorted(SMALL))
def test_checker_accepts_seed_output(solved, family):
    assert reference.check(SMALL[family], 0, solved[family]) is None


@pytest.mark.parametrize("family", sorted(SMALL))
def test_checker_rejects_perturbed_value(solved, family):
    doc = copy.deepcopy(solved[family])
    answer = doc["answer_sets"][-1]
    literal = sorted(answer)[len(answer) // 2]
    answer[literal]["b"] += 1e-3
    assert reference.check(SMALL[family], 0, doc) is not None


@pytest.mark.parametrize("family", sorted(SMALL))
def test_checker_rejects_missing_answer_set(solved, family):
    doc = copy.deepcopy(solved[family])
    doc["answer_sets"].pop()
    assert reference.check(SMALL[family], 0, doc) is not None


def test_checker_rejects_nonzero_exit(solved):
    assert reference.check(SMALL["chain"], 1, solved["chain"]) is not None


def test_tracer_restores_every_binding():
    originals = (solver.conj, connectives.conj, cli.parse, solver.kmin_supported_model)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solver.conj is not originals[0]
        assert connectives.conj is not originals[1]
    finally:
        tracer.uninstall()
    assert (solver.conj, connectives.conj, cli.parse, solver.kmin_supported_model) == originals


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span("cli.main", 0, 100, None, 0),
        tracing.Span("solver.solve", 10, 90, 0, 0),
        tracing.Span("solver.verify", 20, 50, 1, 0),
        tracing.Span("solver.kmin", 30, 40, 2, 0),
    ]
    assert tracing.self_times(spans) == [20, 50, 20, 10]
    assert tracing.under(spans, "solver.verify") == [False, False, True, True]


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, timeout=180, cwd=cwd,
    )


def test_two_traced_runs_give_identical_counts():
    args = ("--workload", "loops", "--seed", "11", "--seconds", "1", "--trace", "1")
    first, second = (json.loads(_bench(ROOT, *args).stdout.splitlines()[-1]) for _ in "12")
    assert first["correct"] and second["correct"]
    counts = {k for k, m in first["metrics"].items() if m["unit"] in ("count", "bytes")}
    assert "solver.guess_fixpoints" in counts and "truthspace.equal_calls" in counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "chain", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
