"""`solve --json` against ``json.dumps(doc, indent=2)`` of the report, byte for byte.

The CLI writes the report's fixed schema itself.  ``reference_doc`` builds
the same report as a document for the standard encoder, so every output
below is compared with what ``json.dumps`` makes of it.
"""

import json
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings

from fuzzyasp import FuzzyAspError, parse
from fuzzyasp.cli import _float_text, _report_text, main
from fuzzyasp.measures import measure
from fuzzyasp.solver import solve
from test_engine import stratified_programs
from test_solver import layered_naf_programs

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAMS = sorted([*ROOT.glob("programs/*.fasp"), *ROOT.glob("tests/fixtures/*.fasp")])


def reference_doc(report, with_trace: bool) -> dict:
    """The report as a document: answer-set literals by name, trace literals by id."""

    def value(v):
        m = measure(v)
        return {**v._asdict(), "truncated": v.truncated, "t": m.t, "k": m.k}

    doc = {
        "answer_sets": [
            {
                name: value(v)
                for name, v in sorted(zip(interp.table.names, interp.values), key=lambda item: item[0])
            }
            for interp in report.answer_sets
        ],
        "candidates": [
            {
                "status": c.status.value,
                "detail": None if c.detail is None else str(c.detail),
            }
            for c in report.candidates
        ],
        "iterations": report.iterations,
        "guess_depth": report.guess_depth,
    }
    if with_trace:
        doc["trace"] = [
            {
                name: [*v, v.truncated]
                for name, v in zip(snapshot.table.names, snapshot.values)
            }
            for snapshot in report.trace
        ]
    return doc


def assert_matches_reference(source: str):
    """The writer's text equals the reference for ``source``, with and without trace."""
    try:
        report = solve(parse(source), collect_trace=True)
    except FuzzyAspError:
        return
    for with_trace in (False, True):
        expected = json.dumps(reference_doc(report, with_trace), indent=2)
        assert _report_text(report, with_trace) == expected


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.name)
def test_program_files(path):
    assert_matches_reference(path.read_text(encoding="utf-8"))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stratified_programs())
def test_stratified_programs(case):
    assert_matches_reference(case[0])


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(layered_naf_programs())
def test_layered_naf_programs(source):
    assert_matches_reference(source)


def test_floats_are_spelled_as_json_does():
    for x in (0.1, 0.0, -0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf):
        assert _float_text(x) == json.dumps(x)


def solve_json(capsys, tmp_path, source: str, *flags) -> tuple[int, str]:
    """Exit code and stdout of ``solve --json`` on ``source``, checked against the reference."""
    path = tmp_path / "program.fasp"
    path.write_text(source, encoding="utf-8")
    code = main(["solve", str(path), "--json", *flags])
    out = capsys.readouterr().out
    doc = reference_doc(solve(parse(source), collect_trace=bool(flags)), bool(flags))
    assert out == json.dumps(doc, indent=2) + "\n"
    return code, out


@pytest.mark.parametrize("flags", [(), ("--trace",)])
class TestEdgeCases:
    def test_non_ascii_name_is_escaped(self, capsys, tmp_path, flags):
        code, out = solve_json(capsys, tmp_path, "pé <- not a.\n", *flags)
        assert code == 0
        assert '"p\\u00e9": ' in out

    @pytest.mark.parametrize("weight, spelled", [
        ("trfn(-1e200,0,1,1e200)", '"k": -Infinity\n'),
        ("trfn(-1e308,0,1,1e308)", '"t": NaN,\n'),
    ])
    def test_non_finite_measure_is_spelled_as_json_does(self, capsys, tmp_path, flags, weight, spelled):
        # the clipped area of a very wide support overflows (ROADMAP item 9)
        code, out = solve_json(capsys, tmp_path, f"a. [{weight}]\n", *flags)
        assert code == 0
        assert spelled in out

    def test_no_answer_set(self, capsys, tmp_path, flags):
        code, out = solve_json(capsys, tmp_path, "a <- not a.\n", *flags)
        assert code == 1
        assert '"answer_sets": [],\n' in out

    def test_inconsistent_detail(self, capsys, tmp_path, flags):
        code, out = solve_json(capsys, tmp_path, "a. -a.\n", *flags)
        assert code == 1
        assert '"detail": "a"\n' in out

    def test_guess_depth(self, capsys, tmp_path, flags):
        code, out = solve_json(capsys, tmp_path, "a <- not b.\nb <- not a.\n", *flags)
        assert code == 0
        assert '"guess_depth": 3' in out

    def test_signed_zeros_keep_their_sign(self, capsys, tmp_path, flags):
        # 0.0 == -0.0, yet they are written differently; b's trfn(0,0,0,1)
        # is even == to a's value as a whole
        for other in ("ifn(0,1)", "trfn(0,0,0,1)"):
            code, out = solve_json(capsys, tmp_path, f"a. [trfn(-0.0,0,-0.0,1)]\nb. [{other}]\n", *flags)
            assert code == 0
            assert '"a": {\n        "a": -0.0,' in out and '"b": {\n        "a": 0.0,' in out
            if flags:
                assert '"a": [\n        -0.0,' in out and '"b": [\n        0.0,' in out

    def test_empty_program(self, capsys, tmp_path, flags):
        code, out = solve_json(capsys, tmp_path, "", *flags)
        assert code == 0
        assert '"answer_sets": [\n    {}\n  ],\n' in out
