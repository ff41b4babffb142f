import json
import logging
import os
import pathlib
import random
import re
import string
import subprocess
import sys
import time

import pytest

from fuzzyasp import DomainError, ParseError, ground, parse, parse_value
from fuzzyasp.cli import EXIT_BROKEN_PIPE, MAX_PAREN_DEPTH, MAX_STEP_DENOMINATOR, main
from fuzzyasp.solver import DEFAULT_MAX_ITER
from fuzzyasp.truthspace import DEFAULT_EPS


ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def golden_cases(command: str, extension: str) -> list[str]:
    """The program and flags of each ``<stem>_<command>[_<flag>].<extension>`` golden file.

    The golden files are those of ``tests/fixtures``, in name order.  A
    flag adds its name to the golden file's: ``crisp_loop3_solve_trace.json``
    is the case ``tests/fixtures/crisp_loop3.fasp --trace``.  The program
    is ``tests/fixtures/<stem>.fasp``, or ``programs/<stem>.fasp`` when the
    fixtures hold none.
    """
    pattern = rf"(.+?)_{command}((?:_[a-z]+)*)\.{extension}"
    cases = []
    for golden in sorted(FIXTURES.iterdir()):
        match = re.fullmatch(pattern, golden.name)
        if match is None:
            continue
        stem, suffix = match.groups()
        program = f"tests/fixtures/{stem}.fasp"
        if not (ROOT / program).exists():
            program = f"programs/{stem}.fasp"
        cases.append(" ".join([program, *(f"--{flag}" for flag in suffix.split("_")[1:])]))
    return cases


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tumor_file(tmp_path, tumor_source):
    path = tmp_path / "tumor.fasp"
    path.write_text(tumor_source)
    return str(path)


class TestSolveCommand:
    def test_tumor(self, capsys, tumor_file):
        code, out, _ = run(capsys, "solve", tumor_file)
        assert code == 0
        assert "tsg_off : trfn(0.6,0.6,1.0,1.0)" in out
        assert "answer set 1:" in out
        assert "(t=" in out and "k=" in out

    def test_empty_program_has_trivial_answer_set(self, capsys, tmp_path):
        path = tmp_path / "empty.fasp"
        path.write_text("% nothing here\n")
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert "answer set 1:" in out

    def test_no_answer_set_exit_one(self, capsys, tmp_path):
        path = tmp_path / "odd.fasp"
        path.write_text("a <- not a.\n")
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 1
        assert "non-convergent" in out

    def test_monotonicity_error_in_a_guess_is_no_error(self, capsys, tmp_path):
        # some naf guesses of this even loop raise p's uncertainty on its
        # positive cycle; those are skipped, the others give answer sets
        path = tmp_path / "widening.fasp"
        path.write_text("a <- not b. b <- not a. p <- p, a. [tfn(0.4,0.4,1.5)]\n")
        code, out, err = run(capsys, "solve", str(path))
        assert code == 0
        assert "answer set 7:" in out
        assert "error" not in err

    def test_overflow_in_an_acyclic_component_is_non_convergent(self, capsys, tmp_path, caplog):
        # conj(a, a) overflows: no value, so no candidate to reject as not-model
        path = tmp_path / "overflow.fasp"
        path.write_text("a. [trfn(-1e300,0,1,1e300)]\nb <- a, a, c.\n")
        with caplog.at_level(logging.DEBUG):
            code, out, err = run(capsys, "solve", str(path))
        assert (code, err) == (1, "")
        assert "candidates: non-convergent\n" in out
        assert caplog.records == []

    def test_stratified_trajectory_that_gains_uncertainty_is_verified_again(self, capsys):
        # The positive part's cyclic component raises p2's uncertainty in a
        # round.  The program has naf but no naf cycle, so that component is
        # evaluated as a frozen one, and the round raises MonotonicityError.
        root = pathlib.Path(__file__).resolve().parent
        path = root / "fixtures" / "non_monotone_stratified.fasp"
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: uncertainty increased at p2: "
            "ifn(0.0,0.75) -> trfn(0.0,0.0,0.75,0.8999999999999999)\n"
        )

    def test_non_monotone_round_beside_naf_is_the_positive_error(self, capsys, tmp_path):
        # not p3 reads ifn(1,1) and adds no naf cycle, so p0's cyclic
        # component is iterated as in the positive program without it
        error = (
            "error: uncertainty increased at p0: "
            "trfn(0.0,0.0,0.216,1.728) -> trfn(0.0,0.0,0.1296,2.0736)\n"
        )
        for body in ("not p3, p0, not p3", "p0"):
            path = tmp_path / "widening.fasp"
            path.write_text(
                "p2 <- tfn(0.1,0.6,1.2). [tfn(0.1,0.6,1.2)]\n"
                f"p0 <- {body}. [tfn(0.1,0.6,1.2)]\n"
            )
            assert run(capsys, "solve", str(path)) == (2, "", error), body

    def test_unsafe_rule_exit_two(self, capsys, tmp_path):
        path = tmp_path / "unsafe.fasp"
        path.write_text("p(X) <- not q(X).\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "unsafe variable X" in err

    def test_parse_error_exit_two_with_location(self, capsys, tmp_path):
        path = tmp_path / "bad.fasp"
        path.write_text("a <-\nb,.\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "line" in err

    @pytest.mark.parametrize("end", [b"\r", b"\n", b"\r\n"])
    def test_every_line_end_reads_alike_in_parse_and_the_cli(self, capsys, tmp_path, end):
        # the CLI reads a file with universal newlines, and parse ends a
        # line and a comment at each of them too
        bad = tmp_path / "bad.fasp"
        bad.write_bytes(b"a." + end + b"b $\n")
        with pytest.raises(ParseError) as exc:
            parse(bad.read_bytes().decode())
        assert str(exc.value) == "unexpected character '$' (line 2, column 3)"
        assert run(capsys, "solve", str(bad)) == (2, "", f"error: {exc.value}\n")
        commented = tmp_path / "comment.fasp"
        commented.write_bytes(b"a. % note" + end + b"b.\n")
        assert parse(commented.read_bytes().decode()).render() == "a.\nb.\n"
        assert run(capsys, "parse-only", str(commented)) == (0, "a.\nb.\n", "")

    def test_division_by_zero_exit_two_without_traceback(self, tmp_path):
        path = tmp_path / "zero.fasp"
        path.write_text("a. [ifn(0,1/0)]\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzyasp.cli", "solve", str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: division by zero (line 1, column 13)\n"

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/path.fasp")
        assert code == 2

    @pytest.mark.parametrize("command", ["solve", "parse-only"])
    def test_non_utf8_file_exit_two_without_traceback(self, tmp_path, command):
        # exit 1 from solve would claim "no answer set"
        path = tmp_path / "utf16.fasp"
        path.write_bytes(b"\xff\xfea.\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzyasp.cli", command, str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {path} is not UTF-8 text: invalid start byte at byte 0\n"

    def test_json_round_trip(self, capsys, tumor_file):
        code, out, _ = run(capsys, "solve", tumor_file, "--json")
        assert code == 0
        doc = json.loads(out)
        # decimal rendering round-trips bit for bit
        assert json.loads(json.dumps(doc)) == doc
        (model,) = doc["answer_sets"]
        tumor = model["tumor"]
        assert tumor["truncated"] is True
        code2, out2, _ = run(capsys, "solve", tumor_file, "--json")
        assert out2 == out
        assert doc["candidates"][0]["status"] == "answer-set"

    def test_trace(self, capsys, tumor_file):
        code, out, _ = run(capsys, "solve", tumor_file, "--trace")
        assert code == 0
        assert "pass 1:" in out

    def test_json_trace_rounds_match_the_text_trace(self, capsys, tmp_path):
        source = "a. b <- a. [ifn(0.5,1)] c <- not b.\n"
        path = tmp_path / "stratified.fasp"
        path.write_text(source)
        code, out, _ = run(capsys, "solve", str(path), "--json", "--trace")
        assert code == 0
        doc = json.loads(out)
        assert doc["iterations"] == len(doc["trace"]) == 3
        text_rounds = []
        code, out, _ = run(capsys, "solve", str(path), "--trace")
        assert code == 0
        for line in out[out.index("pass 1:"):].splitlines():
            if line.startswith("pass "):
                text_rounds.append({})
            else:
                name, value = line.strip().split(" : ")
                text_rounds[-1][name] = parse_value(value)
        assert len(text_rounds) == 3
        for rounds, text in zip(doc["trace"], text_rounds):
            # every literal, in id order, as [a, b, c, d, truncated]
            assert list(rounds) == list(ground(parse(source)).table.names)
            for name, (a, b, c, d, truncated) in rounds.items():
                assert isinstance(truncated, bool)
                assert (a, b, c, d) == tuple(text[name])

    def test_one_process_parses_calls_independently(self, capsys):
        # the parser is built once; no option of one call leaks into the next
        root = pathlib.Path(__file__).resolve().parent.parent
        program = str(root / "tests" / "fixtures" / "weighted_loop.fasp")
        code, out, _ = run(capsys, "solve", program, "--trace")
        assert code == 0
        assert "pass 1:" in out
        with pytest.raises(SystemExit) as exc:
            main(["solve", program, "--tol", "-1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "argument --tol: must be finite and non-negative" in captured.err
        code, out, _ = run(capsys, "solve", program, "--json")
        assert code == 0
        assert out == (root / "tests" / "fixtures" / "weighted_loop_solve.json").read_text()
        assert "trace" not in json.loads(out)

    def test_guess_limit_exit_two(self, capsys, tmp_path):
        # seventeen independent even loops: one naf literal guessed per
        # loop over the two crisp values, 2**17 guesses
        path = tmp_path / "loops.fasp"
        path.write_text("".join(f"a{i} <- not b{i}. b{i} <- not a{i}.\n" for i in range(17)))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: 131072 naf guesses exceed max_guesses=100000")

    def test_guess_depth_reported_for_even_loop(self, capsys, tmp_path):
        path = tmp_path / "choice.fasp"
        path.write_text("a <- not b.\nb <- not a.\n")
        code, out, _ = run(capsys, "solve", str(path), "--json")
        assert code == 0
        assert json.loads(out)["guess_depth"] == 3
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert "guess depth: 3\n" in out

    def test_help_shows_the_solver_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal
        assert f"--max-iter MAX_ITER rounds allowed per cyclic component (default {DEFAULT_MAX_ITER})" in out
        assert f"--tol TOL comparison tolerance (default {DEFAULT_EPS})" in out

    def test_tol_reaches_the_solver(self, capsys):
        # at tolerance 0 the guess a = 1 is an acyclic contradiction at c
        path = str(pathlib.Path(__file__).resolve().parent / "fixtures" / "acyclic_contradiction.fasp")
        code, out, _ = run(capsys, "solve", path, "--tol", "0")
        assert code == 0
        assert "candidates: non-convergent, answer-set\n" in out
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        assert "candidates: non-convergent, answer-set, answer-set\n" in out

    def test_max_iter_reaches_the_solver(self, capsys):
        # 20 rounds leave the reduct's fixpoint unfinished, 50 do not; the
        # default is enough for the bounds to pin the answer set
        path = str(pathlib.Path(__file__).resolve().parent / "fixtures" / "reduct_non_convergent.fasp")
        code, out, _ = run(capsys, "solve", path, "--max-iter", "20")
        assert code == 1
        assert "candidates: non-convergent\n" in out
        code, out, _ = run(capsys, "solve", path, "--max-iter", "50")
        assert code == 0
        assert "candidates: answer-set\n" in out
        assert "guess depth: 2\n" in out

    def test_guess_depth_absent_without_guessing(self, capsys, tumor_file):
        code, out, _ = run(capsys, "solve", tumor_file, "--json")
        assert json.loads(out)["guess_depth"] is None
        code, out, _ = run(capsys, "solve", tumor_file)
        assert "guess depth" not in out

    def test_json_output_independent_of_hash_seed(self, tmp_path):
        # literal ids, not set or hash order, decide every iteration order
        root = pathlib.Path(__file__).resolve().parent.parent
        nodes = [f"v{i}" for i in range(6)]
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (1, 4)]
        closure = tmp_path / "closure.fasp"
        closure.write_text(
            "".join(f"node({v}).\n" for v in nodes)
            + "".join(f"edge({nodes[x]},{nodes[y]}).\n" for x, y in edges)
            + "blocked(v0,v3).\n"
            "path(X,Y) <- edge(X,Y).\n"
            "path(X,Y) <- edge(X,Z), path(Z,Y). [ifn(0.9,1)]\n"
            "reach(X,Y) <- path(X,Y), not blocked(X,Y). [ifn(0.8,1)]\n"
        )
        paths = [*sorted((root / "programs").glob("*.fasp")), closure]
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys\n"
                 "from fuzzyasp.cli import main\n"
                 "for path in sys.argv[1:]:\n"
                 "    main(['solve', path, '--json'])\n",
                 *map(str, paths)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count('"answer_sets"') == len(paths)

    @pytest.mark.parametrize("program", golden_cases("solve", "json"))
    def test_json_output_matches_golden_file(self, capsys, program):
        # pins the answer-set order and every printed value, byte for byte
        program, *flags = program.split()
        suffix = "".join(f"_{flag.lstrip('-')}" for flag in flags)
        golden = FIXTURES / f"{pathlib.Path(program).stem}_solve{suffix}.json"
        code, out, _ = run(capsys, "solve", str(ROOT / program), "--json", *flags)
        # a run without an answer set exits 1
        assert code == (0 if json.loads(golden.read_text())["answer_sets"] else 1)
        assert out == golden.read_text()

    @pytest.mark.parametrize("program", golden_cases("solve", "txt"))
    def test_text_output_matches_golden_file(self, capsys, program):
        # repeated_values: the closure repeats a handful of values, and a
        # and b hold values that are == yet differ in the sign of a zero
        program, *flags = program.split()
        suffix = "".join(f"_{flag.lstrip('-')}" for flag in flags)
        golden = FIXTURES / f"{pathlib.Path(program).stem}_solve{suffix}.txt"
        code, out, _ = run(capsys, "solve", str(ROOT / program), *flags)
        assert code == 0
        assert out == golden.read_text()

    def test_solving_leaves_numpy_and_scipy_unloaded(self, tmp_path):
        # the naf-cycle program needs the guess domain from the operator
        # closure, which lives next to the quadrature and Monte Carlo checks;
        # the exact-rational table of the ``table`` command is not loaded either
        path = tmp_path / "choice.fasp"
        path.write_text("a <- not b.\nb <- not a.\n")
        unloaded = ["numpy", "scipy", "fuzzyasp.table", "fractions"]
        child = (
            "import sys\n"
            "from fuzzyasp.cli import main\n"
            f"assert main(['solve', {str(path)!r}, '--json']) == 0\n"
            f"print(sorted(set({unloaded!r}) & set(sys.modules)))\n"
        )
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestParseOnly:
    def test_emits_ground_program(self, capsys, tmp_path):
        path = tmp_path / "vars.fasp"
        path.write_text("q(a). q(b). p(X) <- q(X), not r(X).\n")
        code, out, _ = run(capsys, "parse-only", str(path))
        assert code == 0
        assert "p(a) <- q(a), not r(a)." in out
        assert "p(b) <- q(b), not r(b)." in out

    def test_same_syntax_reparses(self, capsys, tmp_path, tumor_source):
        path = tmp_path / "t.fasp"
        path.write_text(tumor_source)
        code, out, _ = run(capsys, "parse-only", str(path))
        assert code == 0
        path2 = tmp_path / "t2.fasp"
        path2.write_text(out)
        code2, out2, _ = run(capsys, "parse-only", str(path2))
        assert code2 == 0 and out2 == out

    @pytest.mark.parametrize("program", golden_cases("parse_only", "txt"))
    def test_output_matches_golden_file(self, capsys, program):
        # pins the ground rule order and every rendered rule, byte for byte:
        # a constant keeps its own spelling (tfn(0.0,...) beside tfn(-0.0,...))
        golden = FIXTURES / f"{pathlib.Path(program).stem}_parse_only.txt"
        code, out, _ = run(capsys, "parse-only", str(ROOT / program))
        assert code == 0
        assert out == golden.read_text()


class TestEval:
    def test_conjunction(self, capsys):
        code, out, _ = run(capsys, "eval", "ifn(0.5,1) & ifn(0.5,1)")
        assert code == 0
        assert out.startswith("ifn(0.25,1.0)")

    def test_negation_and_failure(self, capsys):
        code, out, _ = run(capsys, "eval", "!tfn(0.2,0.6,0.7)")
        assert code == 0 and "tfn(0.3" in out.replace("0.30000000000000004", "0.3")
        code, out, _ = run(capsys, "eval", "not ifn(0,1)")
        assert code == 0 and out.startswith("ifn(1.0,1.0)")

    def test_aggregation_and_parens(self, capsys):
        code, out, _ = run(capsys, "eval", "(ifn(0.6,1) agg ifn(0,1)) | ifn(0,0)")
        assert code == 0
        assert out.startswith("ifn(0.6,1.0)")

    def test_aggregation_tie_exit_two(self, capsys):
        code, _, err = run(capsys, "eval", "ifn(1,1) agg ifn(0,0)")
        assert code == 2
        assert "equally certain" in err

    def test_malformed_expression(self, capsys):
        code, _, err = run(capsys, "eval", "ifn(0.5,1) &")
        assert code == 2

    def test_non_finite_result_exit_two_without_traceback(self):
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzyasp.cli", "eval",
             "trfn(-1e308,0,1,1e308) & trfn(-1e308,0,1,1e308)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: the result trfn(-inf,0.0,1.0,inf) has a non-finite parameter\n"
        )

    @pytest.mark.parametrize(
        "expression",
        [
            "trfn(-1e308,0,1,1e308) | trfn(-1e308,0,1,1e308)",
            "(trfn(-1e308,0,1,1e308) & trfn(-1e308,0,1,1e308)) agg ifn(1,1)",
        ],
    )
    def test_overflow_anywhere_is_an_error(self, capsys, expression):
        assert run(capsys, "eval", expression) == (
            2, "", "error: the result trfn(-inf,0.0,1.0,inf) has a non-finite parameter\n"
        )

    def test_long_prefix_chain(self, capsys):
        code, out, _ = run(capsys, "eval", "!" * 3000 + "ifn(0,1)")
        assert code == 0 and out.startswith("ifn(0.0,1.0)")
        code, out, _ = run(capsys, "eval", "!" * 3001 + "ifn(0.25,1)")
        assert code == 0 and out.startswith("ifn(0.0,0.75)")
        code, out, _ = run(capsys, "eval", "not ! " * 1500 + "ifn(0.2,1)")
        assert code == 0 and out.startswith("ifn(1.0,1.0)")

    def test_deep_parentheses_exit_two_with_column(self, capsys):
        text = "(" * 1000 + "ifn(0,1)" + ")" * 1000
        code, out, err = run(capsys, "eval", text)
        assert (code, out) == (2, "")
        assert err == (
            f"error: parentheses nested deeper than {MAX_PAREN_DEPTH} "
            f"(line 1, column {MAX_PAREN_DEPTH + 1})\n"
        )
        depth = MAX_PAREN_DEPTH
        code, out, _ = run(capsys, "eval", "(" * depth + "ifn(0,1)" + ")" * depth)
        assert code == 0 and out.startswith("ifn(0.0,1.0)")


class TestOneGrammar:
    @pytest.mark.parametrize(
        "text, error",
        [
            ("tfn(0,1/3,1)", None),
            ("ifn(.25,5e-1)", None),
            ("ifn(0,1/1e1)", None),
            ("trfn(-2,0.3,0.9,3)", None),
            ("ifn (0 , 1)", None),
            ("ifn(0,1/0)", ParseError),
            ("tfn(0,1,1e400)", DomainError),
            ("ifn(0.3)", ParseError),
            ("foo(1,2)", ParseError),
            ("ifn(0.7,0.3)", DomainError),
        ],
    )
    def test_every_path_reads_a_value_alike(self, capsys, text, error):
        """parse_value, a rule weight, measure and eval agree on each text."""
        if error is None:
            value = parse_value(text)
            assert parse(f"a. [{text}]").rules[0].weight == value
            for command in ("measure", "eval"):
                code, out, _ = run(capsys, command, text)
                assert code == 0 and out.startswith(f"{value.render()} (t=")
            return
        with pytest.raises(error) as direct:
            parse_value(text)
        with pytest.raises(error) as weight:
            parse(f"a. [{text}]")
        assert type(direct.value) is type(weight.value) is error
        assert weight.value.column == direct.value.column + len("a. [")
        for command in ("measure", "eval"):
            assert run(capsys, command, text) == (2, "", f"error: {direct.value}\n")


class TestMeasureAndOrder:
    def test_measure(self, capsys):
        code, out, _ = run(capsys, "measure", "tfn(0,1/3,1)", "ifn(0,1)")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("tfn(0.0,0.3333333333333333,1.0) (t=0.444")
        assert "(t=0.5, k=1.0)" in lines[1]

    def test_order_example(self, capsys):
        code, out, _ = run(capsys, "order", "ifn(0.3,0.7)", "trfn(0.3,0.3,0.5,0.7)")
        assert code == 0
        assert "truth: y <=_t x" in out
        assert "knowledge: x <=_k y" in out

    def test_order_self(self, capsys):
        code, out, _ = run(capsys, "order", "tfn(0,0.5,1)", "tfn(0,0.5,1)")
        assert code == 0
        assert "x =_t y" in out and "x =_k y" in out

    def test_order_knowledge_direction(self, capsys):
        code, out, _ = run(capsys, "order", "ifn(0,1)", "tfn(0,0.5,1)")
        assert code == 0
        assert "x <=_k y" in out

    def test_order_malformed_literal(self, capsys):
        code, _, err = run(capsys, "order", "ifn(0.3)", "ifn(0,1)")
        assert code == 2


class TestTable:
    def test_step_one_third_contains_reference_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--step", "1/3")
        assert code == 0
        assert "ifn(0,1)" in out
        assert "tfn(0,1/3,1)" in out and "4/9" in out
        assert "trfn(0,1/3,1,1)" in out and "26/45" in out
        assert "table-ref-mismatch" not in out

    def test_step_one(self, capsys):
        code, out, _ = run(capsys, "table", "--step", "1/1")
        assert code == 0
        lines = [l for l in out.strip().splitlines()[1:] if l.strip()]
        # 3 intervals + 2 triangles + 0 proper trapezoids
        assert len(lines) == 5

    def test_malformed_step(self, capsys):
        code, _, err = run(capsys, "table", "--step", "0.25")
        assert code == 2

    @pytest.mark.parametrize(
        "step",
        [f"1/{MAX_STEP_DENOMINATOR + 1}", "1/100000000000000000000", "1/" + "9" * 5000, "1/0"],
    )
    def test_step_out_of_range_exits_before_building_rows(self, capsys, step):
        start = time.perf_counter()
        code, out, err = run(capsys, "table", "--step", step)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            f"error: step must be 1/n with integer n from 1 to {MAX_STEP_DENOMINATOR},"
            f" got {step!r}\n"
        )


class TestOracleCommand:
    def test_mean(self, capsys):
        code, out, _ = run(capsys, "oracle", "mean", "ifn(0.3,0.7)")
        assert code == 0
        assert abs(float(out.strip()) - 0.5) < 1e-8

    def test_prob(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "prob", "ifn(0.3,0.7)", "trfn(0.3,0.5,0.7,0.7)",
            "--samples", "20000", "--seed", "11",
        )
        assert code == 0
        assert "estimate=0.6" in out
        assert "stderr=" in out

    @pytest.mark.parametrize(
        "module, argv",
        [
            ("scipy.integrate", ["mean", "tfn(0,0.5,1)"]),
            ("numpy", ["prob", "ifn(0.3,0.7)", "ifn(0,1)", "--samples", "20000"]),
        ],
    )
    def test_without_the_oracle_extra_one_error_line(self, capsys, monkeypatch, module, argv):
        # a module that is None in sys.modules fails to import, as an
        # uninstalled one does
        monkeypatch.setitem(sys.modules, module, None)
        code, out, err = run(capsys, "oracle", *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: oracle {argv[0]} needs numpy and scipy: pip install 'fuzzyasp[oracle]'\n"
        )

    def test_closure(self, capsys):
        code, out, _ = run(capsys, "oracle", "closure", "ifn(1,1)", "--depth", "1")
        assert code == 0
        assert "size: 2" in out

    @pytest.mark.parametrize(
        "golden, argv",
        [
            # the seeds of a weighted loop, in the solver's order
            ("oracle_closure_loop.txt", ["ifn(1,1)", "ifn(0,1)", "ifn(0.6,0.6)", "--depth", "3"]),
            # restricted, truncated and -0.0 parameters
            ("oracle_closure_edges.txt",
             ["ifn(0.6,0.6)", "tfn(0.4,0.4,1.5)", "trfn(-0.0,0,-0.0,1)", "ifn(0,1)", "--depth", "2"]),
        ],
    )
    def test_closure_matches_golden_file(self, capsys, golden, argv):
        # render writes each parameter's float repr, so this pins the
        # values, their order and their bits
        root = pathlib.Path(__file__).resolve().parent.parent
        code, out, _ = run(capsys, "oracle", "closure", *argv)
        assert code == 0
        assert out == (root / "tests" / "fixtures" / golden).read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ["closure", "ifn(1,1)", "--depth", "5"],
            ["prob", "ifn(0,1)", "ifn(0,1)", "--samples", "100"],
            ["prob", "ifn(0,1)", "ifn(0,1)", "--seed", "-1"],
            ["mean", "ifn(0.5,0.5)"],
        ],
    )
    def test_bad_arguments_exit_two(self, capsys, argv):
        code, out, err = run(capsys, "oracle", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--depth", "-1"], "depth must be non-negative"),
            (["--cap", "-5"], "the cap must be at least 1"),
            (["--cap", "0"], "the cap must be at least 1"),
        ],
    )
    def test_closure_range_errors_name_the_argument(self, capsys, option, message):
        # not the seed alone, nor "closure exceeded -5 values"
        code, out, err = run(capsys, "oracle", "closure", "ifn(0.5,1)", *option)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    def test_closed_stdout_exits_quietly(self, capsys, monkeypatch):
        # a reader that stops early (| head -1) gets no error: line
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = main(["oracle", "closure", "ifn(1,1)", "ifn(0,1)", "ifn(0.6,0.6)", "--depth", "3"])
        assert (code, capsys.readouterr().err) == (EXIT_BROKEN_PIPE, "")

    def test_closed_pipe_exits_quietly_from_the_console(self):
        # the pipe closes before the first write, and nothing fails at exit
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fuzzyasp.cli", "oracle", "closure", "ifn(1,1)"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": src},
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "{path}", "--max-iter", "0"], "argument --max-iter: must be at least 1"),
        (["solve", "{path}", "--max-iter", "-3"], "argument --max-iter: must be at least 1"),
        (["solve", "{path}", "--tol", "-1"], "argument --tol: must be finite and non-negative"),
        (["solve", "{path}", "--tol", "nan"], "argument --tol: must be finite and non-negative"),
        (["solve", "{path}", "--tol", "inf"], "argument --tol: must be finite and non-negative"),
        (["eval", "ifn(0,1)", "--tol=-inf"], "argument --tol: must be finite and non-negative"),
        (["order", "ifn(0,1)", "ifn(0,1)", "--tol", "nan"],
         "argument --tol: must be finite and non-negative"),
    ],
)
def test_out_of_range_options_exit_two_naming_the_argument(capsys, tmp_path, argv, message):
    path = tmp_path / "loop.fasp"
    path.write_text("a <- a. [ifn(0.5,1)]\n")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(path=path) for arg in argv])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert message in captured.err


class TestParserFuzz:
    def test_malformed_inputs_exit_two(self, capsys, tmp_path):
        bad = [
            "a <- b", "a b.", "((", "p(. ", "a <- not.", "-. ", "[ifn(0,1)]",
            "a. [ifn(2,1)]", "a. [tfn(0.9,0.1,1)]", "p(f(X)) <- q.", "1234",
        ]
        for n, text in enumerate(bad):
            path = tmp_path / f"bad{n}.fasp"
            path.write_text(text)
            code, _, err = run(capsys, "solve", str(path))
            assert code == 2, f"{text!r} gave {code}"
            assert err.startswith("error:")

    def test_random_soup_never_crashes(self, capsys, tmp_path):
        rng = random.Random(99)
        alphabet = string.ascii_letters + string.digits + " .,()<-[]%:-/\n"
        for n in range(60):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 60)))
            path = tmp_path / f"soup{n}.fasp"
            path.write_text(text)
            code, _, _ = run(capsys, "solve", str(path))
            assert code in (0, 1, 2)
