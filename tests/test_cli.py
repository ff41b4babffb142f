import json
import os
import pathlib
import random
import string
import subprocess
import sys

import pytest

from fuzzyasp import DomainError, ParseError, parse, parse_value
from fuzzyasp.cli import MAX_PAREN_DEPTH, main


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

    def test_guess_limit_exit_two(self, capsys, tmp_path):
        # ten independent even loops: 2**20 naf guesses even at depth 1
        path = tmp_path / "loops.fasp"
        path.write_text("".join(f"a{i} <- not b{i}. b{i} <- not a{i}.\n" for i in range(10)))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: 1048576 naf guesses exceed max_guesses=100000")

    def test_guess_depth_reported_for_even_loop(self, capsys, tmp_path):
        path = tmp_path / "choice.fasp"
        path.write_text("a <- not b.\nb <- not a.\n")
        code, out, _ = run(capsys, "solve", str(path), "--json")
        assert code == 0
        assert json.loads(out)["guess_depth"] == 3
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        assert "guess depth: 3\n" in out

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

    def test_solving_leaves_numpy_and_scipy_unloaded(self, tmp_path):
        # the naf-cycle program needs the guess domain from the operator
        # closure, which lives next to the quadrature and Monte Carlo checks
        path = tmp_path / "choice.fasp"
        path.write_text("a <- not b.\nb <- not a.\n")
        child = (
            "import sys\n"
            "from fuzzyasp.cli import main\n"
            f"assert main(['solve', {str(path)!r}, '--json']) == 0\n"
            "print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n"
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

    def test_closure(self, capsys):
        code, out, _ = run(capsys, "oracle", "closure", "ifn(1,1)", "--depth", "1")
        assert code == 0
        assert "size: 2" in out

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
