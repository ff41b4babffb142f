"""The test reference semantics: its independence, and classical stable models.

``reference_semantics`` composes the answer-set checks from the public value
algebra so that ``TestVerdictOrder`` compares ``verify_answer_set`` with
code that shares no kernel with it; the guard below keeps it so.  On crisp
programs without classical negation the solver's answer sets must be the
Gelfond-Lifschitz stable models.
"""

import ast
import pathlib

import hypothesis.strategies as st
from hypothesis import given, settings

from fuzzyasp import Status, parse, solve

from reference_semantics import stable_models

REFERENCE = pathlib.Path(__file__).with_name("reference_semantics.py")


def test_reference_uses_no_private_fuzzyasp_name():
    # neither imported (from fuzzyasp.solver import _body) nor reached
    # through an attribute (solver._body)
    private = []
    for node in ast.walk(ast.parse(REFERENCE.read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module, "a relative import"
            if node.module.split(".")[0] == "fuzzyasp":
                private += node.module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            private += [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.Attribute):
            private.append(node.attr)
    assert [name for name in private if name.startswith("_")] == []


def true_atoms(model) -> frozenset:
    """The literals of a crisp answer set whose value is certainly true (b == 1)."""
    return frozenset(str(literal) for literal, value in model.items() if value.b == 1.0)


@st.composite
def crisp_programs(draw):
    """(source, atoms, rules): 2-8 atoms, up to 12 rules, no weights, no ``-``.

    ``rules`` are the ``(head, positive body, negative body)`` triples of
    the source, for :func:`stable_models`.
    """
    n = draw(st.integers(2, 8))
    atoms = [f"p{i}" for i in range(n)]
    atom = st.sampled_from(atoms)
    lines, rules = [], []
    for _ in range(draw(st.integers(0, 12))):
        head = draw(atom)
        body = draw(st.lists(st.tuples(st.booleans(), atom), max_size=3))
        items = [f"not {a}" if negative else a for negative, a in body]
        lines.append(f"{head} <- {', '.join(items)}." if items else f"{head}.")
        pos = tuple(a for negative, a in body if not negative)
        rules.append((head, pos, tuple(a for negative, a in body if negative)))
    return "\n".join(lines), atoms, rules


@settings(max_examples=300, deadline=None)
@given(crisp_programs())
def test_crisp_answer_sets_are_the_stable_models(case):
    source, atoms, rules = case
    report = solve(parse(source))
    for model in report.answer_sets:
        assert all(value.b in (0.0, 1.0) for value in model.values), source
    found = [true_atoms(model) for model in report.answer_sets]
    assert len(set(found)) == len(found), source
    assert set(found) == stable_models(atoms, rules), source


class TestSemanticsUndecided:
    """Programs with classical negation where the solver departs from the
    classical answer sets (``-a`` read as an atom of its own).

    These pin today's output; whether a certainly false body is evidence
    for its head's complement is not decided.
    """

    def test_false_complement_body_supports_the_head(self):
        # -a's only body is certainly false, so -a = ifn(0,0), and through
        # the complement coupling negate(ifn(0,0)) = ifn(1,1) supports a
        report = solve(parse("a <- b. -a <- not a."))
        assert [true_atoms(m) for m in report.answer_sets] == [{"-a"}, {"a"}]
        rules = [("a", ("b",), ()), ("-a", (), ("a",))]
        assert stable_models(["a", "b", "-a"], rules) == {frozenset({"-a"})}

    def test_classically_consistent_program_is_inconsistent(self):
        report = solve(parse("p1. -p0 <- not p1, not p0, not p1. p0 <- -p0, p1, not -p1."))
        assert report.answer_sets == []
        assert [c.status for c in report.candidates] == [Status.INCONSISTENT]
        rules = [
            ("p1", (), ()),
            ("-p0", (), ("p1", "p0", "p1")),
            ("p0", ("-p0", "p1"), ("-p1",)),
        ]
        assert stable_models(["p0", "p1", "-p0", "-p1"], rules) == {frozenset({"p1"})}
