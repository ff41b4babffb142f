"""The grounder, which compiles instances straight into literal ids, against
the instantiate-then-compile grounder it replaced.

``reference_ground`` is that grounder, kept as the reference: it collects
the universe, checks each rule's safety and builds every instance as a Rule
by substituting the binding into the rule, each in a walk of its own, then
numbers the literals in a dict keyed by Literal.  Equal literals written
differently (``ifn(0.5,0.5)`` and ``trfn(0.5,0.5,0.5,0.5)``, ``0.0`` and
``-0.0``) share one id there, and each rule keeps the constants as written.
"""

import itertools
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from fuzzyasp import (
    Atom,
    FuzzyTruth,
    GroundProgram,
    Literal,
    Naf,
    Program,
    Rule,
    UnsafeRule,
    Var,
    ground,
    parse,
)
from fuzzyasp.program import LIT, NAF, VALUE


def _rule_literals(rule):
    yield rule.head
    for item in rule.body:
        if isinstance(item, Naf):
            yield item.literal
        elif isinstance(item, Literal):
            yield item


def _variables(literal) -> set:
    return {t.name for t in literal.atom.args if isinstance(t, Var)}


def _check_safety(rule):
    positive = set()
    for item in rule.positive_body:
        if isinstance(item, Literal):
            positive |= _variables(item)
    needed = _variables(rule.head)
    for lit in rule.naf_body:
        needed |= _variables(lit)
    for var in sorted(needed - positive):
        raise UnsafeRule(var, rule)


def _substitute_literal(literal, binding):
    args = tuple(binding[t.name] if isinstance(t, Var) else t for t in literal.atom.args)
    return Literal(Atom(literal.atom.predicate, args), literal.negated)


def _substitute(rule, binding):
    body = tuple(
        item
        if isinstance(item, FuzzyTruth)
        else Naf(_substitute_literal(item.literal, binding))
        if isinstance(item, Naf)
        else _substitute_literal(item, binding)
        for item in rule.body
    )
    return Rule(_substitute_literal(rule.head, binding), body, rule.weight, rule.label)


def reference_ground(program: Program) -> SimpleNamespace:
    universe: dict = {}
    for rule in program.rules:
        for literal in _rule_literals(rule):
            for term in literal.atom.args:
                if not isinstance(term, Var):
                    universe.setdefault(term)
    constants = tuple(universe)

    rules: list = []
    for rule in program.rules:
        _check_safety(rule)
        variables = sorted({v for lit in _rule_literals(rule) for v in _variables(lit)})
        if not variables:
            rules.append(rule)
            continue
        for combo in itertools.product(constants, repeat=len(variables)):
            rules.append(_substitute(rule, dict(zip(variables, combo))))

    ids: dict = {}
    compiled = []
    for rule in rules:
        head = ids.setdefault(rule.head, len(ids))
        body = []
        for item in rule.body:
            if isinstance(item, FuzzyTruth):
                body.append((VALUE, item))
            elif isinstance(item, Naf):
                body.append((NAF, ids.setdefault(item.literal, len(ids))))
            else:
                body.append((LIT, ids.setdefault(item, len(ids))))
        compiled.append((head, tuple(body), rule.weight))
    return SimpleNamespace(
        rules=tuple(rules),
        literals=tuple(ids),
        complement=tuple(ids.get(l.complement(), -1) for l in ids),
        compiled=tuple(compiled),
        heads=tuple(dict.fromkeys(head for head, _, _ in compiled)),
        naf_ids=tuple(
            dict.fromkeys(x for _, body, _ in compiled for kind, x in body if kind == NAF)
        ),
    )


# pairs of equal values written differently, and other argument constants
FUZZY_CONSTANTS = (
    "ifn(0.5,0.5)",
    "trfn(0.5,0.5,0.5,0.5)",
    "ifn(0.0,1)",
    "ifn(-0.0,1)",
    "tfn(0,0.5,1)",
    "tfn(-0.0,0.5,1)",
)
WEIGHTS = ("", " [ifn(0.5,1)]", " [tfn(0.4,0.4,1.5)]", " [trfn(-0.0,0,-0.0,1)]")
PREDICATES = (("p", 1), ("q", 2), ("r", 0))


@st.composite
def literals(draw, variables):
    predicate, arity = draw(st.sampled_from(PREDICATES))
    terms = st.sampled_from(("a", "b", *FUZZY_CONSTANTS, *variables))
    args = [draw(terms) for _ in range(arity)]
    negated = "-" if draw(st.booleans()) else ""
    return negated + predicate + (f"({','.join(args)})" if args else "")


@st.composite
def rules(draw):
    variables = draw(st.sampled_from(((), ("X",), ("X", "Y"), ("X", "Y", "Z"))))
    item = st.one_of(
        literals(variables),
        literals(variables).map("not {}".format),
        st.sampled_from(FUZZY_CONSTANTS),
    )
    body = draw(st.lists(item, max_size=3))
    if variables and draw(st.integers(0, 3)):
        # mostly safe: one positive literal holds every variable
        body.insert(0, f"q({variables[0]},{variables[-1]})")
        body.insert(0, f"p({variables[1]})" if len(variables) == 3 else "r")
    label = draw(st.sampled_from(("", "l1: ", "base: ")))
    head = draw(literals(variables))
    text = label + head + (" <- " + ", ".join(body) if body else "")
    return text + "." + draw(st.sampled_from(WEIGHTS))


def assert_same_program(gp: GroundProgram, ref: SimpleNamespace):
    assert gp.literals == ref.literals
    assert [l.render() for l in gp.literals] == [l.render() for l in ref.literals]
    assert gp.table.complement == ref.complement
    assert gp.compiled == ref.compiled
    assert gp.rules == ref.rules
    assert [r.render() for r in gp.rules] == [r.render() for r in ref.rules]
    assert gp.heads == ref.heads
    assert gp.naf_ids == ref.naf_ids


@settings(max_examples=300, deadline=None)
@given(st.lists(rules(), min_size=1, max_size=5))
# one literal read twice under variables
@example(["q(a).", "q(b).", "p(X) <- q(X), q(X)."])
# the closure's recursive rule
@example([
    "edge(a,b).", "edge(b,a).", "edge(b,c).",
    "path(X,Y) <- edge(X,Y).",
    "path(X,Y) <- edge(X,Z), path(Z,Y). [ifn(0.9,1)]",
])
# equal constants written differently in argument positions of variable rules
@example([
    "p(ifn(-0.0,1),a). p(ifn(0.5,0.5),b).",
    "q(X) <- p(ifn(0.0,1),X), p(trfn(0.5,0.5,0.5,0.5),X).",
    "-q(X) <- p(X,a), not q(ifn(-0.0,1)), p(X,ifn(0.0,1)).",
    "r(X,ifn(0.5,0.5)) <- p(X,Y), not r(X,trfn(0.5,0.5,0.5,0.5)).",
])
def test_grounder_matches_the_instantiate_then_compile_reference(texts):
    program = parse("\n".join(texts))
    try:
        ref = reference_ground(program)
    except UnsafeRule as exc:
        with pytest.raises(UnsafeRule) as err:
            ground(program)
        assert str(err.value) == str(exc)
        return
    gp = ground(program)
    assert_same_program(gp, ref)
    # ground rules compile through the same routine, to the same program
    again = GroundProgram(ref.rules)
    assert_same_program(again, ref)
    assert again.components == gp.components
    assert again.frozen_components == gp.frozen_components


@pytest.mark.parametrize(
    "source, count",
    [
        # equal constants written differently share one id; each rule keeps
        # its own spelling, the table that of the literal's first occurrence
        ("p(ifn(0.5,0.5)). p(trfn(0.5,0.5,0.5,0.5)). s <- p(ifn(0.5,0.5)).", 2),
        ("a(ifn(0.0,1)). s <- p(ifn(-0.0,1)). u <- p(ifn(0.0,1)). q(X,X) <- a(X), p(X).", 5),
        ("q(ifn(-0.0,1),a). p(X) <- q(X,Y), not p(ifn(0.0,1)).", 6),
    ],
)
def test_equal_constants_written_differently(source, count):
    program = parse(source)
    ref = reference_ground(program)
    assert len(ref.literals) == count
    assert_same_program(ground(program), ref)
