"""The component-ordered fixpoint engine against plain whole-program Jacobi.

The reference below recomputes every head from the previous pass until no
value moves, with naf items frozen; on stratified programs it re-freezes
naf at the values just found until they settle, so each stratum is solved
from all-unknown once the strata below it are final.  It uses only the
connectives and the definition-level checks, not the solver's fixpoint.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from fuzzyasp import (
    TRUE,
    UNKNOWN,
    AggregationTie,
    FuzzyAspError,
    FuzzyTruth,
    Interpretation,
    MonotonicityError,
    Naf,
    OrderViolation,
    conj,
    disj,
    equal,
    ground,
    ifn,
    is_inconsistent,
    is_supported,
    kagg,
    naf,
    negate,
    parse,
    satisfies,
    solve,
    tfn,
    trfn,
)

WEIGHTS = (
    TRUE,
    ifn(0.5, 1),
    ifn(0, 0.5),
    ifn(0.25, 0.75),
    ifn(0.6, 0.6),
    tfn(0.2, 0.5, 0.9),
    trfn(0.1, 0.3, 0.6, 0.8),
    tfn(0.4, 0.4, 1.5),  # truncated: conj is not associative on it
)
EPS = 1e-9
TRUNCATED = WEIGHTS[-1].render()


def jacobi(gp, frozen: dict) -> Interpretation | None:
    """Whole-program Jacobi passes from all-unknown until no value moves.

    "Moves" means by more than the solver's tolerance.  ``frozen`` gives
    the value of every naf item.  None when 5000 passes do not settle;
    raises AggregationTie, and OrderViolation when a product overflows.
    """
    current = dict.fromkeys(gp.literals, UNKNOWN)
    by_head: dict = {}  # head -> its rules in program order, from gp.rules alone
    for rule in gp.rules:
        by_head.setdefault(rule.head, []).append(rule)

    def fold(head):
        acc = None
        for rule in by_head[head]:
            body = None
            for item in rule.body:
                if isinstance(item, FuzzyTruth):
                    v = item
                else:
                    v = frozen[item.literal] if isinstance(item, Naf) else current[item]
                body = v if body is None else conj(body, v)
            body = conj(TRUE if body is None else body, rule.weight)
            acc = body if acc is None else disj(acc, body)
        return acc

    for _ in range(5000):
        new = {}
        for head in by_head:
            new[head] = fold(head)
            if head.complement() in by_head:
                new[head] = kagg(new[head], negate(fold(head.complement())))
        settled = all(equal(current[h], v, EPS) for h, v in new.items())
        current.update(new)
        if settled:
            return Interpretation(current)
    return None


def is_supported_model(model, gp) -> bool:
    return (
        is_inconsistent(model) is None
        and is_supported(model, gp) is None
        and all(satisfies(model, rule) for rule in gp.rules)
    )


def reference_model(gp) -> Interpretation | None:
    """The fixpoint of a stratified program's own reduct.

    naf starts frozen at its value on all-unknown and is re-frozen at the
    model just found until it settles: one more stratum is final per round.
    None when the passes do not settle, which includes a product that
    overflows, or an aggregation ties, which may be on a state the
    iteration only passes through.
    """
    under_naf = {b for rule in gp.rules for b in rule.naf_body}
    frozen = dict.fromkeys(under_naf, naf(UNKNOWN))
    try:
        for _ in range(10):
            model = jacobi(gp, frozen)
            if model is None:
                return None
            settled = {b: naf(model.value(b)) for b in under_naf}
            if settled == frozen:
                return model
            frozen = settled
    except (AggregationTie, OrderViolation):
        return None
    raise AssertionError("naf values did not settle on a stratified program")


@st.composite
def stratified_programs(draw):
    """(source, shape): positive and stratified-naf rules over up to 5 atoms.

    Atoms sit on levels 0-2.  A naf item names an atom of a lower level, so
    no cycle runs through naf.  Without cycles a positive item names an
    atom earlier in (level, index) order; with them any atom up to the
    head's level.  With complements, heads and body literals may be
    classically negated, and a head whose complement has rules is coupled
    to it, which makes a cycle of two.  ``shape`` is "acyclic", "cyclic"
    (positive cycles or coupled pairs) or "coupled-cycles" (both).
    """
    cycles = draw(st.booleans())
    complements = draw(st.booleans())
    n = draw(st.integers(2, 5))
    level = [draw(st.integers(0, 2)) for _ in range(n)]

    def literal(atom):
        sign = "-" if complements and draw(st.booleans()) else ""
        return f"{sign}p{atom}"

    rules = []
    for _ in range(draw(st.integers(1, 7))):
        h = draw(st.integers(0, n - 1))
        body = []
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(("pos", "naf", "const")))
            if kind == "const":
                body.append(draw(st.sampled_from(WEIGHTS)).render())
                continue
            if kind == "naf":
                allowed = [a for a in range(n) if level[a] < level[h]]
            elif cycles:
                allowed = [a for a in range(n) if level[a] <= level[h]]
            else:
                allowed = [a for a in range(n) if (level[a], a) < (level[h], h)]
            if allowed:
                atom = literal(draw(st.sampled_from(allowed)))
                body.append(f"not {atom}" if kind == "naf" else atom)
        weight = draw(st.sampled_from(WEIGHTS)).render()
        head = literal(h)
        rules.append(f"{head} <- {', '.join(body)}. [{weight}]" if body else f"{head}. [{weight}]")
    shape = {(False, False): "acyclic", (True, True): "coupled-cycles"}.get(
        (cycles, complements), "cyclic"
    )
    return "\n".join(rules), shape


def _max_gap(x: Interpretation, y: Interpretation) -> float:
    literals = set(x.assignment) | set(y.assignment)
    return max(
        (abs(p - q) for l in literals for p, q in zip(x.value(l), y.value(l))),
        default=0.0,
    )


@settings(max_examples=300, deadline=None)
@given(stratified_programs())
def test_solve_matches_whole_program_jacobi(case):
    source, shape = case
    gp = ground(parse(source))
    try:
        report = solve(gp)
    except MonotonicityError:
        # a cyclic component lost certainty from one round to the next, as
        # p <- p. [tfn(0.4,0.4,1.5)] does; an acyclic one is evaluated once,
        # from all-unknown, and cannot
        assert shape != "acyclic", source
        return
    got = report.answer_sets
    assert all(is_supported_model(model, gp) for model in got), source
    reference = reference_model(gp)
    if shape == "acyclic":
        # no aggregation, so no tie; every value is computed from the same
        # inputs by the same operations, so the verdict is the same too
        expected = [reference] if is_supported_model(reference, gp) else []
        assert [m.assignment for m in got] == [m.assignment for m in expected], source
        return
    if reference is None or shape == "coupled-cycles" or TRUNCATED in source:
        # The plain iteration tied on a state it only passes through (p0
        # with complement -p0 while p0's body is still unknown) or did not
        # settle (p0 <- p0, p0. [ifn(0.25,0.75)] creeps), or the operator
        # is not monotone on a cycle: aggregation inside it, or a truncated
        # weight (p0 <- p0, p1 with p1 truncated keeps whatever support
        # bound it first sees).  The limit then depends on the evaluation
        # order; the models check above is all that holds.
        return
    # Both stop once a pass moves nothing by more than EPS, at different
    # passes, so the fixpoints agree to about EPS and an answer-set verdict
    # that hinges on EPS may differ; compare the fixpoints themselves.
    (result,) = report.candidates
    assert result.interpretation is not None, source
    assert _max_gap(result.interpretation, reference) <= 1e-6, source


def _with_naf_of_unknown(source: str) -> str:
    """Each rule of ``source`` with ``not zz`` appended to its body."""
    lines = []
    for line in source.splitlines():
        rule, weight = line.split(". [")
        joint = ", " if " <- " in rule else " <- "
        lines.append(f"{rule}{joint}not zz. [{weight}")
    return "\n".join(lines)


def _outcome(source: str):
    """The exception type ``solve`` raises, or its statuses, rounds and values.

    Values are compared on every literal but ``zz``.
    """
    gp = ground(parse(source))
    assert not any(c.naf_inside for c in gp.components), source
    try:
        report = solve(gp)
    except FuzzyAspError as exc:
        return type(exc)
    return (
        [c.status for c in report.candidates],
        report.iterations,
        [
            None if c.interpretation is None
            else {l: v for l, v in c.interpretation.items() if l.atom.predicate != "zz"}
            for c in report.candidates
        ],
    )


@settings(max_examples=300, deadline=None)
@given(stratified_programs())
@example((
    "p2 <- tfn(0.1,0.6,1.2). [tfn(0.1,0.6,1.2)]\np0 <- p0. [tfn(0.1,0.6,1.2)]",
    "cyclic",
))
def test_naf_of_an_unknown_literal_changes_nothing(case):
    # not zz reads ifn(1,1), the unit of the body fold, and adds no naf
    # cycle: every component is still evaluated as a frozen one, so a
    # round that raises a head's uncertainty is an error with it as without
    source, _ = case
    assert _outcome(_with_naf_of_unknown(source)) == _outcome(source), source


@pytest.mark.parametrize("n", [1, 2, 40, 150])
def test_chain_takes_one_round_per_rule(n):
    rules = ["a0."] + [f"a{i} <- a{i - 1}. [ifn(0.99,1)]" for i in range(1, n)]
    report = solve(parse("\n".join(rules)), collect_trace=True)
    assert report.iterations == n
    assert len(report.trace) == n
    (model,) = report.answer_sets
    assert model.assignment == report.trace[-1].assignment


def test_cyclic_component_iterates_until_stable():
    # the fact takes one round; a and b need three: a moves, then b, then
    # a round that changes nothing
    report = solve(parse("f. a <- f. a <- b. b <- a."))
    (model,) = report.answer_sets
    assert all(v == TRUE for v in model.assignment.values())
    assert report.iterations == 1 + 3
