"""The answer-set definition written with the public value algebra alone.

A rule's body value is the left-to-right ``conj`` fold of its items, then
its weight (:func:`fold`).  A head's supported value is the ``disj`` fold of
its rules' body values in program order, aggregated by ``kagg`` against the
negated fold of its complement's rules when the complement has rules
(:func:`target`).  On these two folds stand the rule-level checks of the
definition (:func:`eval_body`, :func:`satisfies`, :func:`is_supported`,
:func:`reduct`), the compiled-body reference that ``test_kernel`` holds the
solver's float kernel to, and the whole-program Jacobi passes of
``test_engine``.

The module imports no private ``fuzzyasp`` name, so the checks composed from
it share no kernel with ``verify_answer_set``;
``test_reference_semantics`` guards that.  :func:`stable_models` is the
classical definition for the crisp fragment and uses no fuzzyasp at all.
"""

import itertools

from fuzzyasp import (
    TRUE,
    AggregationTie,
    FuzzyTruth,
    GroundProgram,
    Naf,
    Rule,
    conj,
    disj,
    equal,
    ifn,
    kagg,
    naf,
    negate,
    truth_degree,
    uncertainty_degree,
)
from fuzzyasp.program import LIT, NAF
from fuzzyasp.solver import Violation
from fuzzyasp.truthspace import DEFAULT_EPS


def fold(values, weight: FuzzyTruth) -> FuzzyTruth:
    """Left-to-right ``conj`` fold of body values, then the weight.

    An empty body is TRUE.  Order matters: conjunction with truncated
    operands is not associative.
    """
    acc = None
    for v in values:
        acc = v if acc is None else conj(acc, v)
    return conj(TRUE if acc is None else acc, weight)


def contribution(bodies) -> FuzzyTruth:
    """``disj`` fold, in program order, of one head's body values."""
    acc = None
    for v in bodies:
        acc = v if acc is None else disj(acc, v)
    return acc


def target(own, against, eps: float = DEFAULT_EPS) -> FuzzyTruth:
    """The supported value of a head from the body values of its rules.

    ``own`` and ``against`` are iterables of the body values of the head's
    rules and of its complement's, each in program order; ``against`` is
    None when the complement has no rules.  They are read lazily, own first,
    so an error is raised where the solver raises it.  AggregationTie
    propagates.
    """
    value = contribution(own)
    if against is None:
        return value
    return kagg(value, negate(contribution(against)), eps)


def compiled_body(values: list, body: tuple, weight: FuzzyTruth, naf_values) -> FuzzyTruth:
    """:func:`fold` of a compiled body over values indexed by literal id.

    ``(LIT, l)`` reads ``values[l]``; ``(NAF, b)`` reads the point at the
    number ``naf_values[b]`` when they are given and naf of ``values[b]``
    otherwise; ``(VALUE, v)`` is ``v``.
    """

    def value(kind, x):
        if kind == LIT:
            return values[x]
        if kind == NAF:
            return naf(values[x]) if naf_values is None else ifn(naf_values[x], naf_values[x])
        return x

    return fold(itertools.starmap(value, body), weight)


def eval_body(i, rule: Rule, frozen: dict | None = None) -> FuzzyTruth:
    """:func:`fold` of a rule's body under the interpretation ``i``.

    A positive literal reads ``i``, an inline constant is itself, and
    ``not b`` reads ``frozen[b]`` when ``frozen`` is given and naf(I(b))
    otherwise.
    """

    def value(item):
        if isinstance(item, FuzzyTruth):
            return item
        if isinstance(item, Naf):
            return naf(i.value(item.literal)) if frozen is None else frozen[item.literal]
        return i.value(item)

    return fold(map(value, rule.body), rule.weight)


def rules_by_head(gp: GroundProgram) -> dict:
    """Each head of ``gp.rules`` with its rules, both in program order."""
    by_head: dict = {}
    for rule in gp.rules:
        by_head.setdefault(rule.head, []).append(rule)
    return by_head


def head_target(i, by_head: dict, head, eps: float = DEFAULT_EPS, frozen=None) -> FuzzyTruth:
    """:func:`target` of ``head`` under ``i``, its rules' bodies by :func:`eval_body`."""
    against = by_head.get(head.complement())
    return target(
        (eval_body(i, rule, frozen) for rule in by_head[head]),
        None if against is None else (eval_body(i, rule, frozen) for rule in against),
        eps,
    )


def satisfies(i, rule: Rule, eps: float = DEFAULT_EPS) -> bool:
    """Head equals the body value or strictly exceeds it in either order."""
    head, body = i.value(rule.head), eval_body(i, rule)
    return (
        equal(head, body, eps)
        or uncertainty_degree(head) < uncertainty_degree(body) - eps
        or truth_degree(head) > truth_degree(body) + eps
    )


def is_supported(i, gp: GroundProgram, eps: float = DEFAULT_EPS) -> Violation | None:
    """First supportedness violation, heads in program order, or None.

    Condition 1 covers single-rule heads, condition 2 the disjunctive
    combination of several rules, condition 3 the aggregation against a
    complement that also has rules; an aggregation tie violates it.
    """
    by_head = rules_by_head(gp)
    for head, own in by_head.items():
        condition = 3 if head.complement() in by_head else (1 if len(own) == 1 else 2)
        try:
            expected = head_target(i, by_head, head, eps)
        except AggregationTie:
            return Violation(head, 3)
        if not equal(i.value(head), expected, eps):
            return Violation(head, condition, expected, i.value(head))
    return None


def reduct(gp: GroundProgram, i) -> GroundProgram:
    """``gp`` with every naf item ``not b`` frozen at naf(I(b)); the result is positive."""
    return GroundProgram(
        Rule(
            r.head,
            tuple(naf(i.value(x.literal)) if isinstance(x, Naf) else x for x in r.body),
            r.weight,
            r.label,
        )
        for r in gp.rules
    )


def stable_models(atoms, rules) -> set:
    """Gelfond-Lifschitz stable models of a normal program, by trying every atom set.

    ``rules`` are ``(head, positive body, negative body)`` triples over
    ``atoms``.  A set S is stable when the least model of its reduct (drop
    each rule with a negative atom in S, then every negative body) is S.
    Returns the stable models as frozensets.
    """
    atoms = sorted(atoms)
    models = set()
    for size in range(len(atoms) + 1):
        for guess in map(frozenset, itertools.combinations(atoms, size)):
            kept = [(h, set(pos)) for h, pos, neg in rules if not guess.intersection(neg)]
            least: set = set()
            while new := {h for h, pos in kept if pos <= least} - least:
                least |= new
            if least == guess:
                models.add(guess)
    return models
