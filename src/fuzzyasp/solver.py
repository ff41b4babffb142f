"""Declarative semantics and answer-set computation.

An interpretation maps every ground literal to a truth value, defaulting to
the unknown state ifn(0,1).  A rule fires its head to body-fold AND weight;
heads with several rules combine by disjunction in program order; when both
a literal and its complement have rules the more certain side wins via
knowledge aggregation.  Answer sets are interpretations that reproduce
themselves as the fixpoint of their own reduct.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from .connectives import conj, disj, kagg, naf, negate
from .errors import (
    AggregationTie,
    ClosureTooLarge,
    GuessLimitExceeded,
    Inconsistent,
    MonotonicityError,
    NonConvergent,
)
from .measures import truth_degree, uncertainty_degree
from .program import (
    LIT,
    NAF,
    VALUE,
    FuzzyTruth,
    GroundProgram,
    Literal,
    LiteralTable,
    Naf,
    Program,
    Rule,
    ground,
)
from .truthspace import DEFAULT_EPS, TRUE, UNKNOWN, equal

DEFAULT_MAX_ITER = 10_000


class Interpretation:
    """Values of ground literals; every other literal is unknown.

    Holds a :class:`~fuzzyasp.program.LiteralTable` and ``values``, a list
    indexed by its ids.  The solver's interpretations share their ground
    program's table and are compared and checked id by id;
    ``Interpretation(mapping)`` numbers the mapping's own literals.
    ``Literal`` keys come back only through :meth:`value`,
    :attr:`assignment`, :meth:`items` and the text form.
    """

    __slots__ = ("table", "values")

    def __init__(self, assignment=None):
        assignment = dict(assignment or {})
        self.table = LiteralTable(assignment)
        self.values = list(assignment.values())

    @classmethod
    def of(cls, table: LiteralTable, values: list) -> Interpretation:
        """The interpretation giving ``values[i]`` to ``table.literals[i]``."""
        self = cls.__new__(cls)
        self.table, self.values = table, values
        return self

    def value(self, literal: Literal) -> FuzzyTruth:
        i = self.table.ids.get(literal)
        return UNKNOWN if i is None else self.values[i]

    @property
    def assignment(self) -> dict:
        """A new dict from each literal of the table to its value."""
        return dict(zip(self.table.literals, self.values))

    def items(self):
        return self.assignment.items()

    def __repr__(self):
        inner = ", ".join(f"{n}: {v}" for n, v in zip(self.table.names, self.values))
        return "{" + inner + "}"


def interpretations_equal(
    x: Interpretation, y: Interpretation, eps: float = DEFAULT_EPS
) -> bool:
    """Per-literal equality within ``eps`` over the union of assigned literals.

    Literals are compared in id order, ``x``'s table before ``y``'s.
    """
    if x.table is y.table:
        return all(equal(p, q, eps) for p, q in zip(x.values, y.values))
    literals = dict.fromkeys(x.table.literals)
    literals.update(dict.fromkeys(y.table.literals))
    return all(equal(x.value(l), y.value(l), eps) for l in literals)


def is_inconsistent(i: Interpretation, eps: float = DEFAULT_EPS):
    """First atom whose two polarities are equally certain yet contradictory.

    Returns the offending atom, or None.
    """
    return _contradiction(i.table, i.values, range(len(i.values)), eps)


def _contradiction(table: LiteralTable, values: list, ids, eps: float):
    """:func:`is_inconsistent` over the atoms of the literals ``ids`` only."""
    complement = table.complement
    seen = set()
    for i in ids:
        c = complement[i]
        if c < 0 or c in seen:
            continue
        seen.add(i)
        vp, vn = values[i], values[c]
        if table.literals[i].negated:
            vp, vn = vn, vp
        if abs(uncertainty_degree(vp) - uncertainty_degree(vn)) <= eps and (
            abs(truth_degree(vp) - (1.0 - truth_degree(vn))) > eps
        ):
            return table.literals[i].atom
    return None


def eval_body(i: Interpretation, rule: Rule) -> FuzzyTruth:
    """Left-to-right conjunction fold of the body, then the rule weight.

    Positive literals read their value from ``i``, inline constants pass
    through, naf literals contribute naf(I(b)).  Order matters: conjunction
    with truncated operands is not associative.
    """
    acc = None
    for item in rule.body:
        if isinstance(item, FuzzyTruth):
            v = item
        elif isinstance(item, Naf):
            v = naf(i.value(item.literal))
        else:
            v = i.value(item)
        acc = v if acc is None else conj(acc, v)
    return conj(TRUE if acc is None else acc, rule.weight)


def _body(values: list, body: tuple, weight: FuzzyTruth, naf_values: list | None) -> FuzzyTruth:
    """:func:`eval_body` of a compiled body; ``naf_values`` overrides its naf items."""
    acc = None
    for kind, x in body:
        if kind == LIT:
            v = values[x]
        elif kind == NAF:
            v = naf(values[x]) if naf_values is None else naf_values[x]
        else:
            v = x
        acc = v if acc is None else conj(acc, v)
    return conj(TRUE if acc is None else acc, weight)


def satisfies(i: Interpretation, rule: Rule, eps: float = DEFAULT_EPS) -> bool:
    """Head equals the body value or strictly exceeds it in either order."""
    return _satisfied(i.value(rule.head), eval_body(i, rule), eps)


def _satisfied(head: FuzzyTruth, body: FuzzyTruth, eps: float) -> bool:
    if equal(head, body, eps):
        return True
    if uncertainty_degree(head) < uncertainty_degree(body) - eps:
        return True
    return truth_degree(head) > truth_degree(body) + eps


def _contribution(values: list, rules: tuple, naf_values) -> FuzzyTruth:
    """Disjunction fold (program order) of the body values of one head's rules."""
    acc = None
    for body, weight in rules:
        v = _body(values, body, weight, naf_values)
        acc = v if acc is None else disj(acc, v)
    return acc


def _target(values: list, own: tuple, against: tuple, naf_values, eps: float) -> FuzzyTruth:
    """The supported value for a head literal with compiled rules ``own``.

    The complement's combined evidence (its rules, ``against``) is
    aggregated in only when the complement has rules of its own;
    AggregationTie propagates.
    """
    value = _contribution(values, own, naf_values)
    if against:
        return kagg(value, negate(_contribution(values, against, naf_values)), eps)
    return value


@dataclass(frozen=True)
class Violation:
    """One failed supportedness condition."""

    literal: Literal
    condition: int
    expected: FuzzyTruth | None = None
    actual: FuzzyTruth | None = None

    def __repr__(self):
        if self.expected is None:
            return f"condition {self.condition} at {self.literal}: aggregation tie"
        return (
            f"condition {self.condition} at {self.literal}: "
            f"expected {self.expected}, got {self.actual}"
        )


def is_supported(
    i: Interpretation, gp: GroundProgram, eps: float = DEFAULT_EPS
) -> Violation | None:
    """First supportedness violation, or None.

    Condition 1 covers single-rule heads, condition 2 the disjunctive
    combination of several rules, condition 3 the aggregation against a
    complement that also has rules.
    """
    return _unsupported(gp, _values_on(gp, i), eps)


def _values_on(gp: GroundProgram, i: Interpretation) -> list:
    """``i``'s values indexed by ``gp``'s literal ids."""
    if i.table is gp.table:
        return i.values
    return [i.value(literal) for literal in gp.literals]


def _unsupported(gp: GroundProgram, values: list, eps: float) -> Violation | None:
    complement, rules_of = gp.table.complement, gp.rules_of
    for head in gp.heads:
        own = rules_of[head]
        against = rules_of[complement[head]] if complement[head] >= 0 else ()
        condition = 3 if against else (1 if len(own) == 1 else 2)
        literal = gp.literals[head]
        try:
            expected = _target(values, own, against, None, eps)
        except AggregationTie:
            return Violation(literal, 3)
        if not equal(values[head], expected, eps):
            return Violation(literal, condition, expected, values[head])
    return None


def reduct(gp: GroundProgram, i: Interpretation) -> GroundProgram:
    """Freeze every naf literal at naf(I(b)); the result is positive.

    The solver itself never builds reducts: it evaluates ``gp`` with the
    frozen naf values passed alongside (see :func:`kmin_supported_model`).
    """
    rules = tuple(
        Rule(
            r.head,
            tuple(
                naf(i.value(item.literal)) if isinstance(item, Naf) else item
                for item in r.body
            ),
            r.weight,
            r.label,
        )
        for r in gp.rules
    )
    return GroundProgram(rules)


def _fixpoint(
    gp: GroundProgram,
    eps: float,
    max_iter: int,
    *,
    naf_values: list | None = None,
    evolving: bool = False,
    trace: list | None = None,
    report: SolveReport | None = None,
) -> Interpretation:
    """Fixpoint of the supported-value operator, one component at a time.

    Components come dependencies first, so every literal a component reads
    from outside itself is already final when it is evaluated.  An acyclic
    component is evaluated once; a cyclic one is iterated Jacobi-style over
    its own heads until they are stable within ``eps``, for at most
    ``max_iter`` rounds (NonConvergent past that).  Every evaluation of a
    component is one round: it counts in ``report.iterations`` and appends
    one snapshot of the whole interpretation, as a dict, to ``trace``.

    With ``evolving`` each naf item reads the current interpretation, as in
    the operator trajectory of a program with naf; a cyclic component that
    revisits an earlier state is non-convergent.  Otherwise naf items take
    their value from the override list ``naf_values`` (indexed by literal
    id; ``gp.frozen_components`` order, in which naf is no dependency), no
    round of a cyclic component may raise a head's uncertainty
    (MonotonicityError; an acyclic one starts from unknown, the least
    certain value, and has one round), and a component whose fixpoint holds
    a contradictory atom raises Inconsistent.  An aggregation tie raises
    Inconsistent in both modes.

    Every literal of ``gp``, naf-only ones included, starts unknown, so all
    fixpoints of one program list the same literals.
    """
    literals = gp.literals
    values = [UNKNOWN] * len(literals)
    for heads, cyclic, plan in gp.components if evolving else gp.frozen_components:
        # states of a cyclic trajectory so far; every head starts unknown
        seen = {UNKNOWN.params * len(heads)} if evolving and cyclic else None
        for rounds in range(1, (max_iter if cyclic else 1) + 1):
            new = []
            for head, own, against in plan:
                try:
                    new.append(_target(values, own, against, naf_values, eps))
                except AggregationTie as exc:
                    raise Inconsistent(literals[head].atom) from exc
            previous = [values[h] for h in heads] if cyclic else None
            for head, value in zip(heads, new):
                values[head] = value
            if report is not None:
                report.iterations += 1
            if trace is not None:
                trace.append(dict(zip(literals, values)))
            if not cyclic:
                break  # its first round started from unknown: nothing to compare
            if not evolving:
                for head, old, value in zip(heads, previous, new):
                    if uncertainty_degree(value) > uncertainty_degree(old) + eps:
                        raise MonotonicityError(
                            f"uncertainty increased at {literals[head]}: {old} -> {value}"
                        )
            if all(equal(old, value, eps) for old, value in zip(previous, new)):
                break
            if seen is not None:
                state = tuple(round(p, 12) for v in new for p in v.params)
                if state in seen:
                    raise NonConvergent(rounds)
                seen.add(state)
        else:
            raise NonConvergent(max_iter)
        if not evolving:
            atom = _contradiction(gp.table, values, heads, eps)
            if atom is not None:
                raise Inconsistent(atom)
    return Interpretation.of(gp.table, values)


def kmin_supported_model(
    gp: GroundProgram,
    *,
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
    trace: list | None = None,
    naf_values: list | None = None,
) -> Interpretation:
    """Fixpoint of the supported-value operator on a positive program.

    Starts from the all-unknown interpretation; every round must leave each
    literal at least as certain as before (MonotonicityError otherwise).
    Raises NonConvergent past ``max_iter`` rounds of one cyclic component
    and Inconsistent when the fixpoint assigns contradictory equally-certain
    complements or an aggregation ties.

    ``naf_values`` is an override list indexed by literal id (``gp.literals``
    order): every naf literal b of ``gp`` is given the value its ``not b``
    items take, and entries at other ids are not read.  ``gp`` is then
    evaluated as the positive program with those items frozen, without
    building it.  Without it ``gp`` must be positive.
    """
    if naf_values is None and gp.has_naf:
        raise ValueError("kmin_supported_model requires a positive program")
    return _fixpoint(gp, eps, max_iter, naf_values=naf_values, trace=trace)


def _override(gp: GroundProgram, frozen) -> list:
    """The override list giving ``gp``'s naf ids the values ``frozen``, in order."""
    override = [None] * len(gp.literals)
    for b, value in zip(gp.naf_ids, frozen):
        override[b] = value
    return override


class Status(enum.Enum):
    ANSWER_SET = "answer-set"
    NOT_MODEL = "not-model"
    NOT_SUPPORTED = "not-supported"
    NOT_K_MINIMAL = "not-k-minimal"
    INCONSISTENT = "inconsistent"
    NON_CONVERGENT = "non-convergent"


@dataclass
class CandidateResult:
    interpretation: Interpretation | None
    status: Status
    detail: object = None


@dataclass
class SolveReport:
    """What :func:`solve` found and did.

    ``iterations`` counts the component evaluation rounds of the main
    fixpoint (the operator trajectory when the program has naf), summed
    over components; ``trace`` holds one interpretation snapshot per round.
    """

    answer_sets: list = field(default_factory=list)
    candidates: list = field(default_factory=list)
    iterations: int = 0
    trace: list | None = None
    guess_depth: int | None = None


def verify_answer_set(
    gp: GroundProgram,
    i: Interpretation,
    *,
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CandidateResult:
    """Full Definition-style check of one candidate.

    Answer set iff the candidate is a consistent supported model and equals
    the fixpoint of its own reduct; otherwise the specific failure.
    """
    atom = is_inconsistent(i, eps)
    if atom is not None:
        return CandidateResult(i, Status.INCONSISTENT, atom)
    values = _values_on(gp, i)
    for pos, (head, body, weight) in enumerate(gp.compiled):
        if not _satisfied(values[head], _body(values, body, weight, None), eps):
            return CandidateResult(i, Status.NOT_MODEL, gp.rules[pos])
    violation = _unsupported(gp, values, eps)
    if violation is not None:
        return CandidateResult(i, Status.NOT_SUPPORTED, violation)
    frozen = _override(gp, [naf(values[b]) for b in gp.naf_ids])
    try:
        fix = kmin_supported_model(gp, eps=eps, max_iter=max_iter, naf_values=frozen)
    except Inconsistent as exc:
        return CandidateResult(i, Status.INCONSISTENT, exc.atom)
    except NonConvergent:
        return CandidateResult(i, Status.NON_CONVERGENT, None)
    if not interpretations_equal(fix, i, eps):
        return CandidateResult(i, Status.NOT_K_MINIMAL, fix)
    return CandidateResult(i, Status.ANSWER_SET)


def _has_naf_cycle(gp: GroundProgram) -> bool:
    """True when some dependency cycle passes through a naf edge.

    Without such a cycle the program is stratified: naf values are uniquely
    determined bottom-up and the operator trajectory's fixpoint is the only
    answer-set candidate, so no guessing is needed.  A naf edge lies on a
    cycle exactly when both its ends share a component of
    :attr:`GroundProgram.components` (complement-coupled heads count as
    mutually dependent there).
    """
    where = [-1] * len(gp.literals)
    for n, component in enumerate(gp.components):
        for head in component.heads:
            where[head] = n
    return any(
        where[b] == where[head]
        for head, body, _ in gp.compiled
        for kind, b in body
        if kind == NAF
    )


def _naf_guess_domain(gp: GroundProgram, depth: int, slots: int, max_guesses: int):
    """Possible naf values: image of the weight closure under naf.

    The closure is taken at operator depth ``depth``, lowered one step at a
    time while it exceeds the closure cap or while ``len(domain) ** slots``
    exceeds ``max_guesses``, but never below 1 for the second reason.
    Returns (domain, depth used); depth 0 means the bare seeds.
    """
    from .oracle import closure_enumerate

    seeds = {TRUE, UNKNOWN}
    for _, body, weight in gp.compiled:
        seeds.add(weight)
        for kind, x in body:
            if kind == VALUE:
                seeds.add(x)
    while True:
        if depth >= 1:
            try:
                closure = closure_enumerate(seeds, depth)
            except ClosureTooLarge:
                depth -= 1
                continue
        else:
            closure = tuple(seeds)
        domain: dict[float, FuzzyTruth] = {}
        for v in closure:
            domain.setdefault(round(1.0 - v.b, 9), naf(v))
        if len(domain) ** slots <= max_guesses or depth <= 1:
            return list(domain.values()), depth
        depth -= 1


def solve(
    program: Program | GroundProgram,
    *,
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
    guess_depth: int = 3,
    max_guesses: int = 100_000,
    collect_trace: bool = False,
) -> SolveReport:
    """Ground, generate candidates, verify each, and report.

    Every fixpoint is computed component by component: the ground program's
    head literals are condensed into strongly connected components of the
    dependency graph (positive, naf and complement edges) and evaluated
    bottom-up, an acyclic component once and a cyclic one Jacobi-style
    until stable.  ``report.iterations`` sums these evaluation rounds,
    ``collect_trace`` keeps one snapshot per round, and ``max_iter`` caps
    the rounds of each cyclic component.

    Positive programs have the unique operator fixpoint as their only
    candidate.  With naf, the evolving-naf trajectory is tried first and
    then, when a dependency cycle runs through naf, every self-consistent
    assignment of naf values drawn from the operator closure of the program
    weights (depth ``guess_depth``, lowered until the guesses fit in
    ``max_guesses``; GuessLimitExceeded when even depth 1 does not).  Guess
    and verification fixpoints evaluate the program with its naf items
    frozen, in the finer order where naf is no dependency.
    """
    gp = ground(program) if isinstance(program, Program) else program
    trace = [] if collect_trace else None
    report = SolveReport(trace=trace)

    candidates: list[Interpretation] = []

    def add_candidate(candidate: Interpretation):
        if not any(interpretations_equal(candidate, c, eps) for c in candidates):
            candidates.append(candidate)

    try:
        add_candidate(
            _fixpoint(gp, eps, max_iter, evolving=gp.has_naf, trace=trace, report=report)
        )
    except Inconsistent as exc:
        report.candidates.append(CandidateResult(None, Status.INCONSISTENT, exc.atom))
    except NonConvergent:
        report.candidates.append(CandidateResult(None, Status.NON_CONVERGENT, None))
    if gp.has_naf and _has_naf_cycle(gp):
        _guess_candidates(gp, add_candidate, report, eps, max_iter, guess_depth, max_guesses)

    for candidate in candidates:
        result = verify_answer_set(gp, candidate, eps=eps, max_iter=max_iter)
        report.candidates.append(result)
        if result.status is Status.ANSWER_SET:
            report.answer_sets.append(candidate)
    return report


def _guess_candidates(gp, add_candidate, report, eps, max_iter, guess_depth, max_guesses):
    """Second candidate tier: self-consistent naf-value assignments.

    Every answer set whose naf values lie in the weight closure is the
    fixpoint of the program frozen at those values, so enumerating the
    (deduplicated) naf images of the closure finds all of them.
    """
    naf_ids = gp.naf_ids
    domain, report.guess_depth = _naf_guess_domain(
        gp, guess_depth, len(naf_ids), max_guesses
    )
    guesses = len(domain) ** len(naf_ids)
    if guesses > max_guesses:
        raise GuessLimitExceeded(f"{guesses} naf guesses exceed max_guesses={max_guesses}")
    for combo in itertools.product(domain, repeat=len(naf_ids)):
        guess = _override(gp, combo)
        try:
            fix = kmin_supported_model(gp, eps=eps, max_iter=max_iter, naf_values=guess)
        except (Inconsistent, NonConvergent):
            continue
        if all(equal(naf(fix.values[b]), v, eps) for b, v in zip(naf_ids, combo)):
            add_candidate(fix)
